"""Moment transmission through the joint: mechanical advantage and output moment.

The joint transmits the pouch moment at the driven fold to the output fold.
The mechanical advantage follows from the spherical linkage geometry alone
and diverges where sin(theta2) vanishes (the fold-over of the coupler).
"""

from __future__ import annotations

import math

import numpy as np

from .linkage import Configuration, SingularityError, _float_or_array
from .linkage import theta3_of_theta1, theta4_of_theta1
from .pouch import ActuatorConditions, PouchGeometry, central_angle, input_moment

_SIN_FLOOR = 1e-12


def mechanical_advantage(alpha: float, theta1):
    """Ratio of output moment to input moment at the given state.

    MA = |sin(theta3)| / (sin(alpha) * |sin(theta2)|). The branches differ
    only in the signs of theta2 and theta3, so MA takes no branch and is
    evaluated on the Up one. At theta1 = 0 it reduces to 2 cos(alpha), its
    minimum; it grows away from zero and diverges as sin(theta2) -> 0.
    theta1 is a float or an ndarray; one singular element fails the call.
    """
    s2 = abs(np.sin(theta4_of_theta1(alpha, theta1, Configuration.UP)))
    s3 = abs(np.sin(theta3_of_theta1(alpha, theta1, Configuration.UP)))
    low = s2 < _SIN_FLOOR
    if np.count_nonzero(low):
        i = np.argmax(low)
        raise SingularityError(
            f"sin(theta2) = {float(np.ravel(s2)[i]):.3e} at theta1 = "
            f"{float(np.ravel(theta1)[i])!r}; mechanical advantage diverges"
        )
    return _float_or_array(s3 / (math.sin(alpha) * s2))


def output_moment(geom: PouchGeometry, cond: ActuatorConditions, theta1):
    """Moment delivered at the output fold, N m magnitude.

    The joint is the one of geom.alpha. theta1 is a float or an ndarray, as
    for mechanical_advantage.
    """
    return mechanical_advantage(geom.alpha, theta1) * input_moment(geom, cond, theta1)


def moment_curve(geom: PouchGeometry, cond: ActuatorConditions, theta1) -> np.ndarray:
    """The moment table over a theta1 array within [-pi/2, pi/2], an (n, 5) array.

    Its columns are theta1, S, M_input, MA and M_output, for the joint of
    geom.alpha on either branch. Every row satisfies M_output == MA * M_input
    exactly, since the output column is formed from the other two.
    """
    mi = input_moment(geom, cond, theta1)
    ma = mechanical_advantage(geom.alpha, theta1)
    return np.column_stack((theta1, central_angle(theta1), mi, ma, ma * mi))
