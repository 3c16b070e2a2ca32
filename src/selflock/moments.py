"""Moment transmission through the joint: mechanical advantage and output moment.

The joint transmits the pouch moment at the driven fold to the output fold.
The mechanical advantage follows from the spherical linkage geometry alone
and diverges where sin(theta2) vanishes (the fold-over of the coupler).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linkage import Configuration, DomainError, SingularityError, _float_or_array
from .linkage import theta3_of_theta1, theta4_of_theta1
from .pouch import ActuatorConditions, PouchGeometry, central_angle, input_moment

_SIN_FLOOR = 1e-12


def mechanical_advantage(alpha: float, theta1, config: Configuration):
    """Ratio of output moment to input moment at the given state.

    MA = |sin(theta3)| / (sin(alpha) * |sin(theta2)|). The value is the
    same on both branches. At theta1 = 0 it reduces to 2 cos(alpha), its
    minimum; it grows away from zero and diverges as sin(theta2) -> 0.
    theta1 is a float or an ndarray; one singular element fails the call.
    """
    s2 = abs(np.sin(theta4_of_theta1(alpha, theta1, config)))
    s3 = abs(np.sin(theta3_of_theta1(alpha, theta1, config)))
    low = s2 < _SIN_FLOOR
    if np.count_nonzero(low):
        i = np.argmax(low)
        raise SingularityError(
            f"sin(theta2) = {float(np.ravel(s2)[i]):.3e} at theta1 = "
            f"{float(np.ravel(theta1)[i])!r}; mechanical advantage diverges"
        )
    return _float_or_array(s3 / (math.sin(alpha) * s2))


def output_moment(
    geom: PouchGeometry,
    cond: ActuatorConditions,
    alpha: float,
    theta1,
    config: Configuration,
):
    """Moment delivered at the output fold, N m magnitude.

    theta1 is a float or an ndarray, as for mechanical_advantage.
    """
    return mechanical_advantage(alpha, theta1, config) * input_moment(geom, cond, theta1)


@dataclass(frozen=True)
class MomentCurveRow:
    """One sampled point of the moment transmission curve."""

    theta1: float
    S: float
    M_input: float
    MA: float
    M_output: float


def moment_curve(
    alpha: float,
    config: Configuration,
    geom: PouchGeometry,
    cond: ActuatorConditions,
    theta1_min: float,
    theta1_max: float,
    steps: int,
) -> list:
    """Moment curve rows on a uniform theta1 grid within [-pi/2, pi/2].

    Every row satisfies M_output == MA * M_input exactly, since the output
    column is formed from the other two.
    """
    if steps < 2:
        raise DomainError(f"steps = {steps!r}, need at least 2")
    if not theta1_min < theta1_max:
        raise DomainError("theta1_min must be strictly below theta1_max")
    grid = np.linspace(theta1_min, theta1_max, steps)
    S = central_angle(grid)
    mi = input_moment(geom, cond, grid)
    ma = mechanical_advantage(alpha, grid, config)
    rows = np.column_stack((grid, S, mi, ma, ma * mi)).tolist()
    return [MomentCurveRow(*row) for row in rows]
