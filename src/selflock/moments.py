"""Moment transmission through the joint: mechanical advantage and output moment.

The joint transmits the pouch moment at the driven fold to the output fold.
The mechanical advantage follows from the spherical linkage geometry alone
and diverges where sin(theta2) vanishes (the fold-over of the coupler).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linkage import Configuration, DomainError, SingularityError, joint_state
from .pouch import ActuatorConditions, PouchGeometry, central_angle, input_moment

_SIN_FLOOR = 1e-12


def mechanical_advantage(alpha: float, theta1: float, config: Configuration) -> float:
    """Ratio of output moment to input moment at the given state.

    MA = |sin(theta3)| / (sin(alpha) * |sin(theta2)|). The value is the
    same on both branches. At theta1 = 0 it reduces to 2 cos(alpha), its
    minimum; it grows away from zero and diverges as sin(theta2) -> 0.
    """
    st = joint_state(alpha, theta1, config)
    s2 = abs(math.sin(st.theta2))
    if s2 < _SIN_FLOOR:
        raise SingularityError(
            f"sin(theta2) = {s2:.3e} at theta1 = {theta1!r}; "
            "mechanical advantage diverges"
        )
    return abs(math.sin(st.theta3)) / (math.sin(alpha) * s2)


def output_moment(
    geom: PouchGeometry,
    cond: ActuatorConditions,
    alpha: float,
    theta1: float,
    config: Configuration,
) -> float:
    """Moment delivered at the output fold, N m magnitude."""
    return mechanical_advantage(alpha, theta1, config) * input_moment(geom, cond, theta1)


@dataclass(frozen=True)
class MomentCurveRow:
    """One sampled point of the moment transmission curve."""

    theta1: float
    S: float
    M_input: float
    MA: float
    M_output: float


def moment_row(
    geom: PouchGeometry,
    cond: ActuatorConditions,
    alpha: float,
    theta1: float,
    config: Configuration,
) -> MomentCurveRow:
    """One moment curve row at theta1; M_output is exactly MA * M_input."""
    mi = input_moment(geom, cond, theta1)
    ma = mechanical_advantage(alpha, theta1, config)
    return MomentCurveRow(
        theta1=theta1, S=central_angle(theta1), M_input=mi, MA=ma, M_output=ma * mi
    )


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
    return [
        moment_row(geom, cond, alpha, float(t), config)
        for t in np.linspace(theta1_min, theta1_max, steps)
    ]
