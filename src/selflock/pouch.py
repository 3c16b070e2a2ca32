"""Pouch actuator geometry and its inflation moment on the driven fold.

The actuator is a flat inflatable pouch cut from the plate material and
laid across the fold between plates 1 and 2. Its footprint is fixed by the
plate construction: a cut line from one corner of an m-square at the plate
central angle alpha bounds the pouch, whose side Lp and width D follow from
similar triangles. Inflation bends the pouch cross-section into a circular
arc of central angle S, shortening the chord between its welded edges and
pulling the fold shut.

Lengths are millimeters, pressures Pascal, moments Newton meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linkage import DomainError, _float_or_array


@dataclass(frozen=True)
class PouchGeometry:
    """Derived pouch dimensions for a plate of side m at central angle alpha.

    L1 is the cut offset on the plate edge, n the matching offset at the far
    corner, Lp the pouch side, D the pouch width, and L0 = 2 Lp the flat
    (deflated) chord across the fold. All in mm.
    """

    m: float
    alpha: float
    L1: float
    n: float
    Lp: float
    D: float
    L0: float


@dataclass(frozen=True)
class ActuatorConditions:
    """Operating conditions of the pouch, currently just gauge pressure in Pa."""

    pressure: float

    def __post_init__(self):
        if not 0.0 <= self.pressure < math.inf:
            raise DomainError(
                f"pressure = {self.pressure!r} must be finite and nonnegative"
            )


def pouch_geometry(m: float, alpha: float) -> PouchGeometry:
    """Pouch dimensions from the plate side m and central angle alpha.

    Valid for alpha strictly between 45 and 90 degrees; at 45 degrees the
    cut consumes the whole plate and the pouch side Lp reaches zero.
    """
    if not 0.0 < m < math.inf:
        raise DomainError(f"m = {m!r} must be finite and positive")
    if not math.pi / 4 < alpha < math.pi / 2:
        raise DomainError(
            f"pouch construction needs alpha in (45, 90) degrees, got "
            f"{math.degrees(alpha):.4g}"
        )
    L1 = m / math.tan(alpha)
    Lp = (m - L1) / math.sin(alpha)
    n = (m - L1) / math.tan(alpha)
    D = (m - n) / math.sin(alpha)
    return PouchGeometry(m=m, alpha=alpha, L1=L1, n=n, Lp=Lp, D=D, L0=2.0 * Lp)


def chord_length(theta1: float, L0: float) -> float:
    """Chord of the inflated pouch across the fold at input angle theta1.

    The chord closes with the fold as L0 * cos(theta1 / 2).
    """
    return L0 * math.cos(0.5 * theta1)


def central_angle(theta1):
    """Arc angle S of the pouch cross-section at input angle theta1.

    Small-bend expansion of the constant-curvature pouch,
    S = sqrt(6 * (1 - cos(theta1 / 2))). Even in theta1; S(0) = 0 and
    S(pi) = sqrt(6). The expansion tracks the exact constant-curvature
    relation sin(S)/S = cos(theta1/2) to within a few percent over the
    actuation range. theta1 is a float or an ndarray.
    """
    return _float_or_array(np.sqrt(6.0 * (1.0 - np.cos(0.5 * theta1))))


_SMALL_S = 1e-4
# Limit of |bracket| / (2 S^2) as S -> 0, from the series of the bracket.
_LIMIT_COEF = (1.0 + 2.0 / math.sqrt(3.0)) / 2.0


def _bracket(S):
    # Rewritten against catastrophic cancellation near S = 0:
    #   -1 +   S^2 + cos(2S) = S^2 - 2 sin(S)^2
    #   -1 + 2 S^2 + cos(2S) = 2 (S - sin S)(S + sin S)
    # float_power squares through libm pow for floats and arrays alike, as
    # float ** 2 does. An array's ** 2 multiplies instead, which rounds
    # differently in the last bit, so rows would depend on the call shape.
    sin = np.sin(S)
    t1 = S * S - 2.0 * np.float_power(sin, 2)
    t2 = 2.0 * (S - sin) * (S + sin)
    return t1 - math.sqrt(2.0) * np.cos(S) * np.sqrt(t2)


def input_moment(geom: PouchGeometry, cond: ActuatorConditions, theta1):
    """Magnitude of the pouch moment on the driven fold, in N m.

    Valid for |theta1| <= pi/2, the pouch actuation range. The moment is

        Lp^2 * D * P / (2 S^2) * |bracket(S)|

    with lengths converted from mm to m. Below S = 1e-4 the series limit
    (1 + 2/sqrt(3))/2 * Lp^2 * D * P is used; the two expressions agree to
    better than 1e-6 relative at the switchover. Even in theta1, linear in
    pressure, and strictly decreasing in |theta1|. theta1 is a float or an
    ndarray; one element outside the range fails the whole call.
    """
    over = abs(theta1) > math.pi / 2 + 1e-12
    if np.count_nonzero(over):
        bad = float(np.ravel(theta1)[np.argmax(over)])
        raise DomainError(
            f"theta1 = {bad!r} outside the actuation range [-pi/2, pi/2]"
        )
    Lp = geom.Lp * 1e-3
    D = geom.D * 1e-3
    P = cond.pressure
    S = central_angle(theta1)
    small = S < _SMALL_S
    # The series rows get a stand-in S of 1, so the discarded closed form
    # divides by no zero.
    S = np.where(small, 1.0, S)
    full = Lp * Lp * D * P * abs(_bracket(S)) / (2.0 * S * S)
    return _float_or_array(np.where(small, _LIMIT_COEF * Lp * Lp * D * P, full))
