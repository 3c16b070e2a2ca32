"""Closed-form kinematics of a self-locking single-vertex origami joint.

The joint is four rigid plates hinged around one shared vertex, which makes
it a spherical four-bar linkage. Plates 1 and 2 carry a central angle alpha,
plates 3 and 4 are right-angled, so the angular deficit

    2*pi - (2*alpha + pi)

is positive whenever alpha < 90 degrees and the flat state is unreachable:
the mechanism locks itself against flattening. theta1 is the driven fold
between plates 1 and 2; theta4 is the output fold between plate 4 and the
grounded plate 1. Each theta is a signed deviation from coplanar, so the
dihedral angle at fold i is pi - |theta_i|.

Angles are radians everywhere in this package. Degrees appear only at the
command-line boundary.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """An argument left the region where the requested quantity is defined."""


class SingularityError(DomainError):
    """Evaluation at a kinematic singularity (vanishing sin(theta2))."""


class Configuration(enum.Enum):
    """Assembly branch of the linkage.

    The two branches are mirror images of each other through the ground
    plane; they share theta1 and differ only in the signs of theta2,
    theta3 and theta4.
    """

    UP = "up"
    DOWN = "down"

    @property
    def sign(self) -> float:
        return 1.0 if self is Configuration.UP else -1.0


@dataclass(frozen=True)
class CentralAngles:
    """Central angles of the four plates at the shared vertex, in radians.

    Each field holds one plate's angle and is named after the fold on the
    far side of that plate going counterclockwise: alpha12 belongs to
    plate 1 (between folds u41 and u12), alpha23 to plate 2, alpha34 to
    plate 3, alpha41 to plate 4.
    """

    alpha12: float
    alpha23: float
    alpha34: float
    alpha41: float

    def __post_init__(self):
        for name in ("alpha12", "alpha23", "alpha34", "alpha41"):
            v = getattr(self, name)
            _check_angle(name, v)
            if not 0.0 < v < math.pi:
                raise DomainError(f"{name} = {v!r} outside (0, pi)")

    @classmethod
    def self_lock(cls, alpha: float) -> "CentralAngles":
        """Self-locking family: plates 1 and 2 at alpha, plates 3 and 4 square.

        Requires pi/4 < alpha < pi/2. Below 45 degrees the pouch actuator
        construction degenerates, and at 90 degrees the deficit vanishes
        (the joint would fold flat).
        """
        _check_angle("alpha", alpha)
        if not math.pi / 4 < alpha < math.pi / 2:
            raise DomainError(
                f"self-locking joint needs alpha in (45, 90) degrees, got "
                f"{math.degrees(alpha):.4g}"
            )
        return cls(alpha, alpha, math.pi / 2, math.pi / 2)

    @property
    def deficit(self) -> float:
        """Angular deficit 2*pi minus the sum of the central angles."""
        return 2.0 * math.pi - (self.alpha12 + self.alpha23 + self.alpha34 + self.alpha41)


@dataclass(frozen=True)
class JointState:
    """All four signed fold deviations of one joint plus its branch."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    config: Configuration


def closure_residual(angles: CentralAngles, theta1, theta4):
    """Spherical loop-closure function of the four-plate vertex.

    For given central angles and input fold theta1, the output folds theta4
    compatible with a closed loop are exactly the roots of this function.
    It is written in terms of |theta4| so that the two assembly branches
    share a single equation; the return value is the left-hand side of the
    closure identity minus cos(alpha34). Accepts scalars or numpy arrays
    for theta1 and theta4.
    """
    theta4 = np.asarray(theta4, dtype=float)
    return _float_or_array(_residual_of_theta4(angles, theta1)(theta4))


def _residual_of_theta4(angles: CentralAngles, theta1):
    """closure_residual at fixed angles and theta1, as a function of theta4.

    The factors that do not depend on theta4 are evaluated once, here; the
    returned function keeps the operation order of the full expression

        cos a41 cos a23 cos a12
        - (sin a41 cos a23 cos t4 + cos a41 sin a23 cos t1) sin a12
        + sin a41 sin a23 (sin t1 sin t4 - cos t1 cos t4 cos a12)
        - cos a34

    with t4 = |theta4|, so every value is bit-identical to a single-pass
    evaluation. theta4 is a float or an ndarray; the function returns a
    numpy value (0-d for scalar arguments).
    """
    a12, a23, a34, a41 = angles.alpha12, angles.alpha23, angles.alpha34, angles.alpha41
    t1 = np.asarray(theta1, dtype=float)
    c12, s12, c34 = np.cos(a12), np.sin(a12), np.cos(a34)
    lead = np.cos(a41) * np.cos(a23) * c12
    k4 = np.sin(a41) * np.cos(a23)
    k1 = np.cos(a41) * np.sin(a23) * np.cos(t1)
    k = np.sin(a41) * np.sin(a23)
    s1, c1 = np.sin(t1), np.cos(t1)

    def residual(theta4):
        t4 = abs(theta4)
        c4 = np.cos(t4)
        return lead - (k4 * c4 + k1) * s12 + k * (s1 * np.sin(t4) - c1 * c4 * c12) - c34

    return residual


def _float_or_array(x):
    """A float for a 0-d result, so that a float argument gives a float back."""
    return float(x) if x.ndim == 0 else x


def _is_number(value) -> bool:
    """Whether value is a real number; a bool, which compares as 0 or 1, is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_angle(name: str, value) -> None:
    """Refuse an angle that is not a number by name, before any range test."""
    if not _is_number(value):
        raise DomainError(f"{name} = {value!r} is not a number")


def _check_alpha(alpha: float) -> None:
    # The closed forms below stay evaluable up to and including 90 degrees,
    # where the joint degenerates to a flat-foldable vertex.
    _check_angle("alpha", alpha)
    if not 0.0 < alpha <= math.pi / 2:
        raise DomainError(f"alpha = {alpha!r} outside (0, pi/2]")


def _check_finite(name: str, value: float, nonnegative: bool = False) -> None:
    # The one rule for every length, size, pressure and clearance; NaN
    # fails both comparisons, so it is refused too, and so is a value that
    # is not a number, such as a string, None or a bool.
    if not (
        _is_number(value)
        and (0.0 <= value if nonnegative else 0.0 < value)
        and value < math.inf
    ):
        sign = "nonnegative" if nonnegative else "positive"
        raise DomainError(f"{name} = {value!r} must be finite and {sign}")


# The upper end of every length, size, clearance and spec translation, in
# mm. A collision margin is trusted to within 1e-12 of the largest
# coordinate (manipulator._rounding_slack), about 1e-6 mm at this size,
# far below any clearance worth setting; a length near the float range
# would overflow the collision kernel's products instead.
_MAX_LENGTH_MM = 1e6


def _check_length(name: str, value: float, nonnegative: bool = False) -> None:
    """_check_finite's rule for a length, which is also at most _MAX_LENGTH_MM."""
    _check_finite(name, value, nonnegative)
    if value > _MAX_LENGTH_MM:
        raise DomainError(f"{name} = {value!r} must be at most {_MAX_LENGTH_MM:g} mm")


def theta4_of_theta1(alpha: float, theta1, config: Configuration):
    """Output fold angle as a closed form of the input fold angle.

    On the Up branch

        theta4 = atan2(cos(alpha) * cos(theta1 / 2), sin(theta1 / 2))

    which lies in (0, pi) for theta1 in (0, pi) and decreases strictly as
    theta1 grows. The Down branch is its negation. At theta1 = 0 the output
    is exactly pi/2 regardless of alpha. theta1 is a float or an ndarray;
    the result is a float or an ndarray of the same shape.
    """
    _check_alpha(alpha)
    return _float_or_array(config.sign * theta4_up(math.cos(alpha), theta1))


def theta4_up(cos_alpha, theta1):
    """The Up-branch theta4 of theta1 at a given cos(alpha), unchecked.

    The closed form of theta4_of_theta1. cos_alpha and theta1 broadcast, so
    the kinematics of many units evaluate it once over all of them.
    """
    half = 0.5 * theta1
    return np.arctan2(cos_alpha * np.cos(half), np.sin(half))


def theta3_of_theta1(alpha: float, theta1, config: Configuration):
    """Fold angle between plates 3 and 4 as a closed form of theta1.

    The Up branch is arccos(sin(alpha)^2 * cos(theta1) - cos(alpha)^2),
    evaluated in its half-angle form 2 * arccos(x) with
    x = sin(alpha) * |cos(theta1 / 2)|, as

        theta3 = 2 * atan2(hypot(cos(alpha), sin(alpha) * sin(theta1 / 2)), x)

    Next to the fold-over theta1 = +-pi the first form's argument rounds
    to -1, and next to the flat-foldable limit (alpha -> pi/2, theta1 -> 0)
    x rounds to 1; arccos has an infinite slope at both. The atan2 form
    takes sqrt(1 - x^2) from its exact parts, cos(alpha)^2 +
    (sin(alpha) * sin(theta1 / 2))^2, so it stays conditioned at both and
    never leaves a domain. Down negates it. theta1 is a float or an
    ndarray, as for theta4_of_theta1.
    """
    _check_alpha(alpha)
    return _float_or_array(
        config.sign * theta3_up(math.cos(alpha), math.sin(alpha), theta1)
    )


def theta3_up(cos_alpha, sin_alpha, theta1):
    """The Up-branch theta3 of theta1 at given cos(alpha), sin(alpha), unchecked.

    The closed form of theta3_of_theta1; the arguments broadcast as for
    theta4_up.
    """
    half = 0.5 * theta1
    return 2.0 * np.arctan2(
        np.hypot(cos_alpha, sin_alpha * np.sin(half)), sin_alpha * np.abs(np.cos(half))
    )


def joint_state(alpha: float, theta1: float, config: Configuration) -> JointState:
    """Full joint state driven by a scalar theta1.

    theta2 equals theta4 identically on both branches, a symmetry of this
    spherical four-bar (opposite links have equal central angles).
    """
    t4 = theta4_of_theta1(alpha, theta1, config)
    t3 = theta3_of_theta1(alpha, theta1, config)
    return JointState(theta1, t4, t3, t4, config)


def theta1_of_theta4(alpha: float, theta4: float, config: Configuration) -> float:
    """Input fold angle that produces a given output fold angle.

    Inverts theta4_of_theta1 on the requested branch. theta4 must lie
    strictly inside the branch range, (0, pi) for Up and (-pi, 0) for
    Down; the fold-over points 0 and +-pi have no finite preimage.
    """
    _check_alpha(alpha)
    _check_angle("theta4", theta4)
    if not 0.0 < config.sign * theta4 < math.pi:
        up = config is Configuration.UP
        branch = "Up branch range (0, pi)" if up else "Down branch range (-pi, 0)"
        raise DomainError(f"theta4 = {theta4!r} outside the {branch}")
    t = abs(theta4)
    return 2.0 * math.atan2(math.cos(alpha) * math.cos(t), math.sin(t))


# oracle_roots' uniform scan of theta4 over (-pi, pi], 3600 points; shared
# by every call, so read-only.
_ORACLE_GRID = -math.pi + 2.0 * math.pi * np.arange(1, 3601) / 3600
_ORACLE_GRID.flags.writeable = False


def oracle_roots(angles: CentralAngles, theta1: float) -> list:
    """All output angles compatible with theta1, found numerically.

    Scans closure_residual over a dense uniform grid of theta4 in (-pi, pi]
    (3600 samples) and refines every sign change by bisection to
    1e-12 rad. theta4 lives on a circle, so the scan includes the closing
    cell across the +/-pi seam; a root found there is wrapped back into
    (-pi, pi]. Exact grid zeros are kept as-is. Independent of the closed
    forms above, so it serves as their verification oracle. May return an
    empty list when no closure exists at this theta1.
    """
    residual = _residual_of_theta4(angles, theta1)
    grid = _ORACLE_GRID
    vals = residual(grid)
    # Cell k runs from grid[k] to grid[k + 1]; the last one closes the
    # circle, running past +pi to grid[0] + 2 pi.
    ends = np.append(grid[1:], grid[0] + 2.0 * math.pi)
    cross = np.flatnonzero(vals * np.roll(vals, -1) < 0.0)
    found = []
    for a, b, fa in zip(grid[cross].tolist(), ends[cross].tolist(), vals[cross].tolist()):
        # Keep the half where the sign changes; an exact zero ends the bracket.
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            fm = residual(mid - 2.0 * math.pi if mid > math.pi else mid)
            if fa * fm < 0.0:
                b = mid
            elif fm == 0.0:
                a = b = mid
            else:
                a, fa = mid, fm
        root = 0.5 * (a + b)
        found.append(root - 2.0 * math.pi if root > math.pi else root)
    dedup = []
    for r in np.sort(np.concatenate((grid[vals == 0.0], found))).tolist():
        if not dedup or r - dedup[-1] > 1e-10:
            dedup.append(r)
    return dedup


def mpf_theta1(alpha: float, gamma: float) -> float:
    """theta1 of the maximum-possible-fold state, where |theta4| = gamma.

    gamma is the fold target measured as a positive magnitude. The branches
    share theta1, so the result takes no branch. Accepts gamma up to and
    including pi/2 (gamma = pi/2 is the theta1 = 0 state).
    """
    _check_angle("gamma", gamma)
    if not 0.0 < gamma <= math.pi / 2:
        raise DomainError(f"gamma = {gamma!r} outside (0, pi/2]")
    return theta1_of_theta4(alpha, gamma, Configuration.UP)


def semi_flat_theta1(alpha: float, config: Configuration) -> float:
    """theta1 of the semi-flat state, the reachable state closest to flat.

    Minimizes the total deviation |theta1| + |theta2| + |theta3| + |theta4|
    over theta1 in (0, pi). With u = theta1 / 2 and c = cos(alpha), the Up
    branch has theta3 = 2 acos(sin(alpha) cos u), and setting the derivative
    of the total to zero gives the exact minimizer

        theta1 = 2 asin(tan(alpha / 2) * sqrt(c / (2 - c))).

    The two branches share the same magnitude, so the result is branch
    independent.
    """
    _check_alpha(alpha)
    c = math.cos(alpha)
    return 2.0 * math.asin(math.tan(0.5 * alpha) * math.sqrt(c / (2.0 - c)))


def sweep(alpha: float, config: Configuration, theta1) -> np.ndarray:
    """The joint-angle table over a theta1 array, an (n, 4) array in radians.

    Its columns are theta1, theta2, theta3 and theta4, with theta2 equal to
    theta4 as in joint_state; each closed form is evaluated once.
    """
    t4 = theta4_of_theta1(alpha, theta1, config)
    t3 = theta3_of_theta1(alpha, theta1, config)
    return np.column_stack((theta1, t4, t3, t4))
