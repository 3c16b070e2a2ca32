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
            if not 0.0 < v < math.pi:
                raise DomainError(f"{name} = {v!r} outside (0, pi)")

    @classmethod
    def self_lock(cls, alpha: float) -> "CentralAngles":
        """Self-locking family: plates 1 and 2 at alpha, plates 3 and 4 square.

        Requires pi/4 < alpha < pi/2. Below 45 degrees the pouch actuator
        construction degenerates, and at 90 degrees the deficit vanishes
        (the joint would fold flat).
        """
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


@dataclass(frozen=True)
class SweepTable:
    """Joint states sampled on a uniform theta1 grid."""

    alpha: float
    config: Configuration
    rows: tuple

    def as_array(self) -> np.ndarray:
        """Rows as an (n, 4) array of theta1..theta4 in radians."""
        return np.array(
            [(r.theta1, r.theta2, r.theta3, r.theta4) for r in self.rows]
        )


def closure_residual(angles: CentralAngles, theta1, theta4):
    """Spherical loop-closure function of the four-plate vertex.

    For given central angles and input fold theta1, the output folds theta4
    compatible with a closed loop are exactly the roots of this function.
    It is written in terms of |theta4| so that the two assembly branches
    share a single equation; the return value is the left-hand side of the
    closure identity minus cos(alpha34). Accepts scalars or numpy arrays
    for theta1 and theta4.
    """
    a12, a23, a34, a41 = angles.alpha12, angles.alpha23, angles.alpha34, angles.alpha41
    t1 = np.asarray(theta1, dtype=float)
    t4 = np.abs(np.asarray(theta4, dtype=float))
    out = (
        np.cos(a41) * np.cos(a23) * np.cos(a12)
        - (
            np.sin(a41) * np.cos(a23) * np.cos(t4)
            + np.cos(a41) * np.sin(a23) * np.cos(t1)
        )
        * np.sin(a12)
        + np.sin(a41)
        * np.sin(a23)
        * (np.sin(t1) * np.sin(t4) - np.cos(t1) * np.cos(t4) * np.cos(a12))
        - np.cos(a34)
    )
    return _float_or_array(out)


def _float_or_array(x):
    """A float for a 0-d result, so that a float argument gives a float back."""
    return float(x) if x.ndim == 0 else x


def _check_alpha(alpha: float) -> None:
    # The closed forms below stay evaluable up to and including 90 degrees,
    # where the joint degenerates to a flat-foldable vertex.
    if not 0.0 < alpha <= math.pi / 2:
        raise DomainError(f"alpha = {alpha!r} outside (0, pi/2]")


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
    half = 0.5 * theta1
    up = np.arctan2(math.cos(alpha) * np.cos(half), np.sin(half))
    return _float_or_array(config.sign * up)


def theta3_of_theta1(alpha: float, theta1, config: Configuration):
    """Fold angle between plates 3 and 4 as a closed form of theta1.

    The Up branch is arccos(sin(alpha)^2 * cos(theta1) - cos(alpha)^2);
    Down negates it. The cosine argument is clamped only against rounding
    within 1e-12 of the interval ends; anything farther out raises. theta1
    is a float or an ndarray, as for theta4_of_theta1.
    """
    _check_alpha(alpha)
    arg = math.sin(alpha) ** 2 * np.cos(theta1) - math.cos(alpha) ** 2
    over = abs(arg) > 1.0
    if np.count_nonzero(over):
        far = abs(arg) > 1.0 + 1e-12
        if np.count_nonzero(far):
            bad = float(np.ravel(arg)[np.argmax(far)])
            raise DomainError(f"cos(theta3) argument {bad!r} outside [-1, 1]")
        arg = np.where(over, np.copysign(1.0, arg), arg)
    return _float_or_array(config.sign * np.arccos(arg))


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
    if config is Configuration.UP:
        if not 0.0 < theta4 < math.pi:
            raise DomainError(
                f"theta4 = {theta4!r} outside the Up branch range (0, pi)"
            )
    else:
        if not -math.pi < theta4 < 0.0:
            raise DomainError(
                f"theta4 = {theta4!r} outside the Down branch range (-pi, 0)"
            )
    t = abs(theta4)
    return 2.0 * math.atan2(math.cos(alpha) * math.cos(t), math.sin(t))


def oracle_roots(angles: CentralAngles, theta1: float, samples: int = 3600) -> list:
    """All output angles compatible with theta1, found numerically.

    Scans closure_residual over a dense uniform grid of theta4 in (-pi, pi]
    (at least 3600 samples) and refines every sign change by bisection to
    1e-12 rad. theta4 lives on a circle, so the scan includes the closing
    cell across the +/-pi seam; a root found there is wrapped back into
    (-pi, pi]. Exact grid zeros are kept as-is. Independent of the closed
    forms above, so it serves as their verification oracle. May return an
    empty list when no closure exists at this theta1.
    """
    if samples < 3600:
        samples = 3600
    grid = -math.pi + 2.0 * math.pi * np.arange(1, samples + 1) / samples
    vals = closure_residual(angles, theta1, grid)
    # Cell k runs from grid[k] to grid[k + 1]; the last one closes the
    # circle, running past +pi to grid[0] + 2 pi.
    ends = np.append(grid[1:], grid[0] + 2.0 * math.pi)
    cross = np.flatnonzero(vals * np.roll(vals, -1) < 0.0)
    a, b, fa = grid[cross], ends[cross], vals[cross]
    # Halve every bracket at once. A midpoint with a zero residual collapses
    # its bracket (a = b), which also takes it out of the live set.
    while True:
        live = np.flatnonzero(b - a > 1e-12)
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        fm = closure_residual(
            angles, theta1, np.where(mid > math.pi, mid - 2.0 * math.pi, mid)
        )
        left = fa[live] * fm < 0.0
        b[live] = np.where(left | (fm == 0.0), mid, b[live])
        a[live] = np.where(left, a[live], mid)
        fa[live] = np.where(left, fa[live], fm)
    found = 0.5 * (a + b)
    found = np.where(found > math.pi, found - 2.0 * math.pi, found)
    dedup = []
    for r in np.sort(np.concatenate((grid[vals == 0.0], found))).tolist():
        if not dedup or r - dedup[-1] > 1e-10:
            dedup.append(r)
    return dedup


def mpf_theta1(alpha: float, gamma: float, config: Configuration) -> float:
    """theta1 of the maximum-possible-fold state, where |theta4| = gamma.

    gamma is the fold target measured as a positive magnitude; the branch
    sign is applied internally. Accepts gamma up to and including pi/2
    (gamma = pi/2 is the theta1 = 0 state).
    """
    if not 0.0 < gamma <= math.pi / 2:
        raise DomainError(f"gamma = {gamma!r} outside (0, pi/2]")
    return theta1_of_theta4(alpha, config.sign * gamma, config)


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


def sweep(
    alpha: float,
    config: Configuration,
    theta1_min: float,
    theta1_max: float,
    steps: int,
) -> SweepTable:
    """Joint states on a uniform, endpoint-inclusive theta1 grid.

    steps is the number of rows (at least 2); theta1_min < theta1_max and
    both must lie in (-pi, pi).
    """
    if steps < 2:
        raise DomainError(f"steps = {steps!r}, need at least 2")
    if not theta1_min < theta1_max:
        raise DomainError("theta1_min must be strictly below theta1_max")
    for v in (theta1_min, theta1_max):
        if not -math.pi < v < math.pi:
            raise DomainError(f"theta1 bound {v!r} outside (-pi, pi)")
    grid = np.linspace(theta1_min, theta1_max, steps)
    t4 = theta4_of_theta1(alpha, grid, config)
    t3 = theta3_of_theta1(alpha, grid, config)
    rows = np.column_stack((grid, t4, t3, t4)).tolist()
    return SweepTable(alpha, config, tuple(JointState(*r, config) for r in rows))
