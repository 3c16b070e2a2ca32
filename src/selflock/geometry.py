"""Plate polygons and 3D forward kinematics of one origami unit.

The grounded plate 1 lies in the z = 0 plane with the shared vertex at the
origin and the ground-output fold u41 along +y; the driven fold u12 lies in
the plane at the plate angle alpha from u41. Rotating plate 2 about u12 by
theta1 and propagating theta2, theta3 around the vertex places all four
plates; the chain must arrive back at u41, which gives an independent check
of the closed-form kinematics. A separating-axis test on the placed plate
polygons provides the collision predicate used by manipulator runs.

Down-configuration units are the mirror of Up through z = 0, so their pose
sets are the Up sets conjugated by diag(1, 1, -1): the z row and column of
each rotation change sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linkage import CentralAngles, Configuration, DomainError, JointState, joint_state


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array shared between callers read-only and return it."""
    a.flags.writeable = False
    return a


# unit_poses hands YHAT to every caller as the u41 fold axis.
YHAT = _read_only(np.array([0.0, 1.0, 0.0]))
ZHAT = _read_only(np.array([0.0, 0.0, 1.0]))
_EYE = _read_only(np.eye(3))
# diag(1, 1, -1) R diag(1, 1, -1), entry by entry.
_MIRROR_SIGNS = _read_only(
    np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
)


def _e(phi: float) -> np.ndarray:
    """Unit vector in the ground plane at azimuth phi from +x."""
    return np.array([math.cos(phi), math.sin(phi), 0.0])


def _unit_axis(axis) -> tuple:
    """The components of axis / |axis| as floats; a zero axis is rejected."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise DomainError("rotation axis must be nonzero")
    return tuple((axis / n).tolist())


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation matrix about an arbitrary axis (Rodrigues form)."""
    return _rodrigues(_unit_axis(axis), angle)


def _rodrigues(unit_axis: tuple, angle: float) -> np.ndarray:
    """Rotation by angle about a unit axis given as three floats."""
    x, y, z = unit_axis
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Pose:
    """Rigid placement: orthonormal rotation r plus translation t (mm).

    Stored as one (4, 3) array rt, rows 0-2 the rotation and row 3 the
    translation; r and t are views of it. run(include_poses=True) keeps a
    Pose per plate per frame, and one array in a slotted instance takes
    about 40% less memory than two arrays in an instance dict.
    """

    rt: np.ndarray

    def __init__(self, r, t):
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector")
        rt = np.empty((4, 3))
        rt[:3] = r
        rt[3] = t
        object.__setattr__(self, "rt", rt)
        # Validation stays in the dataclass hook; a custom __init__ has to
        # call it, and does so on every construction.
        self.__post_init__()

    def __post_init__(self):
        """Reject a rotation that is not orthonormal with det +1."""
        # Plain floats: on a 3x3 matrix numpy's per-call overhead would cost
        # several times the arithmetic, and every compose runs this check.
        (a, b, c), (d, e, f), (g, h, i), _ = self.rt.tolist()
        gram = (
            a * a + b * b + c * c - 1.0,
            d * d + e * e + f * f - 1.0,
            g * g + h * h + i * i - 1.0,
            a * d + b * e + c * f,
            a * g + b * h + c * i,
            d * g + e * h + f * i,
        )
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        # Written so that a NaN entry, which fails every comparison, fails it.
        if not (max(map(abs, gram)) <= 1e-9 and det >= 0.0):
            raise ValueError("pose rotation must be orthonormal with det +1")

    @property
    def r(self) -> np.ndarray:
        return self.rt[:3]

    @property
    def t(self) -> np.ndarray:
        return self.rt[3]

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point or an (n, 3) stack of points."""
        return np.asarray(points, dtype=float) @ self.r.T + self.t

    def compose(self, other: "Pose") -> "Pose":
        """This pose applied after `other` (self o other)."""
        rt, ort = self.rt, other.rt
        r = rt[:3]
        return Pose(r @ ort[:3], r @ ort[3] + rt[3])

    def inverse(self) -> "Pose":
        rinv = self.r.T
        return Pose(rinv, -(rinv @ self.t))


@dataclass(frozen=True, eq=False)
class PlateMesh:
    """Planar convex plate polygon in its local frame.

    The shared origami vertex sits at the local origin (vertex index 0);
    vertices wind counterclockwise. central_angle is the nominal interior
    angle at the vertex; cut flags the trapezoidal driven plates.
    """

    vertices: np.ndarray
    central_angle: float
    cut: bool

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)


def plate_meshes(alpha: float, m: float):
    """The four plate polygons of a self-locking unit of size m.

    Plates 1 and 2 are trapezoids cut from an m-square, the far side
    shortened by L1 = m / tan(alpha); plates 3 and 4 are full m-squares.
    Laid flat around the vertex they fan counterclockwise from the driven
    fold side and leave the angular deficit open between plate 4 and the
    grounded plate's u41 edge.
    """
    CentralAngles.self_lock(alpha)
    if not 0.0 < m < math.inf:
        raise DomainError(f"m = {m!r} must be finite and positive")
    a = alpha
    cs = m / math.sin(a)
    r2 = m * math.sqrt(2.0)
    p1 = np.array([np.zeros(3), cs * _e(math.pi / 2 - a), r2 * _e(math.pi / 4), m * YHAT])
    p2 = np.array(
        [
            np.zeros(3),
            m * _e(math.pi / 2 - 2 * a),
            r2 * _e(math.pi / 2 - 2 * a + math.pi / 4),
            cs * _e(math.pi / 2 - a),
        ]
    )
    p3 = np.array(
        [
            np.zeros(3),
            m * _e(-2 * a),
            r2 * _e(-2 * a + math.pi / 4),
            m * _e(math.pi / 2 - 2 * a),
        ]
    )
    p4 = np.array(
        [np.zeros(3), m * YHAT, np.array([-m, m, 0.0]), np.array([-m, 0.0, 0.0])]
    )
    return (
        PlateMesh(p1, a, True),
        PlateMesh(p2, a, True),
        PlateMesh(p3, math.pi / 2, False),
        PlateMesh(p4, math.pi / 2, False),
    )


def trim_corner(mesh: PlateMesh, t: float = 2.0) -> PlateMesh:
    """Cut the vertex corner back by t mm along both adjacent edges.

    Collision meshes use this to keep the always-touching shared corner of
    the plates from registering as contact; it never enters kinematics.
    """
    v = mesh.vertices
    e_next = v[1] - v[0]
    e_prev = v[-1] - v[0]
    ln, lp = np.linalg.norm(e_next), np.linalg.norm(e_prev)
    if not 0.0 < t < min(ln, lp):
        raise DomainError(f"trim t = {t!r} must lie in (0, shortest vertex edge)")
    a = v[0] + t * e_prev / lp
    b = v[0] + t * e_next / ln
    return PlateMesh(np.vstack([a, b, v[1:]]), mesh.central_angle, mesh.cut)


@dataclass(frozen=True, eq=False)
class UnitPoseSet:
    """World placement of the four plates of one unit at a joint state.

    poses are pure rotations about the shared vertex (plate 1 is identity);
    fold_axes are the world directions of u12, u23, u34, u41; m records the
    unit size so plate corners can be resolved.
    """

    poses: tuple
    fold_axes: tuple
    joint_state: JointState
    m: float


@functools.lru_cache(maxsize=128)
def _unit_constants(alpha: float) -> tuple:
    """What unit_poses needs of alpha alone, validated and computed once.

    Returns the local fold directions u12, u23 and u34, their components
    as rotation_about normalizes them, and the fixed rotation that moves
    plate 4 from its chain-side layout to the ground-aligned one. Every
    caller shares these arrays, so they are read-only. An invalid alpha
    raises here, and lru_cache keeps no entry for a call that raised.
    """
    CentralAngles.self_lock(alpha)
    dirs = tuple(
        _read_only(_e(phi))
        for phi in (math.pi / 2 - alpha, math.pi / 2 - 2 * alpha, -2 * alpha)
    )
    relayout = _read_only(rotation_about(ZHAT, -2 * alpha - math.pi))
    return dirs, tuple(_unit_axis(d) for d in dirs), relayout


def unit_poses(
    alpha: float, theta1: float, config: Configuration, m: float = 25.0
) -> UnitPoseSet:
    """Forward kinematics of one unit: place all four plates for a theta1.

    Plate 2 rotates by theta1 about u12; plates 3 and 4 follow by theta2
    about u23 and theta3 about u34, each axis carried along by the chain.
    Plate 4's returned pose is expressed over its ground-aligned local
    layout (the one spanning u41 = +y), so at any valid state it equals a
    pure rotation about u41 by the signed theta4. The fold axes u12 and
    u41 are shared read-only arrays.
    """
    (u12, u23l, u34l), (k12, k23, k34), relayout = _unit_constants(alpha)
    st = joint_state(alpha, theta1, config)
    sgn = config.sign
    t2u = sgn * st.theta2
    t3u = sgn * st.theta3
    R2 = _rodrigues(k12, -theta1)
    R3 = R2 @ _rodrigues(k23, -t2u)
    R4 = R3 @ _rodrigues(k34, -t3u) @ relayout
    rots = [R2, R3, R4]
    if config is Configuration.DOWN:
        # At theta1 = 0 some entries are +0.0, and a sign flip makes them
        # -0.0 where diag(1, 1, -1) @ R @ diag(1, 1, -1) gives +0.0; adding
        # +0.0 keeps the product's bytes. Plate 1's identity is its own
        # mirror.
        rots = [R * _MIRROR_SIGNS + 0.0 for R in rots]
    zero = np.zeros(3)
    poses = tuple(Pose(R, zero) for R in (_EYE, *rots))
    axes = (u12, poses[1].r @ u23l, poses[2].r @ u34l, YHAT)
    return UnitPoseSet(poses, axes, st, m)


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def loop_closure_error(poses: UnitPoseSet) -> float:
    """How far the plate chain misses closing back onto the ground fold.

    Propagates plate 4's chain-side frame from plate 3 and returns the
    larger of (a) the angle between the propagated u41 direction and the
    ground u41 = +y, and (b) the wrapped difference between the dihedral
    deviation measured at u41 and the state's theta4. The angle in (a) is
    evaluated as 2 asin(|v - y| / 2), which stays well conditioned when the
    two directions nearly coincide.
    """
    st = poses.joint_state
    u12 = poses.fold_axes[0]
    a = math.pi / 2 - math.atan2(u12[1], u12[0])
    u34l = _e(-2 * a)
    P4c = poses.poses[2].r @ rotation_about(u34l, -st.theta3)
    v = P4c @ _e(-2 * a - math.pi / 2)
    axis_err = 2.0 * math.asin(min(1.0, 0.5 * float(np.linalg.norm(v - YHAT))))
    w = P4c @ _e(-2 * a)
    th4_measured = math.atan2(w[2], -w[0])
    th4_err = abs(_wrap_angle(th4_measured - st.theta4))
    return max(axis_err, th4_err)


def marker_position(poses: UnitPoseSet, which: tuple = (3, 2)) -> np.ndarray:
    """World position of a plate corner, default the outer corner of plate 4.

    which = (plate index, corner index), both zero-based, corners indexed
    as in plate_meshes. The default corner is the one diagonally opposite
    the shared vertex on the output plate.
    """
    plate, corner = which
    if not 0 <= plate <= 3:
        raise IndexError(f"plate index {plate!r} outside 0..3")
    u12 = poses.fold_axes[0]
    a = math.pi / 2 - math.atan2(u12[1], u12[0])
    mesh = plate_meshes(a, poses.m)[plate]
    if not 0 <= corner < len(mesh.vertices):
        raise IndexError(f"corner index {corner!r} outside the plate polygon")
    return poses.poses[plate].apply(mesh.vertices[corner])


def pad_polygons(polys) -> np.ndarray:
    """Stack polygons into one (n, v, 3) array, v the largest vertex count.

    A shorter polygon is padded by repeating its last vertex. That leaves
    every projection interval unchanged and only adds zero-length edges,
    whose axes the margin kernels mask out, so padded rows give the same
    margins as the polygons themselves.
    """
    vmax = max(len(p) for p in polys)
    return np.stack(
        [
            p if len(p) == vmax else np.vstack([p, np.repeat(p[-1:], vmax - len(p), axis=0)])
            for p in polys
        ]
    )


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, with the products and differences of np.cross.

    Skips np.cross's axis handling and copies, which dominate its cost on
    the small stacks of the collision step; the result is bit-identical.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _unit_rows(axes: np.ndarray) -> tuple:
    """Normalize candidate axes along the last dimension; mask degenerate ones."""
    norms = np.sqrt((axes * axes).sum(axis=-1))
    keep = norms > 1e-12
    return axes / np.where(keep, norms, 1.0)[..., None], keep


def plate_axes(P: np.ndarray) -> tuple:
    """Each polygon's own candidate separating axes, for an (n, v, 3) stack.

    Returns (axes, keep, edges): axes is (n, v + 1, 3), the unit face
    normal followed by the unit in-plane edge normals n x e; keep masks the
    axes of zero-length (padding) edges; edges is the (n, v, 3) edge stack.
    """
    edges = np.roll(P, -1, axis=1) - P
    normal = _cross(edges[:, 0], edges[:, 1])
    axes, keep = _unit_rows(
        np.concatenate([normal[:, None, :], _cross(normal[:, None, :], edges)], axis=1)
    )
    return axes, keep, edges


def polygon_margins_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Separating-axis margins of many polygon pairs: A, B are (n, v, 3) stacks.

    Projects both vertex sets of each pair onto the candidate separating
    axes (both face normals, all edge-edge cross products, and the
    in-plane edge normals that settle coplanar layouts) and returns the
    best gap found per pair. Rows must hold convex planar polygons with
    matching vertex counts, padded as pad_polygons does. The first two
    edges of each polygon must be independent (they define its normal).
    """
    axA, keepA, eA = plate_axes(A)
    axB, keepB, eB = plate_axes(B)
    npairs = A.shape[0]
    cross, keepC = _unit_rows(
        _cross(eA[:, :, None, :], eB[:, None, :, :]).reshape(npairs, -1, 3)
    )
    axes = np.concatenate([axA[:, :1], axB[:, :1], axA[:, 1:], cross, axB[:, 1:]], axis=1)
    keep = np.concatenate(
        [keepA[:, :1], keepB[:, :1], keepA[:, 1:], keepC, keepB[:, 1:]], axis=1
    )
    pa = np.einsum("pvd,pad->pva", A, axes)
    pb = np.einsum("pvd,pad->pva", B, axes)
    gaps = np.maximum(
        pb.min(axis=1) - pa.max(axis=1), pa.min(axis=1) - pb.max(axis=1)
    )
    return np.where(keep, gaps, -np.inf).max(axis=1)


def plate_axis_bounds(P: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Lower bound on polygon_margins_batch(P[I], P[J]), from per-plate axes.

    P is an (n, v, 3) stack of convex planar polygons padded as
    pad_polygons does; I and J index its rows. The bound is the best gap
    over the axes of plate_axes for both polygons of a pair, a subset of
    the kernel's candidate axes, so it never exceeds the kernel's margin
    (up to rounding: the projections here use a different routine). Every
    polygon is projected onto every polygon's axes in one product, which
    costs O(n^2) dot products but no per-pair gathering.
    """
    axes, keep, _ = plate_axes(P)
    n, v, _ = P.shape
    # proj[j, k, i, a]: vertex k of polygon j on axis a of polygon i.
    proj = (P.reshape(-1, 3) @ axes.reshape(-1, 3).T).reshape(n, v, n, -1)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    diag = np.arange(n)
    # A masked axis gets an unbounded own interval, so its gap is -inf.
    own_lo = np.where(keep, lo[diag, diag], -np.inf)
    own_hi = np.where(keep, hi[diag, diag], np.inf)
    # gap[j, i]: best gap of polygon j against polygon i on polygon i's axes.
    gap = np.maximum(lo - own_hi[None], own_lo[None] - hi).max(axis=2)
    return np.maximum(gap[J, I], gap[I, J])
