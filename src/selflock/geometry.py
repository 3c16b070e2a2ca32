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

from .linkage import (
    CentralAngles,
    Configuration,
    DomainError,
    JointState,
    _check_length,
    theta3_up,
    theta4_up,
)

# Plate edge m of a unit in mm, and the vertex-corner trim of its
# collision polygons in mm.
M_DEFAULT = 25.0
_TRIM_MM = 2.0


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


def _axis_terms(axis) -> tuple:
    """(k k^T, [k]x) of the unit vector k along axis; a zero axis is rejected.

    [k]x is the cross-product matrix, [k]x v = k x v.
    """
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise DomainError("rotation axis must be nonzero")
    x, y, z = k = axis / n
    return np.multiply.outer(k, k), np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation matrix about an arbitrary axis (Rodrigues form)."""
    return _rodrigues(*_axis_terms(axis), angle)


def _rodrigues(outer, cross, angle) -> np.ndarray:
    """Rotations by angle about unit axes k given as k k^T and [k]x.

    R = (1 - cos) k k^T + sin [k]x + cos I for (..., 3, 3) axis terms and
    an angle of their leading shape. Each entry is the same float
    expression however many rotations are built at once.
    """
    c, s = np.cos(angle), np.sin(angle)
    r = outer * (1.0 - c)[..., None, None] + cross * s[..., None, None]
    r.reshape(-1, 9)[:, ::4] += c.reshape(-1, 1)
    return r


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
        # One short-circuit chain: each Gram term within 1e-9 of the
        # identity's, then det >= 0. A NaN entry fails every comparison.
        (a, b, c), (d, e, f), (g, h, i), _ = self.rt.tolist()
        if not (
            -1e-9 <= a * a + b * b + c * c - 1.0 <= 1e-9
            and -1e-9 <= d * d + e * e + f * f - 1.0 <= 1e-9
            and -1e-9 <= g * g + h * h + i * i - 1.0 <= 1e-9
            and -1e-9 <= a * d + b * e + c * f <= 1e-9
            and -1e-9 <= a * g + b * h + c * i <= 1e-9
            and -1e-9 <= d * g + e * h + f * i <= 1e-9
            and a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) >= 0.0
        ):
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

    @classmethod
    def _of(cls, rt: np.ndarray) -> "Pose":
        """The pose over a (4, 3) float array rt, which it takes as its own.

        Skips __init__'s conversions and copy, not the check.
        """
        pose = object.__new__(cls)
        object.__setattr__(pose, "rt", rt)
        pose.__post_init__()
        return pose

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point or an (n, 3) stack of points."""
        return np.asarray(points, dtype=float) @ self.r.T + self.t

    def compose(self, other: "Pose") -> "Pose":
        """This pose applied after `other` (self o other)."""
        rt, ort = self.rt, other.rt
        r = rt[:3]
        out = np.empty((4, 3))
        # r @ other.r written in place: the same product, one copy fewer.
        np.matmul(r, ort[:3], out=out[:3])
        out[3] = r @ ort[3] + rt[3]
        return Pose._of(out)

    def inverse(self) -> "Pose":
        rinv = self.rt[:3].T
        out = np.empty((4, 3))
        out[:3] = rinv
        out[3] = -(rinv @ self.rt[3])
        return Pose._of(out)


class _RowPose(Pose):
    """A Pose over one row of an (m, 4, 3) block it shares with other poses.

    It holds no array of its own: rt is a view made on each access. A run
    with include_poses keeps a Pose per moving plate per frame; without an
    array object per Pose, a translational preset trajectory takes about
    30% less memory.
    """

    __slots__ = ("_block", "_row")

    @property
    def rt(self) -> np.ndarray:
        return self._block[self._row]

    def __reduce__(self):
        # A copy or pickle is a plain Pose: rt has no slot to restore.
        return Pose, (self.r.copy(), self.t.copy())

    @classmethod
    def rows(cls, block: np.ndarray) -> tuple:
        """A checked pose over each row of block, which they take as theirs."""
        poses = []
        for i in range(len(block)):
            pose = object.__new__(cls)
            object.__setattr__(pose, "_block", block)
            object.__setattr__(pose, "_row", i)
            pose.__post_init__()
            poses.append(pose)
        return tuple(poses)


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
    _check_length("m", m)
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
    return (
        PlateMesh(p1, a, True),
        PlateMesh(p2, a, True),
        PlateMesh(p3, math.pi / 2, False),
        PlateMesh(_square(m), math.pi / 2, False),
    )


def _square(side: float) -> np.ndarray:
    """The plate-4 square: x in [-side, 0], y in [0, side], vertex first."""
    return np.array(
        [[0.0, 0.0, 0.0], [0.0, side, 0.0], [-side, side, 0.0], [-side, 0.0, 0.0]]
    )


def trim_corner(mesh: PlateMesh) -> PlateMesh:
    """Cut the vertex corner back by 2 mm along both adjacent edges.

    Collision meshes use this to keep the always-touching shared corner of
    the plates from registering as contact; it never enters kinematics.
    """
    v = mesh.vertices
    e_next = v[1] - v[0]
    e_prev = v[-1] - v[0]
    ln, lp = np.linalg.norm(e_next), np.linalg.norm(e_prev)
    if not _TRIM_MM < min(ln, lp):
        raise DomainError(f"the {_TRIM_MM} mm trim must be shorter than both vertex edges")
    a = v[0] + _TRIM_MM * e_prev / lp
    b = v[0] + _TRIM_MM * e_next / ln
    return PlateMesh(np.vstack([a, b, v[1:]]), mesh.central_angle, mesh.cut)


@dataclass(frozen=True, eq=False)
class UnitPoseSet:
    """World placement of the four plates of one unit at a joint state.

    poses are pure rotations about the shared vertex (plate 1 is identity);
    fold_axes are the world directions of u12, u23, u34, u41; m and alpha
    record the unit size and plate angle so plate corners can be resolved.
    """

    poses: tuple
    fold_axes: tuple
    joint_state: JointState
    m: float
    alpha: float


@functools.lru_cache(maxsize=128, typed=True)
def _unit_constants(alpha: float) -> tuple:
    """What the unit kinematics needs of alpha alone, validated and computed once.

    Returns the local fold directions u12, u23 and u34, their Rodrigues
    terms as rotation_about computes them, the fixed rotation that moves
    plate 4 from its chain-side layout to the ground-aligned one, and the
    cos(alpha) and sin(alpha) of the closed-form joint angles. Every caller
    shares these arrays, so they are read-only. An invalid alpha raises
    here, and lru_cache keeps no entry for a call that raised. The cache is
    typed: True equals 1.0 and hashes alike, so an untyped cache would hand
    a bool alpha the entry of 1.0 and skip its check.
    """
    CentralAngles.self_lock(alpha)
    dirs = tuple(
        _read_only(_e(phi))
        for phi in (math.pi / 2 - alpha, math.pi / 2 - 2 * alpha, -2 * alpha)
    )
    relayout = _read_only(rotation_about(ZHAT, -2 * alpha - math.pi))
    closed = (math.cos(alpha), math.sin(alpha))
    return dirs, tuple(_axis_terms(d) for d in dirs), relayout, closed


class UnitKinematics:
    """The array kinematic core: n units' constants, stacked over units.

    Built once per manipulator from its units' alphas and branches; each
    call then places the four plates of every unit at a vector of theta1
    values with one evaluation of the closed forms and one batch of
    rotations. unit_poses is its n = 1 view, so a unit gets the same bytes
    alone or in a batch of any size.
    """

    def __init__(self, alphas, configs):
        consts = [_unit_constants(a) for a in alphas]
        n = len(consts)
        # The Rodrigues terms k k^T and [k]x of the fold axes u12, u23 and
        # u34, each a (3, n, 3, 3) stack: axis, then unit.
        terms = np.array([c[1] for c in consts]).transpose(2, 1, 0, 3, 4)
        self._outer, self._cross = np.ascontiguousarray(terms)
        self._relayout = np.array([c[2] for c in consts])
        self._cos, self._sin = np.array([c[3] for c in consts]).T
        # The Down mirror diag(1, 1, -1) R diag(1, 1, -1) as R * signs + zero
        # per unit. Up units take signs 1 and zero -0.0, which leave every
        # float as it is. Down units take zero +0.0: at theta1 = 0 some
        # entries are +0.0, and a sign flip makes them -0.0 where the matrix
        # product gives +0.0.
        down = np.array([c is Configuration.DOWN for c in configs])[:, None, None, None]
        self._signs = np.where(down, _MIRROR_SIGNS, 1.0)
        self._zero = np.where(down, 0.0, -0.0)
        # Plate 1 is the identity in every unit; every translation is zero.
        self._blank = np.zeros((n, 4, 4, 3))
        self._blank[:, 0, :3] = _EYE

    def rotations(self, theta1) -> tuple:
        """(rt, theta4, theta3) of the units at their n theta1 values.

        rt is (n, 4, 4, 3): rt[u, k] is the (4, 3) Pose array of plate k of
        unit u, a pure rotation about the shared vertex, with plate 1 the
        identity. Plate 2 rotates by theta1 about u12; plates 3 and 4 follow
        by theta2 (= theta4) about u23 and theta3 about u34, each axis
        carried along by the chain. theta4 and theta3 are the Up-branch
        values the chain rotates by on either branch.
        """
        theta1 = np.asarray(theta1, dtype=float)
        t4 = theta4_up(self._cos, theta1)
        t3 = theta3_up(self._cos, self._sin, theta1)
        r12, r23, r34 = _rodrigues(self._outer, self._cross, -np.array((theta1, t4, t3)))
        rt = self._blank.copy()
        rt[:, 1, :3] = r12
        rt[:, 2, :3] = r13 = r12 @ r23
        rt[:, 3, :3] = r13 @ r34 @ self._relayout
        moved = rt[:, 1:, :3]
        moved *= self._signs
        moved += self._zero
        return rt, t4, t3


@functools.lru_cache(maxsize=128, typed=True)
def _one_unit(alpha: float, config: Configuration) -> UnitKinematics:
    return UnitKinematics((alpha,), (config,))


def unit_poses(
    alpha: float, theta1: float, config: Configuration, m: float = M_DEFAULT
) -> UnitPoseSet:
    """Forward kinematics of one unit: place all four plates for a theta1.

    The one-unit view of UnitKinematics.rotations. Plate 4's returned pose
    is expressed over its ground-aligned local layout (the one spanning
    u41 = +y), so at any valid state it equals a pure rotation about u41 by
    the signed theta4. The fold axes u12 and u41 are shared read-only
    arrays.
    """
    (u12, u23l, u34l), _, _, _ = _unit_constants(alpha)
    rt, t4, t3 = _one_unit(alpha, config).rotations((theta1,))
    poses = tuple(Pose._of(p) for p in rt[0])
    sgn = config.sign
    t4, t3 = float(sgn * t4[0]), float(sgn * t3[0])
    axes = (u12, poses[1].r @ u23l, poses[2].r @ u34l, YHAT)
    return UnitPoseSet(poses, axes, JointState(theta1, t4, t3, t4, config), m, alpha)


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
    a = poses.alpha
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
    mesh = plate_meshes(poses.alpha, poses.m)[plate]
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
    normal = np.cross(edges[:, 0], edges[:, 1])
    axes, keep = _unit_rows(
        np.concatenate([normal[:, None, :], np.cross(normal[:, None, :], edges)], axis=1)
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
        np.cross(eA[:, :, None, :], eB[:, None, :, :]).reshape(npairs, -1, 3)
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


def plate_axis_bounds(
    P: np.ndarray, axes: np.ndarray, keep: np.ndarray, I: np.ndarray, J: np.ndarray
) -> np.ndarray:
    """Lower bound on polygon_margins_batch(P[I], P[J]), from per-plate axes.

    P is an (n, v, 3) stack of convex planar polygons padded as
    pad_polygons does; I and J index its rows. axes and keep are each
    polygon's own candidate axes and their mask: plate_axes(P)'s, or, in a
    manipulator run, axes resolved in each plate's own frame and turned
    with its vertices, which equal them up to rounding. The bound is the
    best gap over these axes for both polygons of a pair, a subset of the
    kernel's candidate axes, so it never exceeds the kernel's margin (up
    to rounding: the kernel derives its axes from the vertices and
    projects with a different routine). Every polygon is projected onto
    every polygon's axes in one product, which costs O(n^2) dot products
    but no per-pair gathering.

    The projection is laid out axis-major, polygon i last, so that the
    vertex and axis reductions run over middle axes with a long contiguous
    inner loop instead of over a last axis of length v + 1. Min, max and
    the gaps are exact, so the layout leaves every bound's bits unchanged.
    """
    n, v, _ = P.shape
    # proj[j, k, a, i]: vertex k of polygon j on axis a of polygon i.
    proj = (P.reshape(-1, 3) @ axes.transpose(2, 1, 0).reshape(3, -1)).reshape(n, v, -1, n)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    diag = np.arange(n)
    # own_lo[a, i]: polygon i on its own axis a. A masked axis gets an
    # unbounded own interval, so its gap is -inf.
    own_lo = np.where(keep.T, lo[diag, :, diag].T, -np.inf)
    own_hi = np.where(keep.T, hi[diag, :, diag].T, np.inf)
    # gap[j, i]: best gap of polygon j against polygon i on polygon i's
    # axes, written in place over lo and hi, since further (n, v + 1, n)
    # temporaries fall out of cache past about 20 units.
    lo -= own_hi
    np.subtract(own_lo, hi, out=hi)
    gap = np.maximum(lo, hi, out=lo).max(axis=1)
    return np.maximum(gap[J, I], gap[I, J])
