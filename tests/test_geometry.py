"""Plate polygons, unit forward kinematics, and the collision predicate."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selflock import (
    Configuration,
    DomainError,
    PlateMesh,
    Pose,
    loop_closure_error,
    marker_position,
    mpf_theta1,
    plate_meshes,
    polygon_margins_batch,
    rotation_about,
    trim_corner,
    unit_poses,
)
from selflock.geometry import UnitKinematics, pad_polygons, plate_axes, plate_axis_bounds
from selflock.linkage import joint_state
from selflock.manipulator import UnitSpec, build, preset_modular

UP = Configuration.UP
DOWN = Configuration.DOWN
YHAT = np.array([0.0, 1.0, 0.0])


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        Pose(2.0 * np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="orthonormal"):
        Pose(np.full((3, 3), np.nan), np.zeros(3))
    # One bad entry, placed after the Gram terms that stay finite.
    r = np.eye(3)
    r[2, 2] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        Pose(r, np.zeros(3))
    r[2, 2] = np.inf
    with pytest.raises(ValueError, match="orthonormal"):
        Pose(r, np.zeros(3))


def test_pose_check_matches_numpy():
    # The check runs on plain floats; numpy's Gram matrix and determinant
    # are the reference, on rotations perturbed across the 1e-9 tolerance
    # and on reflections.
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = rotation_about(rng.normal(size=3), rng.uniform(-3, 3))
        r = r @ np.diag(rng.choice([1.0, -1.0], size=3))
        r = r + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-12, -7)
        ok = np.abs(r @ r.T - np.eye(3)).max() <= 1e-9 and np.linalg.det(r) >= 0.0
        try:
            Pose(r, np.zeros(3))
            accepted = True
        except ValueError as exc:
            assert "orthonormal with det +1" in str(exc)
            accepted = False
        assert accepted == ok


def test_pose_compose_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rotation_about(rng.normal(size=3), rng.uniform(-3, 3))
        p = Pose(r, rng.normal(size=3) * 10)
        ident = p.compose(p.inverse())
        assert np.abs(ident.r - np.eye(3)).max() < 1e-12
        assert np.abs(ident.t).max() < 1e-12
        x = rng.normal(size=(5, 3))
        assert np.abs(p.inverse().apply(p.apply(x)) - x).max() < 1e-10


def test_pose_compose_order():
    a = Pose(rotation_about([0, 0, 1], math.pi / 2), np.array([1.0, 0.0, 0.0]))
    b = Pose(np.eye(3), np.array([0.0, 2.0, 0.0]))
    # (a o b) applies b first: point 0 -> (0,2,0) -> rotated (-2,0,0) + (1,0,0).
    assert np.allclose(a.compose(b).apply(np.zeros(3)), [-1.0, 0.0, 0.0])


def test_rotation_about():
    R = rotation_about([0.0, 0.0, 1.0], math.pi / 2)
    assert np.allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])
    assert np.allclose(R @ R.T, np.eye(3))
    assert np.linalg.det(R) == pytest.approx(1.0)
    # Axis length does not matter.
    assert np.allclose(R, rotation_about([0.0, 0.0, 5.0], math.pi / 2))
    with pytest.raises(DomainError):
        rotation_about([0.0, 0.0, 0.0], 1.0)


def test_plate_meshes_frozen_at_89():
    p1, p2, p3, p4 = plate_meshes(math.radians(89), 25.0)
    assert np.allclose(
        p1.vertices,
        [[0, 0, 0], [25, 0.4363766232054418, 0], [25, 25, 0], [0, 25, 0]],
        atol=1e-9,
    )
    assert np.allclose(
        p4.vertices, [[0, 0, 0], [0, 25, 0], [-25, 25, 0], [-25, 0, 0]], atol=1e-12
    )
    assert p1.cut and p2.cut
    assert not p3.cut and not p4.cut


def test_plate_meshes_structure():
    for a in (70, 80, 89):
        meshes = plate_meshes(math.radians(a), 25.0)
        for mesh in meshes:
            v = mesh.vertices
            assert np.allclose(v[0], 0.0)
            assert np.allclose(v[:, 2], 0.0)
            # Counterclockwise winding in the plane.
            area = 0.5 * np.cross(v, np.roll(v, -1, axis=0)).sum(axis=0)[2]
            assert area > 0
            # Interior angle at the shared vertex matches the central angle.
            e1 = v[1] - v[0]
            e2 = v[-1] - v[0]
            cosang = e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2))
            assert math.acos(cosang) == pytest.approx(mesh.central_angle, abs=1e-12)
        assert meshes[0].central_angle == pytest.approx(math.radians(a))
        assert meshes[2].central_angle == pytest.approx(math.pi / 2)


def test_plate_meshes_validation():
    with pytest.raises(DomainError):
        plate_meshes(math.radians(40), 25.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^m = "):
            plate_meshes(math.radians(80), bad)


def test_trim_corner():
    mesh = plate_meshes(math.radians(80), 25.0)[3]
    trimmed = trim_corner(mesh)
    assert len(trimmed.vertices) == len(mesh.vertices) + 1
    assert np.linalg.norm(trimmed.vertices[0] - mesh.vertices[0]) == pytest.approx(2.0)
    assert np.linalg.norm(trimmed.vertices[1] - mesh.vertices[0]) == pytest.approx(2.0)
    assert np.allclose(trimmed.vertices[2:], mesh.vertices[1:])
    with pytest.raises(DomainError):
        trim_corner(plate_meshes(math.radians(80), 1.5)[3])


def test_unit_poses_basics():
    ps = unit_poses(math.radians(85), math.radians(40), UP)
    assert np.allclose(ps.poses[0].r, np.eye(3))
    assert np.allclose(ps.poses[0].t, 0.0)
    for pose in ps.poses:
        assert np.allclose(pose.t, 0.0)
    for axis in ps.fold_axes:
        assert np.linalg.norm(axis) == pytest.approx(1.0)
    assert np.allclose(ps.fold_axes[3], YHAT)
    assert ps.m == 25.0


def test_unit_poses_plate4_rotates_about_ground_fold():
    # Plate 4's pose must be a pure rotation about u41 = +y by theta4.
    for a in (70, 80, 89):
        for t1 in (0.0, math.radians(40), math.radians(-100)):
            for config in (UP, DOWN):
                ps = unit_poses(math.radians(a), t1, config)
                expect = rotation_about(YHAT, ps.joint_state.theta4)
                assert np.abs(ps.poses[3].r - expect).max() < 1e-12


def test_unit_poses_down_mirrors_up():
    mir = np.diag([1.0, 1.0, -1.0])
    up = unit_poses(math.radians(80), math.radians(55), UP)
    dn = unit_poses(math.radians(80), math.radians(55), DOWN)
    for pu, pd in zip(up.poses, dn.poses):
        assert np.abs(pd.r - mir @ pu.r @ mir).max() < 1e-12


def _rotation_reference(axis, angle):
    """Rodrigues' rotation entry by entry in Python floats."""
    x, y, z = (np.asarray(axis, dtype=float) / np.linalg.norm(axis)).tolist()
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: sum(x * x for x in v) > 1e-6
    ),
    st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-4.0, 4.0),
)
def test_rotation_about_bytes_match_scalar_reference(axis, angle):
    assert rotation_about(axis, angle).tobytes() == _rotation_reference(axis, angle).tobytes()


def _unit_poses_reference(alpha, theta1, config):
    """unit_poses written out as four scalar Rodrigues rotations and a
    mirror by matrix products: rotations and fold axes."""
    state = joint_state(alpha, theta1, config)
    u12, u23l, u34l = (
        np.array([math.cos(phi), math.sin(phi), 0.0])
        for phi in (math.pi / 2 - alpha, math.pi / 2 - 2 * alpha, -2 * alpha)
    )
    R2 = _rotation_reference(u12, -theta1)
    R3 = R2 @ _rotation_reference(u23l, -(config.sign * state.theta2))
    R4c = R3 @ _rotation_reference(u34l, -(config.sign * state.theta3))
    R4 = R4c @ _rotation_reference([0.0, 0.0, 1.0], -2 * alpha - math.pi)
    rots = [np.eye(3), R2, R3, R4]
    if config is DOWN:
        mir = np.diag([1.0, 1.0, -1.0])
        rots = [mir @ R @ mir for R in rots]
    return rots, (u12, rots[1] @ u23l, rots[2] @ u34l, YHAT)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(math.pi / 4, math.pi / 2, exclude_min=True, exclude_max=True),
    st.floats(-math.pi, math.pi),
    st.sampled_from([UP, DOWN]),
)
@example(math.radians(89), 0.0, DOWN)
@example(math.radians(89), -0.0, DOWN)
def test_unit_poses_bytes_match_rotation_about_chain(alpha, theta1, config):
    ps = unit_poses(alpha, theta1, config)
    rots, axes = _unit_poses_reference(alpha, theta1, config)
    for pose, R in zip(ps.poses, rots):
        assert pose.rt.tobytes() == np.vstack([R, np.zeros(3)]).tobytes()
    for got, want in zip(ps.fold_axes, axes):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(math.pi / 4, math.pi / 2, exclude_min=True, exclude_max=True),
            st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
            st.sampled_from([UP, DOWN]),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_unit_kinematics_batch_size_independent(units):
    # Every numpy routine of the core runs once over all units; a SIMD path
    # whose results depended on the array length would show here.
    alphas, thetas, configs = zip(*units)
    batch = UnitKinematics(alphas, configs)
    rt, t4, t3 = batch.rotations(thetas)
    for u, (alpha, theta1, config) in enumerate(units):
        ps = unit_poses(alpha, theta1, config)
        assert rt[u].tobytes() == b"".join(p.rt.tobytes() for p in ps.poses)
        st_ = ps.joint_state
        assert (st_.theta2, st_.theta3, st_.theta4) == (
            config.sign * t4[u], config.sign * t3[u], config.sign * t4[u]
        )
        assert loop_closure_error(ps) < 1e-9


def test_loop_closure_at_fold_over():
    # Next to theta1 = pi the full-angle cosine argument of theta3 rounds to
    # -1, where arccos has an infinite slope; that form missed closure here
    # by sqrt(2 eps) = 1.5e-8 rad. The half-angle form stays conditioned.
    ps = unit_poses(1.0625, math.pi - 1e-15, UP)
    assert loop_closure_error(ps) < 1e-9


def test_loop_closure_at_flat_foldable_limit():
    # Next to alpha = pi/2 with theta1 -> 0 the half-angle arccos argument
    # of theta3 rounds to 1; that form gave theta3 = 0 here, not 1.0198e-8,
    # and missed closure by 1.0e-8 rad. The atan2 form stays conditioned.
    for config in (UP, DOWN):
        ps = unit_poses(math.pi / 2 - 1e-9, 1e-8, config)
        assert loop_closure_error(ps) < 1e-15


def test_unit_poses_cache_keeps_constants_and_errors():
    alpha, theta1 = math.radians(83), math.radians(20)
    first = unit_poses(alpha, theta1, DOWN)
    want = [ax.tobytes() for ax in first.fold_axes]
    for ax in first.fold_axes:
        try:
            ax *= -2.0
        except ValueError:  # a read-only array shared between calls
            pass
    again = unit_poses(alpha, theta1, DOWN)
    assert [ax.tobytes() for ax in again.fold_axes] == want
    # An invalid alpha raises on every call, not only the first.
    for _ in range(2):
        for bad in (math.radians(95), math.radians(45), math.nan):
            with pytest.raises(DomainError, match="alpha"):
                unit_poses(bad, theta1, UP)


def test_loop_closure_error_small_everywhere():
    for a in (61, 75, 89):
        for t1 in range(-170, 171, 10):
            for config in (UP, DOWN):
                ps = unit_poses(math.radians(a), math.radians(t1), config)
                assert loop_closure_error(ps) < 1e-9


def test_loop_closure_error_detects_bad_state():
    ps = unit_poses(math.radians(85), math.radians(40), UP)
    bad_state = dataclasses.replace(
        ps.joint_state, theta3=ps.joint_state.theta3 + math.radians(1)
    )
    bad = dataclasses.replace(ps, joint_state=bad_state)
    assert loop_closure_error(bad) > 1e-3


def test_marker_position_frozen():
    ps = unit_poses(math.radians(89), 0.0, UP)
    assert np.allclose(marker_position(ps), [0.0, 25.0, 25.0], atol=1e-9)
    assert np.allclose(
        marker_position(ps, (3, 2)), marker_position(ps), atol=1e-12
    )
    with pytest.raises(IndexError):
        marker_position(ps, (4, 0))
    with pytest.raises(IndexError):
        marker_position(ps, (0, 9))


def test_marker_position_exact_at_pose_set_alpha():
    # The corner comes from the plate mesh at the pose set's own alpha. At
    # this alpha pi/2 - atan2(u12) is 1 ulp off, which would move the
    # corner by 3.6e-15 mm.
    alpha = math.radians(55.604)
    ps = unit_poses(alpha, math.radians(40), UP)
    assert ps.alpha == alpha
    want = ps.poses[0].apply(plate_meshes(alpha, ps.m)[0].vertices[1])
    assert marker_position(ps, (0, 1)).tobytes() == want.tobytes()


def test_mpf_marker_independent_of_alpha():
    # At the MPF state |theta4| = gamma for every alpha, so the output
    # plate pose and its marker corner are alpha independent.
    gamma = math.radians(36.5)
    marks = []
    for a in (80, 85, 89):
        t1 = mpf_theta1(math.radians(a), gamma)
        marks.append(marker_position(unit_poses(math.radians(a), t1, UP)))
    expect = rotation_about(YHAT, gamma) @ np.array([-25.0, 25.0, 0.0])
    for mk in marks:
        assert np.abs(mk - marks[0]).max() < 1e-9
        assert np.allclose(mk, expect, atol=1e-9)


def _square(side=25.0):
    return np.array(
        [[0.0, 0.0, 0.0], [side, 0.0, 0.0], [side, side, 0.0], [0.0, side, 0.0]]
    )


def _margin(A, B):
    """Separating-axis margin of one polygon pair through the batch kernel."""
    P = pad_polygons([A, B])
    return polygon_margins_batch(P[:1], P[1:])[0]


def test_polygon_margin_coplanar_gap():
    A = _square()
    B = _square() + np.array([35.0, 0.0, 0.0])
    assert _margin(A, B) == pytest.approx(10.0, abs=1e-9)


def test_polygon_margin_parallel_offset():
    A = _square()
    B = _square() + np.array([0.0, 0.0, 3.0])
    assert _margin(A, B) == pytest.approx(3.0, abs=1e-9)


def test_polygon_margin_overlap_and_crossing():
    A = _square()
    assert _margin(A, A.copy()) <= 0.0
    B = np.array(
        [[10.0, 5.0, -5.0], [10.0, 20.0, -5.0], [10.0, 20.0, 5.0], [10.0, 5.0, 5.0]]
    )
    assert _margin(A, B) <= 0.0


def test_plates_collide_thresholds():
    meshA = PlateMesh(_square(), math.pi / 2, False)
    meshB = PlateMesh(_square() + np.array([35.0, 0.0, 0.0]), math.pi / 2, False)
    ident = Pose.identity()
    margin = _margin(ident.apply(meshA.vertices), ident.apply(meshB.vertices))
    assert margin == pytest.approx(10.0)
    # A pair blocks a step when its margin is at or below the clearance.
    assert not margin <= 1.0
    assert margin <= 10.5


def _pentagon(radius=15.0):
    ang = 2 * math.pi * np.arange(5) / 5
    return np.stack(
        [radius * np.cos(ang), radius * np.sin(ang), np.zeros(5)], axis=1
    )


def _reference_margin(A, B):
    """Separating-axis margin by a loop over the explicit candidate axes."""
    eA = [A[(k + 1) % len(A)] - A[k] for k in range(len(A))]
    eB = [B[(k + 1) % len(B)] - B[k] for k in range(len(B))]
    nA, nB = np.cross(eA[0], eA[1]), np.cross(eB[0], eB[1])
    candidates = [nA, nB]
    candidates += [np.cross(nA, e) for e in eA] + [np.cross(nB, e) for e in eB]
    candidates += [np.cross(a, b) for a in eA for b in eB]
    best = -math.inf
    for axis in candidates:
        norm = math.sqrt(float(axis @ axis))
        if norm <= 1e-12:
            continue
        pa, pb = A @ (axis / norm), B @ (axis / norm)
        best = max(best, pb.min() - pa.max(), pa.min() - pb.max())
    return best


def test_polygon_margins_batch_matches_single():
    rng = np.random.default_rng(0)
    quads, pents = [], []
    for _ in range(40):
        ra = rotation_about(rng.normal(size=3), rng.uniform(-3, 3))
        rb = rotation_about(rng.normal(size=3), rng.uniform(-3, 3))
        quads.append(_square(rng.uniform(5, 30)) @ ra.T + rng.normal(size=3) * 20)
        pents.append(_pentagon(rng.uniform(5, 20)) @ rb.T + rng.normal(size=3) * 20)
    reference = np.array([_reference_margin(a, b) for a, b in zip(quads, pents)])
    # Pad the quads to the pentagon vertex count by repeating the last vertex.
    padded = np.stack([np.vstack([q, q[-1:]]) for q in quads])
    batch = polygon_margins_batch(padded, np.stack(pents))
    assert np.abs(batch - reference).max() < 1e-9
    singles = np.array([_margin(a, b) for a, b in zip(quads, pents)])
    assert np.abs(singles - reference).max() < 1e-9


_LAYOUTS = ("free", "coplanar", "parallel", "near-coplanar", "near-parallel")


@st.composite
def _placed_pair(draw):
    """A quad and a pentagon in one of several relative layouts, then a
    shared random rigid motion; the near layouts sit within 1 um."""
    side = draw(st.floats(5.0, 30.0))
    radius = draw(st.floats(5.0, 20.0))
    layout = draw(st.sampled_from(_LAYOUTS))
    vec = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: sum(x * x for x in v) > 1e-2
    )
    angle = st.floats(-3.0, 3.0)
    quad, pent = _square(side), _pentagon(radius)
    if layout == "free":
        rb = rotation_about(draw(vec), draw(angle))
        pent = pent @ rb.T + 40.0 * np.array(draw(vec))
    else:
        near = layout.startswith("near")
        gap = draw(st.floats(-1e-6, 1e-6)) if near else draw(st.floats(0.0, 20.0))
        cy = draw(st.floats(0.0, side))
        if layout.endswith("coplanar"):
            # The pentagon's leftmost vertices sit at x = -cos(36 deg) r.
            cx = side + math.cos(math.pi / 5) * radius + gap
            pent = pent + np.array([cx, cy, 0.0])
        else:
            pent = pent + np.array([draw(st.floats(-20.0, 40.0)), cy, gap])
    r = rotation_about(draw(vec), draw(angle))
    t = 20.0 * np.array(draw(vec))
    return quad @ r.T + t, pent @ r.T + t


@settings(max_examples=300, deadline=None)
@given(_placed_pair())
def test_plate_axis_bound_never_exceeds_margin(pair):
    P = pad_polygons(list(pair))
    margin = polygon_margins_batch(P[:1], P[1:])[0]
    axes, keep, _ = plate_axes(P)
    both = plate_axis_bounds(P, axes, keep, np.array([0, 1]), np.array([1, 0]))
    assert both[0] == both[1]
    assert both[0] <= margin + 1e-12


def _all_to_all_axis_bounds(P, I, J):
    """plate_axis_bounds in its first layout, polygon-major with the axes
    last; the axis-major layout must give the same bits."""
    axes, keep, _ = plate_axes(P)
    n, v, _ = P.shape
    proj = (P.reshape(-1, 3) @ axes.reshape(-1, 3).T).reshape(n, v, n, -1)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    diag = np.arange(n)
    own_lo = np.where(keep, lo[diag, diag], -np.inf)
    own_hi = np.where(keep, hi[diag, diag], np.inf)
    gap = np.maximum(lo - own_hi[None], own_lo[None] - hi).max(axis=2)
    return np.maximum(gap[J, I], gap[I, J])


@st.composite
def _modular_state(draw):
    """A modular chain of 1-16 units on either branch, and a state of it with
    every theta1 within 2 rad of its semi-flat value."""
    n = draw(st.integers(1, 16))
    units = tuple(
        UnitSpec(math.radians(draw(st.floats(50.0, 89.9))), draw(st.sampled_from((UP, DOWN))))
        for _ in range(n)
    )
    manip = build(preset_modular(units))
    thetas = [t + draw(st.floats(-2.0, 2.0)) for t in manip.semi_flat_thetas()]
    return manip, thetas


@settings(max_examples=60, deadline=None)
@given(_modular_state())
def test_plate_axis_bounds_matches_all_to_all_layout(state):
    manip, thetas = state
    P = pad_polygons(list(manip.world_vertices(thetas).values()))
    I, J = np.triu_indices(len(P), 1)
    axes, keep, _ = plate_axes(P)
    bounds = plate_axis_bounds(P, axes, keep, I, J)
    assert np.array_equal(bounds, _all_to_all_axis_bounds(P, I, J))


def _axis_bounds_fresh_temporaries(P, axes, keep, I, J):
    """plate_axis_bounds with its gaps in fresh (n, v + 1, n) temporaries,
    as the axis-major layout first wrote them."""
    n, v, _ = P.shape
    proj = (P.reshape(-1, 3) @ axes.transpose(2, 1, 0).reshape(3, -1)).reshape(n, v, -1, n)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    diag = np.arange(n)
    own_lo = np.where(keep.T, lo[diag, :, diag].T, -np.inf)
    own_hi = np.where(keep.T, hi[diag, :, diag].T, np.inf)
    gap = np.maximum(lo - own_hi, own_lo - hi).max(axis=1)
    return np.maximum(gap[J, I], gap[I, J])


def test_plate_axis_bounds_in_place_gaps_keep_bytes():
    # The gaps written in place are the same IEEE operations, so a run's
    # bounds keep their bytes, on stacks below and past the cache cliff.
    rng = np.random.default_rng(0)
    for n in (4, 16, 32):
        units = tuple(UnitSpec(math.radians(89), (UP, DOWN)[u % 2]) for u in range(n))
        manip = build(preset_modular(units))
        I, J = manip._pair_rows
        semi = np.array(manip.semi_flat_thetas())
        for thetas in (semi, semi + rng.uniform(-2.0, 2.0, n)):
            _, _, P, axes = manip._placed(thetas)
            got = plate_axis_bounds(P, axes, manip._keep, I, J)
            want = _axis_bounds_fresh_temporaries(P, axes, manip._keep, I, J)
            assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(_modular_state())
def test_placed_axes_match_world_axes(state):
    # Manipulator._placed turns each node's build-time axes with its
    # vertices; they must be the axes plate_axes derives from the placed
    # polygons, up to rounding, with the same mask.
    manip, thetas = state
    _, _, world, axes = manip._placed(thetas)
    expect, keep, _ = plate_axes(world)
    assert np.array_equal(manip._keep, keep)
    assert np.abs(axes - expect).max() < 1e-12


# sha256 of the build-time axes and mask, then the kernel margins of every
# candidate pair at the semi-flat state and one seeded state off it, of
# modular chains of 4 and 16 units, Up and Down alternating.
_KERNEL_SHA256 = "f47b4d44ebc053a69d638ba6b21e14ca8c268e0df16e6cd1936e4529bbf3cc44"


def test_margin_kernel_and_build_axes_bytes_pinned():
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for n in (4, 16):
        units = tuple(UnitSpec(math.radians(89), (UP, DOWN)[u % 2]) for u in range(n))
        manip = build(preset_modular(units))
        h.update(manip._local_axes.tobytes())
        h.update(manip._keep.tobytes())
        I, J = manip._pair_rows
        semi = np.array(manip.semi_flat_thetas())
        for thetas in (semi, semi + rng.uniform(-2.0, 2.0, n)):
            P = manip._placed(thetas)[2]
            h.update(polygon_margins_batch(P[I], P[J]).tobytes())
    assert h.hexdigest() == _KERNEL_SHA256
