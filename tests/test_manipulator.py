"""Manipulator assembly, presets, schedule runs, and trajectory export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflock import (
    ActivationSchedule,
    Base,
    BoundingPlate,
    Configuration,
    DomainError,
    MPF,
    ManipulatorSpec,
    Mode,
    OutputAngle,
    Phase,
    Pose,
    SemiFlat,
    SpecError,
    UnitSpec,
    Weld,
    build,
    pair_margins,
    polygon_margins_batch,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    spec_sha256,
    translational_link_lengths,
    workspace_projection,
)
from selflock.geometry import pad_polygons
from selflock.linkage import mpf_theta1
from selflock.manipulator import _collides, _node_rows

UP = Configuration.UP
DOWN = Configuration.DOWN
GAMMA = math.radians(36.5)


def _unit(a=89.0):
    return UnitSpec(math.radians(a), DOWN)


def _weld(parent, child, length=25.0):
    return Weld(parent, 3, child, 0, Pose(np.eye(3), np.array([-length, 0.0, 0.0])))


def test_unit_spec_validation():
    u = UnitSpec(math.radians(85), UP)
    assert u.plate_sizes == (25.0,) * 4
    u2 = UnitSpec(math.radians(85), UP, 25.0, (1.0, 2.0, 3.0, 4.0))
    assert u2.plate_sizes == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(DomainError):
        UnitSpec(math.radians(95), UP)
    with pytest.raises(DomainError):
        UnitSpec(math.radians(85), UP, -1.0)
    with pytest.raises(DomainError):
        UnitSpec(math.radians(85), UP, 25.0, (1.0, 2.0))
    with pytest.raises(DomainError):
        UnitSpec(math.radians(85), UP, 25.0, (1.0, -2.0, 3.0, 4.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="^m = "):
            UnitSpec(math.radians(85), UP, bad)
        with pytest.raises(DomainError, match="^plate_m = "):
            UnitSpec(math.radians(85), UP, 25.0, (1.0, bad, 3.0, 4.0))


def test_spec_json_round_trip():
    for spec in (
        preset_rotational(math.radians(89), math.radians(85)),
        preset_translational(math.radians(89), GAMMA, 25.0),
        preset_modular(tuple(_unit() for _ in range(4))),
    ):
        data = spec.to_json_dict()
        back = ManipulatorSpec.from_json_dict(data)
        assert spec_sha256(back) == spec_sha256(spec)
        assert back.marker == spec.marker
        assert len(back.units) == len(spec.units)
        # The round-tripped spec still builds.
        build(back)


def test_spec_json_malformed():
    good = preset_rotational(math.radians(89), math.radians(89)).to_json_dict()
    with pytest.raises(SpecError):
        ManipulatorSpec.from_json_dict({})
    bad = {**good, "units": [{"config": "up"}]}
    with pytest.raises(SpecError):
        ManipulatorSpec.from_json_dict(bad)
    bad = {**good, "units": [{**good["units"][0], "config": "sideways"}]}
    with pytest.raises(SpecError):
        ManipulatorSpec.from_json_dict(bad)
    bad = {**good, "connections": [{"kind": "rivet"}]}
    with pytest.raises(SpecError):
        ManipulatorSpec.from_json_dict(bad)


def test_spec_sha256_stable_and_sensitive():
    a = preset_rotational(math.radians(89), math.radians(89))
    b = preset_rotational(math.radians(89), math.radians(89))
    c = preset_rotational(math.radians(89), math.radians(85))
    assert spec_sha256(a) == spec_sha256(b)
    assert spec_sha256(a) != spec_sha256(c)
    assert (
        spec_sha256(a)
        == "6bda874b389fdca68e9b282655c6f404ca93fdf36e89bdab6c097d3054901ea3"
    )


def test_build_validations():
    units2 = (_unit(), _unit())
    with pytest.raises(SpecError):
        build(ManipulatorSpec((), (), (0, 3, 2)))
    with pytest.raises(SpecError):  # no base
        build(ManipulatorSpec(units2, (_weld(0, 1),), (0, 3, 2)))
    with pytest.raises(SpecError):  # two bases
        build(ManipulatorSpec(units2, (Base(0), Base(1), _weld(0, 1)), (0, 3, 2)))
    with pytest.raises(SpecError):  # unreachable unit
        build(ManipulatorSpec(units2, (Base(0),), (0, 3, 2)))
    with pytest.raises(SpecError):  # child welded twice
        build(
            ManipulatorSpec(
                (_unit(), _unit(), _unit()),
                (Base(0), _weld(0, 1), _weld(2, 1), _weld(1, 2)),
                (0, 3, 2),
            )
        )
    with pytest.raises(SpecError):  # cycle off the base
        build(
            ManipulatorSpec(
                (_unit(), _unit(), _unit()),
                (Base(0), _weld(1, 2), _weld(2, 1)),
                (0, 3, 2),
            )
        )
    with pytest.raises(SpecError):  # unit welded to itself
        build(ManipulatorSpec(units2, (Base(0), _weld(1, 1)), (0, 3, 2)))
    with pytest.raises(SpecError):  # grounded unit as weld child
        build(ManipulatorSpec(units2, (Base(0), _weld(1, 0)), (0, 3, 2)))
    with pytest.raises(SpecError):  # weld unit index out of range
        build(ManipulatorSpec(units2, (Base(0), _weld(0, 5)), (0, 3, 2)))
    with pytest.raises(SpecError):  # marker out of range
        build(ManipulatorSpec(units2, (Base(0), _weld(0, 1)), (2, 3, 2)))
    with pytest.raises(SpecError):  # base out of range
        build(ManipulatorSpec(units2, (Base(7), _weld(0, 1)), (0, 3, 2)))


def test_preset_shapes():
    rot = build(preset_rotational(math.radians(89), math.radians(89)))
    assert rot.dof == 2
    assert len(rot.nodes) == 8
    assert len(rot.pairs) == 19

    tra = build(preset_translational(math.radians(89), GAMMA, 25.0))
    assert tra.dof == 4
    assert len(tra.nodes) == 16
    assert len(tra.pairs) == 101

    mod = build(preset_modular(tuple(_unit() for _ in range(4))))
    assert mod.dof == 4
    assert len(mod.nodes) == 18  # 16 plates + bounding plate + base slab
    assert len(mod.pairs) == 131


def test_preset_modular_small_chains():
    kinds = lambda spec: [type(c).__name__ for c in spec.connections]
    assert kinds(preset_modular((_unit(),))) == ["Base"]
    assert kinds(preset_modular((_unit(), _unit()))) == ["Base", "BoundingPlate"]
    assert kinds(preset_modular((_unit(), _unit(), _unit()))) == [
        "Base",
        "BoundingPlate",
        "Weld",
    ]
    with pytest.raises(SpecError):
        preset_modular(())
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^bounding_plate_side = "):
            preset_modular((_unit(),), bounding_plate_side=bad)


def test_translational_link_lengths():
    f, q = translational_link_lengths(GAMMA, 25.0)
    assert f == pytest.approx(25.0 / math.tan(GAMMA), abs=1e-12)
    assert q == pytest.approx(25.0 / math.cos(GAMMA), abs=1e-12)
    assert f == pytest.approx(33.78556094864521, abs=1e-9)
    assert q == pytest.approx(31.100064233829517, abs=1e-9)
    with pytest.raises(DomainError):
        translational_link_lengths(0.0, 25.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^d = "):
            translational_link_lengths(GAMMA, bad)


def test_preset_translational_validation():
    with pytest.raises(DomainError):
        preset_translational(math.radians(89), math.pi / 2, 25.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^d = "):
            preset_translational(math.radians(89), GAMMA, bad)


def _mpf_schedule(n, steps=60):
    return ActivationSchedule(
        tuple(Phase(i, MPF(GAMMA), steps) for i in range(n)), Mode.SEQUENTIAL
    )


def test_rotational_run_frozen():
    finals = {}
    initials = {}
    for a in (85, 89):
        manip = build(preset_rotational(math.radians(a), math.radians(a)))
        traj = run(manip, _mpf_schedule(2))
        assert traj.meta["phase_committed_steps"] == [60, 60]
        assert len(traj.frames) == 121
        initials[a] = traj.frames[0].marker
        finals[a] = traj.frames[-1].marker
    assert np.allclose(
        finals[89], [-27.405714133498822, 25.0, -38.77818856785942], atol=1e-9
    )
    assert np.allclose(
        initials[89], [-47.85212711118807, 25.0, -13.731187482983655], atol=1e-9
    )
    assert np.allclose(
        initials[85], [-39.891420698250684, 25.0, -28.35645474436934], atol=1e-9
    )
    # MPF pins every unit's output angle, so the final tip position is
    # shared across alphas while the semi-flat starting points are not.
    assert np.abs(finals[85] - finals[89]).max() < 1e-6
    assert np.linalg.norm(initials[85] - initials[89]) > 0.1


def test_translational_run_tie_and_domination():
    zs = {}
    finals = {}
    for a in (80, 85, 89):
        manip = build(preset_translational(math.radians(a), GAMMA, 25.0))
        sched = ActivationSchedule(
            (
                Phase(0, OutputAngle(math.pi / 2), 60),
                Phase(1, MPF(GAMMA), 60),
                Phase(2, MPF(GAMMA), 60),
                Phase(3, OutputAngle(math.pi / 2), 60),
            ),
            Mode.SIMULTANEOUS,
        )
        traj = run(manip, sched)
        assert traj.meta["phase_committed_steps"] == [60, 60, 60, 60]
        zs[a] = np.array([f.marker[2] for f in traj.frames])
        finals[a] = traj.frames[-1].marker
    assert np.allclose(
        finals[89], [-43.499026875712204, 25.0, -92.57112189729042], atol=1e-9
    )
    # All runs end at the same fully folded state, so the largest |z| over
    # the run (reached at the final frame) ties across alphas ...
    for a in (80, 85):
        assert np.abs(finals[a] - finals[89]).max() < 1e-9
        assert abs(np.abs(zs[a]).max() - np.abs(zs[89]).max()) < 1e-9
    # ... while frame by frame the 89 degree run stays closest to z = 0.
    assert (np.abs(zs[89]) <= np.abs(zs[85]) + 1e-9).all()
    assert (np.abs(zs[85]) <= np.abs(zs[80]) + 1e-9).all()
    assert np.abs(zs[89]).mean() < np.abs(zs[85]).mean() < np.abs(zs[80]).mean()


def test_modular_run_collision_stop():
    manip = build(preset_modular(tuple(_unit() for _ in range(4))))
    traj = run(manip, _mpf_schedule(4), collision_clearance=0.1)
    committed = traj.meta["phase_committed_steps"]
    assert committed == [60, 60, 60, 42]
    assert committed[3] < 60  # the base joint runs into the slab
    assert np.allclose(
        traj.frames[0].marker,
        [-42.853583957432534, 97.85212711118808, -26.520248278557748],
        atol=1e-9,
    )
    assert np.allclose(
        traj.frames[-1].marker,
        [-3.5950988744693646, 77.40571413349888, -50.91499522737485],
        atol=1e-9,
    )
    wider = run(manip, _mpf_schedule(4), collision_clearance=0.5)
    assert wider.meta["phase_committed_steps"] == [60, 60, 60, 40]


def test_modular_committed_steps_pinned():
    # Committed steps of the modular chain at alpha 89 deg, recorded before
    # the collision step gained its broad phase.
    expect = {
        (4, 20): [20, 20, 20, 14],
        (8, 10): [10] * 8,
        (16, 4): [4] * 12 + [3, 0, 1, 4],
    }
    for (n, steps), committed in expect.items():
        manip = build(preset_modular(tuple(_unit() for _ in range(n))))
        traj = run(manip, _mpf_schedule(n, steps))
        assert traj.meta["phase_committed_steps"] == committed
        assert len(traj.frames) == 1 + sum(committed)


@st.composite
def _chain_state(draw):
    n = draw(st.integers(2, 4))
    alphas = [draw(st.floats(80.0, 89.9)) for _ in range(n)]
    fracs = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    clearance = draw(st.sampled_from((0.1, 1.0, 3.0)))
    return alphas, fracs, clearance


@settings(max_examples=40, deadline=None)
@given(_chain_state())
def test_broad_phase_decision_matches_full_kernel(state):
    alphas, fracs, clearance = state
    manip = build(preset_modular(tuple(_unit(a) for a in alphas)))
    start = manip.semi_flat_thetas()
    world0 = manip.world_vertices(start)
    watched = [
        p for p, m in zip(manip.pairs, pair_margins(world0, manip.pairs)) if m > clearance
    ]
    thetas = [
        s + f * (mpf_theta1(u.alpha, GAMMA, u.config) - s)
        for s, f, u in zip(start, fracs, manip.units)
    ]
    world = manip.world_vertices(thetas)
    I, J = _node_rows(world, watched)
    P = pad_polygons(list(world.values()))
    expect = bool((pair_margins(world, watched) <= clearance).any())
    assert _collides(P, I, J, clearance) == expect


def test_run_empty_schedule():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, ActivationSchedule((), Mode.SEQUENTIAL))
    assert len(traj.frames) == 1
    assert traj.meta["phase_committed_steps"] == []
    assert np.allclose(
        traj.frames[0].marker, manip.marker_world(manip.semi_flat_thetas())
    )


def test_run_validation():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    with pytest.raises(SpecError):
        run(manip, ActivationSchedule((Phase(5, MPF(GAMMA), 3),), Mode.SEQUENTIAL))
    with pytest.raises(SpecError):
        run(manip, ActivationSchedule((Phase(0, MPF(GAMMA), 0),), Mode.SEQUENTIAL))
    # With NaN or +inf no pair would be watched and no step checked.
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            run(manip, _mpf_schedule(2, steps=3), collision_clearance=bad)
    with pytest.raises(SpecError):
        run(manip, ActivationSchedule((Phase(0, "bogus", 3),), Mode.SEQUENTIAL))


def test_run_sequential_frame_times():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, _mpf_schedule(2, steps=4))
    ts = [f.t for f in traj.frames]
    assert ts == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
    # Phase 1 only moves unit 0; phase 2 only moves unit 1.
    t1s = np.array([f.theta1s for f in traj.frames])
    assert np.all(t1s[1:5, 1] == t1s[0, 1])
    assert np.all(t1s[5:, 0] == t1s[4, 0])


def test_run_simultaneous_shared_grid():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    sched = ActivationSchedule(
        (Phase(0, MPF(GAMMA), 3), Phase(1, MPF(GAMMA), 6)), Mode.SIMULTANEOUS
    )
    traj = run(manip, sched)
    assert len(traj.frames) == 7  # shared grid of max(3, 6) substeps
    assert traj.meta["phase_committed_steps"] == [6, 6]
    ts = [f.t for f in traj.frames]
    assert ts == pytest.approx([s / 6 for s in range(7)])
    t1s = np.array([f.theta1s for f in traj.frames])
    # Both units move on every substep, in lockstep fractions.
    assert np.all(np.diff(t1s[:, 0]) != 0)
    assert np.all(np.diff(t1s[:, 1]) != 0)


def test_run_semiflat_target_returns_home():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    sched = ActivationSchedule(
        (Phase(0, MPF(GAMMA), 10), Phase(0, SemiFlat(), 10)), Mode.SEQUENTIAL
    )
    traj = run(manip, sched)
    start = manip.semi_flat_thetas()
    assert traj.frames[-1].theta1s[0] == pytest.approx(start[0], abs=1e-9)
    assert traj.frames[-1].theta1s[1] == pytest.approx(start[1], abs=1e-12)


def test_run_include_poses():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, _mpf_schedule(2, steps=2), include_poses=True)
    for frame in traj.frames:
        assert len(frame.poses) == 8
        assert all(isinstance(p, Pose) for p in frame.poses)
    plain = run(manip, _mpf_schedule(2, steps=2))
    assert plain.frames[0].poses is None


def test_run_include_poses_shares_resting_plates():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, _mpf_schedule(2, steps=3), include_poses=True)
    assert traj.meta["phase_committed_steps"] == [3, 3]
    frames = traj.frames
    for frame in frames:
        world, psets, _ = manip._frames(list(frame.theta1s))
        fresh = [world[u].compose(psets[u].poses[k]) for u in range(2) for k in range(4)]
        assert [p.rt.tobytes() for p in frame.poses] == [p.rt.tobytes() for p in fresh]
    for prev, cur in zip(frames, frames[1:]):
        for p, q in zip(prev.poses, cur.poses):
            assert (p is q) == (p.rt.tobytes() == q.rt.tobytes())
    # The grounded plate never moves. While unit 1 folds (frames 3 to 6),
    # unit 0 and unit 1's welded plate 0 rest; unit 1's plates 1-3 move.
    assert all(f.poses[0] is frames[0].poses[0] for f in frames)
    for f in frames[4:]:
        assert all(f.poses[i] is frames[3].poses[i] for i in range(5))
        assert not any(f.poses[i] is frames[3].poses[i] for i in range(5, 8))


def test_run_meta_contents():
    manip = build(preset_rotational(math.radians(89), math.radians(85)))
    traj = run(manip, _mpf_schedule(2, steps=2), collision_clearance=0.25)
    meta = traj.meta
    assert meta["axes"] == "u12=+x,u41=+y,ground z=0"
    assert meta["alphas_deg"] == pytest.approx([89.0, 85.0])
    assert meta["gamma_deg"] == pytest.approx(36.5)
    assert meta["mode"] == "sequential"
    assert meta["clearance_mm"] == 0.25
    assert meta["phase_units"] == [0, 1]
    assert meta["phase_requested_steps"] == [2, 2]
    assert meta["spec_sha256"] == spec_sha256(manip.spec)
    # Without any MPF phase the default fold target is reported.
    sched = ActivationSchedule((Phase(0, OutputAngle(0.7), 2),), Mode.SEQUENTIAL)
    assert run(manip, sched).meta["gamma_deg"] == pytest.approx(36.5)
    sched = ActivationSchedule((Phase(0, MPF(0.5), 2),), Mode.SEQUENTIAL)
    assert run(manip, sched).meta["gamma_deg"] == pytest.approx(math.degrees(0.5))


def test_world_vertices_and_pair_margins():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    thetas = manip.semi_flat_thetas()
    world = manip.world_vertices(thetas)
    assert set(world.keys()) == set(manip.nodes)
    margins = pair_margins(world, manip.pairs)
    assert margins.shape == (len(manip.pairs),)
    for (a, b), margin in zip(manip.pairs[:6], margins[:6]):
        P = pad_polygons([world[a], world[b]])
        assert polygon_margins_batch(P[:1], P[1:])[0] == pytest.approx(
            float(margin), abs=1e-9
        )


def test_workspace_projection():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, _mpf_schedule(2, steps=3))
    xz = workspace_projection(traj, "xz")
    assert xz.shape == (len(traj.frames), 2)
    assert xz[0][0] == pytest.approx(traj.frames[0].marker[0])
    assert xz[0][1] == pytest.approx(traj.frames[0].marker[2])
    assert np.allclose(workspace_projection(traj, "XY")[0], traj.frames[0].marker[:2])
    with pytest.raises(DomainError):
        workspace_projection(traj, "ab")
