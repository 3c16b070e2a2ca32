"""Manipulator assembly, presets, schedule runs, and trajectory export."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from selflock.geometry import pad_polygons, plate_axes, plate_axis_bounds
from selflock.linkage import mpf_theta1, semi_flat_theta1
from selflock.manipulator import (
    MAX_PHASE_STEPS,
    _clear_pairs,
    _conn_from_json,
    _node_rows,
)
from test_corpus import _chain

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


# Per preset: spec_sha256, and the sha256 of json.dumps(to_json_dict())
# without sorted keys, which also pins the key order of every object.
_PRESET_SPEC_SHA256 = {
    "rotational": (
        "3db74c7a3a5b86cdc8351679977da42e63eb821ccb99bba1fca8f9b568e65031",
        "aedc9bf3c175e5d04fa9575f131575b6d4e08da2ee720538d4a79323c2d84aea",
    ),
    "translational": (
        "4099fce1f0cfb5104b20154a2873b87e8486c4068a3cd71636bc48fd96179c59",
        "892031164f3336f1471b1b839dada03fd9fbb951906d391c35a89393c47b10ce",
    ),
    "modular": (
        "3c231e50d933aabe85e51c062836cd6e5c25bd599c83f07de28694bc4a943038",
        "7918b94b1a112ff7499715664e9d0cd4bcb01b5177975027067c6f363a97e9a6",
    ),
}


def test_spec_json_round_trip():
    for name, spec in (
        ("rotational", preset_rotational(math.radians(89), math.radians(85))),
        ("translational", preset_translational(math.radians(89), GAMMA, 25.0)),
        ("modular", preset_modular(tuple(_unit() for _ in range(4)))),
    ):
        data = spec.to_json_dict()
        unsorted = hashlib.sha256(json.dumps(data).encode()).hexdigest()
        assert (spec_sha256(spec), unsorted) == _PRESET_SPEC_SHA256[name]
        back = ManipulatorSpec.from_json_dict(data)
        assert back.to_json_dict() == data
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


def test_spec_json_non_finite():
    # json.loads reads 1e400 as inf. int(inf) raises OverflowError, and a
    # float leaf would build inf geometry; both must be SpecErrors naming
    # the field.
    good = preset_rotational(math.radians(89), math.radians(89)).to_json_dict()
    for path in (
        ("connections", 1, "parent"),
        ("marker", "unit"),
        ("connections", 0, "slab_side_mm"),
        ("connections", 0, "pose", "t_mm", 2),
        ("units", 0, "m_mm"),
    ):
        for value in (math.inf, -math.inf, math.nan):
            data = json.loads(json.dumps(good))
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            where = "spec" + "".join(
                f"[{k}]" if isinstance(k, int) else f".{k}" for k in path
            )
            with pytest.raises(SpecError, match=re.escape(where) + "$"):
                ManipulatorSpec.from_json_dict(data)
    # The connection decoder on its own rejects an infinite integer field
    # too, naming it.
    weld = {**good["connections"][1], "child": math.inf}
    where = r"spec\.connections\[1\]\.child"
    with pytest.raises(SpecError, match=rf"^non-finite number inf at {where}$"):
        _conn_from_json(weld, "spec.connections[1]")


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


def _rejects_graph(n, base, links):
    """Whether a parent walk from every unit rejects (parent, child) links.

    The graph is valid when no unit is joined to itself, no unit has two
    parents, the grounded unit has none, and every unit's parent links
    lead to the grounded unit without revisiting a unit.
    """
    parent = {}
    for p, c in links:
        if c == p or c in parent or c == base:
            return True
        parent[c] = p
    for u in range(n):
        seen = set()
        while u != base:
            if u in seen or u not in parent:
                return True
            seen.add(u)
            u = parent[u]
    return False


@st.composite
def _any_graph(draw):
    """A random tree of 1-8 units, then up to three edits to its links.

    An edit drops a link (an orphan), adds a link between any two units
    (a double parent, a self-join, or a grounded child), moves a link's
    parent to any unit, or hangs a link from a unit below its own child
    (a cycle). The base goes anywhere in the list.
    """
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    links = [[order[draw(st.integers(0, k - 1))], order[k]] for k in range(1, n)]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "add", "move", "loop")))
        if edit == "add" or not links:
            links.append([draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))])
            continue
        link = links[draw(st.integers(0, len(links) - 1))]
        if edit == "drop":
            links.remove(link)
        elif edit == "move":
            link[0] = draw(st.integers(0, n - 1))
        else:
            below = [link[1]]
            for unit in below:
                below += [c for p, c in links if p == unit and c not in below]
            link[0] = draw(st.sampled_from(below[1:] or below))
    shift = Pose(np.eye(3), np.array([-25.0, 0.0, 0.0]))
    conns = []
    for parent, child in links:
        plates = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        if draw(st.booleans()):
            conns.append(Weld(parent, plates[0], child, plates[1], shift))
        else:
            conns.append(
                BoundingPlate(
                    parent, plates[0], child, plates[1], 25.0, shift, shift
                )
            )
    base = Base(order[0], draw(st.integers(0, 3)))
    conns.insert(draw(st.integers(0, len(conns))), base)
    spec = ManipulatorSpec(tuple(_unit() for _ in range(n)), tuple(conns), (0, 3, 2))
    return spec, _rejects_graph(n, order[0], links)


@settings(max_examples=150, deadline=None)
@given(_any_graph())
def test_build_rejects_exactly_the_invalid_graphs(case):
    spec, rejected = case
    if rejected:
        with pytest.raises(SpecError):
            build(spec)
    else:
        manip = build(spec)
        assert len(manip._links) == len(spec.units) - 1


def test_base_slab_side_validation():
    assert Base(0, slab_side=0.0).slab_side == 0.0  # no slab
    for bad in (-5.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^base slab_side = "):
            Base(0, slab_side=bad)


def _reference_model(spec):
    """Nodes, pairs and body partition by union-find, as build resolved them."""
    base = next(c for c in spec.connections if isinstance(c, Base))
    nodes = [("p", u, k) for u in range(len(spec.units)) for k in range(4)]
    nodes += [
        ("bp", ci)
        for ci, c in enumerate(spec.connections)
        if isinstance(c, BoundingPlate)
    ]
    if base.slab_side > 0.0:
        nodes.append(("slab",))
    parent = {node: node for node in nodes + ["ground"]}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    union(("p", base.unit, base.plate), "ground")
    if base.slab_side > 0.0:
        union(("slab",), "ground")
    for ci, c in enumerate(spec.connections):
        if isinstance(c, Weld):
            union(("p", c.parent, c.parent_plate), ("p", c.child, c.child_plate))
        elif isinstance(c, BoundingPlate):
            union(("p", c.parent, c.parent_plate), ("bp", ci))
            union(("bp", ci), ("p", c.child, c.child_plate))
    folds = {
        (("p", u, a), ("p", u, b))
        for u in range(len(spec.units))
        for a in range(4)
        for b in ((a + 1) % 4, (a + 3) % 4)
    }
    pairs = [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if find(a) != find(b) and (a, b) not in folds
    ]
    bodies = {}
    for node in nodes:
        bodies.setdefault(find(node), set()).add(node)
    return nodes, pairs, {frozenset(b) for b in bodies.values()}


@st.composite
def _tree_spec(draw):
    """A random valid tree of 1-8 units with welds and bounding plates.

    Units are attached in a random order, so the base need not be unit 0
    and a child's index can be below its parent's; parent plates repeat,
    giving several children on one plate; the connection list is shuffled
    out of topological order.
    """
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    slab = draw(st.sampled_from((0.0, 200.0)))
    conns = [Base(order[0], draw(st.integers(0, 3)), slab_side=slab)]
    for k in range(1, n):
        parent = order[draw(st.integers(0, k - 1))]
        plates = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        shift = Pose(np.eye(3), np.array([-25.0, 0.0, 0.0]))
        if draw(st.booleans()):
            conns.append(Weld(parent, plates[0], order[k], plates[1], shift))
        else:
            conns.append(
                BoundingPlate(
                    parent, plates[0], order[k], plates[1], 25.0, shift, shift
                )
            )
    conns = draw(st.permutations(conns))
    return ManipulatorSpec(tuple(_unit() for _ in range(n)), tuple(conns), (0, 3, 2))


@settings(max_examples=60, deadline=None)
@given(_tree_spec())
def test_collision_model_matches_union_find(spec):
    manip = build(spec)
    nodes, pairs, bodies = _reference_model(spec)
    assert manip.nodes == nodes
    assert manip.pairs == pairs
    got = {}
    for node, body in zip(manip.nodes, manip._body):
        got.setdefault(body, set()).add(node)
    assert {frozenset(b) for b in got.values()} == bodies


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
    # 0.5 and 1.6 leave a zigzag plate no longer than the 2 mm corner trim.
    for bad in (0.0, 0.5, 1.6, math.nan, math.inf):
        with pytest.raises(DomainError, match="^d = "):
            preset_translational(math.radians(89), GAMMA, bad)
    with pytest.raises(DomainError, match="must exceed 1.6077"):
        preset_translational(math.radians(89), GAMMA, 1.6)
    build(preset_translational(math.radians(89), GAMMA, 1.61))


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


def _moved(spec, k: int, shift):
    """spec with its base pose and slab center turned k quarter turns about z,
    then shifted by shift, and that motion as a Pose.

    The quarter turn is exact, so the slab stays an axis-aligned square.
    """
    c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
    motion = Pose([[c, -s, 0], [s, c, 0], [0, 0, 1]], shift)
    connections = tuple(
        dataclasses.replace(
            conn,
            pose=motion.compose(conn.pose),
            slab_center=tuple(motion.apply(conn.slab_center)),
        )
        if isinstance(conn, Base)
        else conn
        for conn in spec.connections
    )
    return ManipulatorSpec(spec.units, connections, spec.marker), motion


# Chains from 24 on: the corpus pins seeds 0-23 at clearances 0.1, 1 and 3 mm.
_FRESH_SEEDS = st.integers(24, 10_000)


@settings(max_examples=15, deadline=None)
@example(seed=24)
@given(seed=_FRESH_SEEDS)
def test_zero_clearance_commits_as_vanishing_clearance(seed):
    # Plates that touch by construction start a rounding error away from
    # contact, either side of 0; they are structural at clearance 0 too.
    spec, schedule = _chain(seed)
    manip = build(spec)
    at_zero = run(manip, schedule, 0.0).meta["phase_committed_steps"]
    assert at_zero == run(manip, schedule, 1e-9).meta["phase_committed_steps"]


@settings(max_examples=10, deadline=None)
@example(seed=24, k=1, shift=(10.0, -7.0, 3.0))
@given(
    seed=_FRESH_SEEDS,
    k=st.integers(0, 3),
    shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
)
def test_committed_steps_invariant_under_base_motion(seed, k, shift):
    spec, schedule = _chain(seed)
    spec_moved, motion = _moved(spec, k, shift)
    manip, manip_moved = build(spec), build(spec_moved)
    for clearance in (0.0, 0.1, 1.0):
        traj = run(manip, schedule, clearance)
        moved = run(manip_moved, schedule, clearance)
        assert (
            moved.meta["phase_committed_steps"]
            == traj.meta["phase_committed_steps"]
        )
        expect = motion.apply(np.array([f.marker for f in traj.frames]))
        got = np.array([f.marker for f in moved.frames])
        assert np.abs(got - expect).max() <= 1e-9


@st.composite
def _chain_state(draw):
    n = draw(st.integers(2, 4))
    alphas = [draw(st.floats(80.0, 89.9)) for _ in range(n)]
    # The start state (every fraction 0) is where run() takes its watched set.
    start = draw(st.booleans())
    fracs = [0.0 if start else draw(st.floats(0.0, 1.0)) for _ in range(n)]
    clearance = draw(st.sampled_from((0.0, 0.1, 1.0, 3.0)))
    return alphas, fracs, clearance


@settings(max_examples=40, deadline=None)
@given(_chain_state())
def test_broad_phase_decision_matches_full_kernel(state):
    alphas, fracs, clearance = state
    manip = build(preset_modular(tuple(_unit(a) for a in alphas)))
    start = manip.semi_flat_thetas()
    thetas = [
        s + f * (mpf_theta1(u.alpha, GAMMA, u.config) - s)
        for s, f, u in zip(start, fracs, manip.units)
    ]
    world = manip.world_vertices(thetas)
    I, J = _node_rows(world, manip.pairs)
    P = pad_polygons(list(world.values()))
    margins = pair_margins(world, manip.pairs)
    expect = margins > clearance
    axes, keep, _ = plate_axes(P)
    assert np.array_equal(_clear_pairs(P, axes, keep, I, J, clearance), expect)
    # The run path: the same stack, with the axes placed beside it.
    _, _, placed, axes = manip._placed(thetas)
    assert np.array_equal(placed, P)
    decision = _clear_pairs(P, axes, manip._keep, I, J, clearance)
    assert np.array_equal(decision, expect)
    # What makes the decision exact: the placed axes' bound stays below
    # every margin, within the slack _clear_pairs allows for rounding.
    slack = 1e-12 * (1.0 + np.abs(P).max())
    assert (plate_axis_bounds(P, axes, manip._keep, I, J) <= margins + slack).all()


def _skewed(spec, scale):
    """spec with its base and weld rotations scaled by scale."""

    def skew(c):
        if isinstance(c, Base):
            return dataclasses.replace(c, pose=Pose(c.pose.r * scale, c.pose.t))
        if isinstance(c, Weld):
            return dataclasses.replace(c, rel=Pose(c.rel.r * scale, c.rel.t))
        return c

    return dataclasses.replace(spec, connections=tuple(map(skew, spec.connections)))


def test_broad_phase_exact_under_skewed_spec_pose():
    # A spec pose need only be orthonormal to the Pose check's 1e-9. The
    # build holds each to its nearest rotation, so the placed axes stay the
    # world polygons' own up to rounding, as for exact spec poses.
    manip = build(_skewed(preset_rotational(math.radians(89), math.radians(89)), 1 + 4.9e-10))
    _, _, P, axes = manip._placed(manip.semi_flat_thetas())
    own, keep, _ = plate_axes(P)
    assert np.array_equal(keep, manip._keep)
    assert np.abs(axes - own)[keep].max() <= 1e-12
    # Set each pair's clearance to its own margin: the kernel calls every
    # such pair blocked, and the bound must not certify one.
    I, J = manip._pair_rows
    margins = polygon_margins_batch(P[I], P[J])
    for k in np.flatnonzero(margins >= 0.0):
        pair = I[k : k + 1], J[k : k + 1]
        assert not _clear_pairs(P, axes, manip._keep, *pair, margins[k])[0]


def test_bounding_plates_out_of_chain_order_place_their_own_squares():
    # The chain walks unit 0's bounding plate (connection 2) before unit
    # 1's (connection 1); node order, and so the rows of _placed, follows
    # the connection list.
    turn = Pose(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                np.array([-20.0, 45.0, 0.0]))
    flush = Pose(np.eye(3), np.array([-25.0, 0.0, 0.0]))
    conns = (
        Base(0),
        BoundingPlate(1, 3, 2, 0, 30.0, flush, turn),
        BoundingPlate(0, 3, 1, 0, 20.0, flush, turn),
    )
    spec = ManipulatorSpec(tuple(_unit() for _ in range(3)), conns, (2, 3, 2))
    manip = build(spec)
    thetas = manip.semi_flat_thetas()
    plate_rt, _, world, _ = manip._placed(thetas)
    frames, plates, _ = manip._frames(plate_rt)
    for ci in (1, 2):
        c = spec.connections[ci]
        s = c.side
        square = np.array([[0.0, 0.0, 0.0], [0.0, s, 0.0], [-s, s, 0.0], [-s, 0.0, 0.0]])
        pose = frames[c.parent].compose(plates[c.parent][c.parent_plate])
        row = world[manip.nodes.index(("bp", ci))]
        assert np.allclose(row[:4], pose.compose(c.attach_parent).apply(square), atol=1e-9)


def _rotation_bytes(manip, thetas) -> bytes:
    """The bytes of every plate rotation and every placed polygon at thetas."""
    plate_rt, _, world, _ = manip._placed(thetas)
    return plate_rt.tobytes() + world.tobytes()


def test_placement_bytes_independent_of_signed_zero_order():
    # -0.0 == 0.0 as values but not as bytes; whichever of the two states
    # comes first, each gets the bytes a fresh manipulator gives it.
    spec = preset_rotational(math.radians(89), math.radians(89))
    x = semi_flat_theta1(math.radians(89), DOWN)
    neg, pos = [-0.0, x], [0.0, x]
    fresh = {k: _rotation_bytes(build(spec), t) for k, t in (("neg", neg), ("pos", pos))}
    manip = build(spec)
    for key, thetas in (("neg", neg), ("pos", pos), ("neg", neg), ("pos", pos)):
        assert _rotation_bytes(manip, thetas) == fresh[key]
        assert np.array_equal(manip.marker_world(thetas), build(spec).marker_world(thetas))


def test_placement_bytes_independent_of_call_history():
    spec = preset_modular(tuple(_unit(a) for a in (85.0, 89.0, 80.0)))
    manip = build(spec)
    start = manip.semi_flat_thetas()
    states = {"start": start, "other": [t + 0.25 for t in start]}
    expect = {k: _rotation_bytes(build(spec), t) for k, t in states.items()}
    for key in ("start", "other", "other", "start", "other", "start", "start"):
        assert _rotation_bytes(manip, states[key]) == expect[key]
        assert _rotation_bytes(manip, tuple(states[key])) == expect[key]


def test_run_empty_schedule():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, ActivationSchedule((), Mode.SEQUENTIAL))
    assert len(traj.frames) == 1
    assert traj.meta["phase_committed_steps"] == []
    assert np.allclose(
        traj.frames[0].marker, manip.marker_world(manip.semi_flat_thetas())
    )


def test_run_validation(monkeypatch):
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    # A phase past MAX_PHASE_STEPS, or phases whose steps sum past it, are
    # refused before any state is placed.
    phases = (Phase(0, MPF(GAMMA), 3), Phase(1, MPF(GAMMA), MAX_PHASE_STEPS + 1))
    total = (Phase(0, MPF(GAMMA), 60_000), Phase(1, MPF(GAMMA), 60_000))
    twice = (Phase(0, MPF(GAMMA), 5), Phase(0, MPF(GAMMA), 5))
    with monkeypatch.context() as patch:
        patch.setattr(manip, "_placed", None)
        for mode in Mode:
            with pytest.raises(SpecError, match="^phase steps must be at most 100000$"):
                run(manip, ActivationSchedule(phases, mode))
            with pytest.raises(SpecError, match="^schedule steps must total at most 100000$"):
                run(manip, ActivationSchedule(total, mode))
        with pytest.raises(SpecError, match="^unknown phase target 'bogus'$"):
            run(manip, ActivationSchedule((Phase(0, "bogus", 3),), Mode.SEQUENTIAL))
        # run() and a spec file check a schedule against the same rules, and
        # run() gives the message the spec file gives after the field's path.
        for sched in (
            ActivationSchedule((Phase(5, MPF(GAMMA), 3),), Mode.SEQUENTIAL),
            ActivationSchedule((Phase(0, MPF(GAMMA), 0),), Mode.SEQUENTIAL),
            ActivationSchedule(phases, Mode.SEQUENTIAL),
            ActivationSchedule(total, Mode.SIMULTANEOUS),
            ActivationSchedule(twice, Mode.SIMULTANEOUS),
        ):
            data = {"mode": sched.mode.value, "phases": [
                {"unit": ph.unit, "target": "mpf", "steps": ph.steps}
                for ph in sched.phases
            ]}
            with pytest.raises(SpecError) as spec_file:
                ActivationSchedule.from_json_dict(data, manip.dof, GAMMA, "spec.schedule")
            with pytest.raises(SpecError) as ran:
                run(manip, sched)
            assert str(spec_file.value).split(": ", 1)[1] == str(ran.value)
    # With NaN or +inf no pair would be watched and no step checked.
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            run(manip, _mpf_schedule(2, steps=3), collision_clearance=bad)


def test_simultaneous_schedule_rejects_repeated_unit():
    # run() fills one target per unit, so this would run SemiFlat alone
    # and report 5 committed steps for both phases.
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    phases = (Phase(0, MPF(), 5), Phase(0, SemiFlat(), 5))
    with pytest.raises(SpecError):
        run(manip, ActivationSchedule(phases, Mode.SIMULTANEOUS))


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
        world, plates, _ = manip._frames(manip._placed(list(frame.theta1s))[0])
        fresh = [world[u].compose(plates[u][k]) for u in range(2) for k in range(4)]
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


def test_run_include_poses_frames_share_one_block_per_state():
    # The plate poses of one placed state read their rows of one shared
    # array; a copy or pickle of one is a plain Pose with the same bytes.
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    traj = run(manip, _mpf_schedule(2, steps=2), include_poses=True)
    prev, last = traj.frames[-2].poses, traj.frames[-1].poses
    moved = [p for p, q in zip(last, prev) if p is not q]
    assert moved and len({id(p.rt.base) for p in moved}) == 1
    for p in moved:
        for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is Pose and twin.rt.tobytes() == p.rt.tobytes()


def test_run_include_poses_same_markers_and_poses():
    # With poses the marker comes from the marker plate's own frame pose;
    # it must be the marker a run without poses computes, to the byte, and
    # every pose the compose of a fresh frame chain at that state.
    half = OutputAngle(math.pi / 2)
    cases = (
        (preset_rotational(math.radians(89), math.radians(85)), _mpf_schedule(2, steps=6)),
        (
            preset_translational(math.radians(85), GAMMA, 25.0),
            ActivationSchedule(
                (Phase(0, half, 6), Phase(1, MPF(GAMMA), 6),
                 Phase(2, MPF(GAMMA), 6), Phase(3, half, 6)),
                Mode.SIMULTANEOUS,
            ),
        ),
        (preset_modular(tuple(_unit() for _ in range(4))), _mpf_schedule(4, steps=8)),
    )
    for spec, sched in cases:
        manip = build(spec)
        plain = run(manip, sched)
        posed = run(manip, sched, include_poses=True)
        assert posed.meta == plain.meta
        assert len(posed.frames) == len(plain.frames) > 1
        n = 4 * len(spec.units)
        for f, g in zip(posed.frames, plain.frames):
            assert (f.t, f.theta1s) == (g.t, g.theta1s)
            assert f.marker.tobytes() == g.marker.tobytes()
            assert f.marker.tobytes() == manip.marker_world(list(f.theta1s)).tobytes()
            world, plates, _ = manip._frames(manip._placed(list(f.theta1s))[0])
            fresh = [world[k // 4].compose(plates[k // 4][k % 4]) for k in range(n)]
            assert [p.rt.tobytes() for p in f.poses] == [p.rt.tobytes() for p in fresh]


def test_runs_leave_manipulator_unchanged():
    # A built manipulator holds no state between calls: a run rebinds none
    # of its attributes, and gives the bytes of the same run on a fresh build.
    spec = preset_modular(tuple(_unit(a) for a in (85.0, 89.0, 80.0)))
    sched = _mpf_schedule(3, steps=5)
    manip = build(spec)
    before = {key: id(value) for key, value in vars(manip).items()}
    for include_poses in (False, True):
        traj = run(manip, sched, include_poses=include_poses)
        assert {key: id(value) for key, value in vars(manip).items()} == before
        fresh = run(build(spec), sched, include_poses=include_poses)
        assert traj.meta == fresh.meta and len(traj.frames) == len(fresh.frames) > 1
        for f, g in zip(traj.frames, fresh.frames):
            assert (f.t, f.theta1s) == (g.t, g.theta1s)
            assert f.marker.tobytes() == g.marker.tobytes()
            if include_poses:
                assert [p.rt.tobytes() for p in f.poses] == [
                    p.rt.tobytes() for p in g.poses
                ]


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
    for spec in (
        preset_rotational(math.radians(89), math.radians(89)),
        preset_modular((_unit(), _unit())),
    ):
        manip = build(spec)
        thetas = manip.semi_flat_thetas()
        world = manip.world_vertices(thetas)
        assert list(world) == manip.nodes
        # Trimmed plates have 5 corners; bounding plate and slab have 4.
        for node, verts in world.items():
            assert verts.shape == ((5, 3) if node[0] == "p" else (4, 3))
        margins = pair_margins(world, manip.pairs)
        assert margins.shape == (len(manip.pairs),)
        for (a, b), margin in zip(manip.pairs[:6], margins[:6]):
            P = pad_polygons([world[a], world[b]])
            assert polygon_margins_batch(P[:1], P[1:])[0] == pytest.approx(
                float(margin), abs=1e-9
            )
    assert {node[0] for node in manip.nodes} == {"p", "bp", "slab"}


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
