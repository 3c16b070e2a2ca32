"""Manipulators assembled from self-locking origami units.

A manipulator is a tree of units. Rigid welds join an output plate of one
unit to an input plate of the next; an optional square bounding plate turns
the chain through a right angle; a base connection grounds one plate and
may carry a large base slab that the folding chain can run into. Activation
schedules drive each unit's theta1 toward a target state, and every
interpolation step is collision-checked across the whole assembly before it
is committed, so a fold stops early when plates would meet.

World frames follow the single-unit convention: the grounded plate of the
base unit lies in the z = 0 plane, its ground fold u41 along +y and the
driven fold u12 in-plane. Trajectory files record that convention in their
metadata.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields
from functools import partial

import numpy as np

from .geometry import (
    Pose,
    UnitKinematics,
    _RowPose,
    pad_polygons,
    plate_axes,
    plate_axis_bounds,
    plate_meshes,
    polygon_margins_batch,
    trim_corner,
)
from .linkage import (
    CentralAngles,
    Configuration,
    DomainError,
    mpf_theta1,
    semi_flat_theta1,
    theta1_of_theta4,
)

M_DEFAULT = 25.0
GAMMA_DEFAULT = math.radians(36.5)
CLEARANCE_DEFAULT = 0.1
_TRIM_MM = 2.0
AXES_NOTE = "u12=+x,u41=+y,ground z=0"
# A frame takes about 310 B and a rotational step about 0.2 ms (2-vCPU
# Xeon VM), so a run at this bound holds about 31 MB and runs about 20 s.
# It bounds each phase's steps and their sum over the schedule.
MAX_PHASE_STEPS = 100_000
Angle = float  # radians, which a spec file writes in degrees


class SpecError(ValueError):
    """A manipulator spec, schedule, or spec file failed validation."""


@dataclass(frozen=True)
class UnitSpec:
    """One origami unit: plate angle, assembly branch, and plate sizes.

    plate_m optionally overrides the edge length of each of the four
    plates (used by the translational manipulator, whose inner plates are
    sized by the zigzag geometry). Overrides never change central angles.
    """

    alpha: Angle
    config: Configuration
    m: float = M_DEFAULT
    plate_m: tuple = None

    def __post_init__(self):
        CentralAngles.self_lock(self.alpha)
        if not 0.0 < self.m < math.inf:
            raise DomainError(f"m = {self.m!r} must be finite and positive")
        if self.plate_m is not None:
            pm = tuple(float(v) for v in self.plate_m)
            if len(pm) != 4 or not all(0.0 < v < math.inf for v in pm):
                raise DomainError(
                    f"plate_m = {self.plate_m!r} needs four finite positive lengths"
                )
            object.__setattr__(self, "plate_m", pm)

    @property
    def plate_sizes(self) -> tuple:
        return self.plate_m if self.plate_m is not None else (self.m,) * 4


@dataclass(frozen=True, eq=False)
class Weld:
    """Rigid attachment of child unit's plate onto parent unit's plate.

    rel is the child plate's local frame expressed in the parent plate's
    local frame; identity lays the two plates over each other, and the
    chain presets use a pure translation that puts them edge to edge in
    one plane (the two welded plates model a single shared physical plate).
    """

    parent: int
    parent_plate: int
    child: int
    child_plate: int
    rel: Pose


@dataclass(frozen=True, eq=False)
class BoundingPlate:
    """Rigid square plate interposed between two units.

    attach_parent places the plate's local frame in the parent plate's
    frame; attach_child places the child plate's frame in the plate's
    frame. The plate polygon spans x in [-side, 0], y in [0, side] in its
    own frame, mirroring the plate-4 layout.
    """

    parent: int
    parent_plate: int
    child: int
    child_plate: int
    side: float
    attach_parent: Pose
    attach_child: Pose

    def __post_init__(self):
        if not 0.0 < self.side < math.inf:
            raise DomainError(
                f"bounding plate side = {self.side!r} must be finite and positive"
            )


@dataclass(frozen=True, eq=False)
class Base:
    """Grounding of one unit plate at a fixed world pose.

    slab_side > 0 adds a square base slab (axis-aligned at the world z of
    slab_center) to the grounded body, standing in for the mounting plate
    a physical manipulator is bolted to.
    """

    unit: int
    plate: int = 0
    pose: Pose = field(default_factory=Pose.identity)
    slab_side: float = 0.0
    slab_center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        # 0 means no slab; NaN fails the comparison too.
        if not 0.0 <= self.slab_side < math.inf:
            raise DomainError(
                f"base slab_side = {self.slab_side!r} must be finite and nonnegative"
            )
        center = np.asarray(self.slab_center, dtype=float)
        if center.shape != (3,) or not np.isfinite(center).all():
            raise DomainError(
                f"base slab_center = {self.slab_center!r} needs three finite numbers"
            )


@dataclass(frozen=True, eq=False)
class ManipulatorSpec:
    """Buildable description: units, their connections, and the marker corner.

    marker is (unit, plate, corner), zero-based, resolved on the untrimmed
    plate polygons. Serializes to and from the JSON schema documented in
    the cli module.
    """

    units: tuple
    connections: tuple
    marker: tuple

    def to_json_dict(self) -> dict:
        return {
            "units": [_to_json(u) for u in self.units],
            "connections": [_conn_to_json(c) for c in self.connections],
            "marker": _to_json(_Marker(*self.marker)),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ManipulatorSpec":
        """The spec of a parsed spec file; its "schedule" is read apart."""
        keys = ("units", "connections", "marker")
        d = _object(data, "spec", keys + ("schedule",), keys)
        return cls(
            _array(d["units"], "spec.units", partial(_from_json, UnitSpec)),
            _array(d["connections"], "spec.connections", _conn_from_json),
            astuple(_from_json(_Marker, d["marker"], "spec.marker")),
        )


def spec_sha256(spec: ManipulatorSpec) -> str:
    """Stable content hash of a spec's canonical JSON form."""
    canon = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Activation schedules


@dataclass(frozen=True)
class MPF:
    """Fold until |theta4| reaches gamma (maximum possible fold)."""

    gamma: Angle = GAMMA_DEFAULT


@dataclass(frozen=True)
class SemiFlat:
    """Return to the semi-flat state."""


@dataclass(frozen=True)
class OutputAngle:
    """Fold until |theta4| reaches the given magnitude."""

    angle: Angle


@dataclass(frozen=True)
class Phase:
    unit: int
    target: object
    steps: int = 60


class Mode(enum.Enum):
    SEQUENTIAL = "sequential"
    SIMULTANEOUS = "simultaneous"


@dataclass(frozen=True)
class ActivationSchedule:
    """Ordered phases, each driving one unit toward a target state.

    Sequential mode runs the phases one after another; simultaneous mode
    interpolates all phase targets in lockstep over a shared step grid, so
    it names each unit in one phase only.
    """

    phases: tuple[Phase, ...]
    mode: Mode = Mode.SEQUENTIAL

    @classmethod
    def from_json_dict(cls, data, n: int, gamma: float, path: str):
        """The schedule at path in an n-unit spec file; MPF gamma defaults to gamma."""
        d = _object(data, path, ("mode", "phases"), ("phases",))
        phase = partial(_phase_from_json, gamma=gamma)
        phases = _array(d["phases"], f"{path}.phases", phase)
        if not phases:
            raise SpecError(f"{path}.phases: schedule has no phases")
        schedule = _from_json(cls, d, path, phases=phases)
        fault = _schedule_fault(schedule, n)
        if fault:
            raise SpecError(f"{path}.{fault[0]}: {fault[1]}")
        return schedule


def _schedule_fault(schedule: ActivationSchedule, n: int):
    """(where, why) for the first rule schedule breaks on n units, else None.

    where is the field's path below the schedule, such as "phases[1].steps".
    run() and the schedule codec both check a schedule here, so each rule
    and its message are stated once.
    """
    driven = set()
    for i, ph in enumerate(schedule.phases):
        if not 0 <= ph.unit < n:
            return f"phases[{i}].unit", f"unit {ph.unit} outside 0..{n - 1}"
        # Simultaneous mode drives each unit toward one target.
        if schedule.mode is Mode.SIMULTANEOUS and ph.unit in driven:
            return f"phases[{i}].unit", (
                f"unit {ph.unit} named twice in a simultaneous schedule"
            )
        driven.add(ph.unit)
        if not isinstance(ph.target, (MPF, SemiFlat, OutputAngle)):
            return f"phases[{i}].target", f"unknown phase target {ph.target!r}"
        if ph.steps < 1:
            return f"phases[{i}].steps", "phase steps must be at least 1"
        if ph.steps > MAX_PHASE_STEPS:
            return f"phases[{i}].steps", f"phase steps must be at most {MAX_PHASE_STEPS}"
    if sum(ph.steps for ph in schedule.phases) > MAX_PHASE_STEPS:
        return "phases", f"schedule steps must total at most {MAX_PHASE_STEPS}"
    return None


def _target_theta1(target, unit: UnitSpec) -> float:
    alpha, config = unit.alpha, unit.config
    if isinstance(target, MPF):
        return mpf_theta1(alpha, target.gamma, config)
    if isinstance(target, SemiFlat):
        return semi_flat_theta1(alpha, config)
    return theta1_of_theta4(alpha, config.sign * target.angle, config)


# ---------------------------------------------------------------------------
# Spec file JSON. A decoder takes a value and its path in the file, and the
# SpecError it raises names that path.


def _object(v, path: str, keys, required) -> dict:
    """v as a JSON object holding every required key and no key outside keys."""
    if not isinstance(v, dict):
        raise SpecError(f"{path}: expected a JSON object, got {v!r}")
    for key in required:
        if key not in v:
            raise SpecError(f"{path}: missing key {key!r}")
    for key in v:
        if key not in keys:
            raise SpecError(f"{path}: unknown key {key!r}")
    return v


def _array(v, path: str, item) -> tuple:
    """A JSON array, each element read by item(element, its path)."""
    if not isinstance(v, list):
        raise SpecError(f"{path}: expected an array, got {v!r}")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))


def _number(v, path: str) -> float:
    """A finite JSON number that is not a bool (json.loads reads NaN, 1e400)."""
    if type(v) not in (int, float):
        raise SpecError(f"{path}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:
        raise SpecError(f"non-finite number {v!r} at {path}")
    return float(v)


def _index(v, path: str) -> int:
    """An index or count: an integral JSON number that is not a bool."""
    if not _number(v, path).is_integer():
        raise SpecError(f"{path}: expected an integral number, got {v!r}")
    return int(v)


def _built(cls, path: str, *args, **kwargs):
    """cls(*args, **kwargs), a ValueError it raises naming path."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _pose(v, path: str) -> Pose:
    d = _object(v, path, ("r", "t_mm"), ("r", "t_mm"))
    r = _array(d["r"], f"{path}.r", _numbers)
    return _built(Pose, path, r, _numbers(d["t_mm"], f"{path}.t_mm"))


_numbers = partial(_array, item=_number)
# Annotation (a string, as annotations are postponed): key suffix, encoder, decoder.
_CODECS = {
    "int": ("", lambda v: v, _index),
    "float": ("_mm", lambda v: v, _number),
    "tuple": ("_mm", list, _numbers),
    "Angle": ("_deg", math.degrees, lambda v, p: math.radians(_number(v, p))),
    "Pose": ("", lambda p: {"r": p.r.tolist(), "t_mm": p.t.tolist()}, _pose),
    "Configuration": ("", lambda e: e.value, lambda v, p: _built(Configuration, p, v)),
    "Mode": ("", lambda e: e.value, lambda v, p: _built(Mode, p, v)),
}


def _to_json(obj) -> dict:
    """obj's fields in order, each under its key; a None field is left out."""
    items = [(f.name, _CODECS[f.type], getattr(obj, f.name)) for f in fields(obj)]
    return {name + c[0]: c[1](v) for name, c, v in items if v is not None}


def _from_json(cls, d, path: str, *other: str, **defaults):
    """The dataclass cls read from the JSON object d at path, allowing keys in other.

    A field absent from d, or without a codec, takes its value from defaults,
    else from its own default.
    """
    keys, required, args = list(other), [], {}
    for f in fields(cls):
        codec = _CODECS.get(f.type)
        keys.append(f.name + codec[0] if codec else f.name)
        if f.name in defaults:
            args[f.name] = defaults[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            required.append(keys[-1])
    _object(d, path, keys, required)
    for f, key in zip(fields(cls), keys[len(other):]):
        if key in d and f.type in _CODECS:
            args[f.name] = _CODECS[f.type][2](d[key], f"{path}.{key}")
    return _built(cls, path, **args)


def _kinded(kinds: dict, key: str, d, path: str, *other: str, **defaults):
    """The dataclass that d[key] names among kinds, read from the rest of d."""
    name = _object(d, path, d, (key,))[key]
    if not isinstance(name, str) or name not in kinds:
        raise SpecError(f"{path}.{key}: expected one of {list(kinds)}, got {name!r}")
    return _from_json(kinds[name], d, path, key, *other, **defaults)


_CONN_KINDS = {"weld": Weld, "bounding_plate": BoundingPlate, "base": Base}
_TARGETS = {"mpf": MPF, "semiflat": SemiFlat, "out": OutputAngle}
_conn_from_json = partial(_kinded, _CONN_KINDS, "kind")


@dataclass(frozen=True)
class _Marker:
    unit: int
    plate: int
    corner: int


def _conn_to_json(c) -> dict:
    for kind, cls in _CONN_KINDS.items():
        if isinstance(c, cls):
            return {"kind": kind, **_to_json(c)}
    raise SpecError(f"unknown connection type {type(c).__name__}")


def _phase_from_json(d, path: str, gamma: float) -> Phase:
    """A phase: unit, target kind and that target's fields, and steps."""
    target = _kinded(_TARGETS, "target", d, path, "unit", "steps", gamma=gamma)
    keys = _to_json(target)
    return _from_json(Phase, d, path, *keys, target=target)


# ---------------------------------------------------------------------------
# Built manipulator


class Manipulator:
    """Validated assembly with resolved frame chain and collision model.

    Nodes of the collision model are the individual plate polygons plus any
    bounding plates and the base slab. Welded and bounded plates merge into
    rigid bodies; a candidate collision pair is any two nodes in different
    bodies that do not share a fold.
    """

    def __init__(self, spec: ManipulatorSpec):
        if len(spec.units) == 0:
            raise SpecError("manipulator needs at least one unit")
        self.spec = spec
        self.units = spec.units
        n = len(spec.units)

        bases = [c for c in spec.connections if isinstance(c, Base)]
        if len(bases) != 1:
            raise SpecError(f"need exactly one base connection, got {len(bases)}")
        self.base = bases[0]
        if not 0 <= self.base.unit < n or not 0 <= self.base.plate <= 3:
            raise SpecError("base connection references an invalid unit or plate")

        # Children per parent unit as (connection index, connection).
        children = {}
        has_parent = set()
        for ci, c in enumerate(spec.connections):
            if isinstance(c, Base):
                continue
            for idx, label in ((c.parent, "parent"), (c.child, "child")):
                if not 0 <= idx < n:
                    raise SpecError(f"connection {label} unit {idx} out of range")
            for pl in (c.parent_plate, c.child_plate):
                if not 0 <= pl <= 3:
                    raise SpecError(f"connection plate index {pl} out of range")
            if c.child == c.parent:
                raise SpecError("connection joins a unit to itself")
            if c.child in has_parent:
                raise SpecError(f"unit {c.child} attached by more than one connection")
            if c.child == self.base.unit:
                raise SpecError("the grounded unit cannot also be a weld child")
            has_parent.add(c.child)
            children.setdefault(c.parent, []).append((ci, c))

        # The non-base connections in topological order, parents before
        # children: units breadth first from the base, each unit's children
        # in connection order. The loop also visits what it appends. Every
        # unit has at most one parent and the base has none, so the walk
        # reaches exactly the units whose parent links lead to the base; a
        # unit on a cycle or cut off from the base is left out.
        chain = list(children.get(self.base.unit, []))
        for _, c in chain:
            chain.extend(children.get(c.child, []))
        if len(chain) < n - 1:
            reached = {self.base.unit} | {c.child for _, c in chain}
            u = min(u for u in range(n) if u not in reached)
            raise SpecError(f"unit {u} is not connected to the base")

        mu, mp, mc = spec.marker
        if not (0 <= mu < n and 0 <= mp <= 3 and 0 <= mc <= 3):
            raise SpecError(f"marker {spec.marker!r} does not resolve")

        # Collision nodes and their local polygons: ("p", unit, plate) the
        # plate trimmed at the shared corner, ("bp", conn index) the square
        # in its own frame, ("slab",) the base slab already in world frame.
        self.nodes = [("p", u, k) for u in range(n) for k in range(4)]
        polys = [
            _trimmed(unit, u, k) for u, unit in enumerate(spec.units) for k in range(4)
        ]
        for ci, c in enumerate(spec.connections):
            if isinstance(c, BoundingPlate):
                self.nodes.append(("bp", ci))
                s = c.side
                polys.append(
                    np.array(
                        [[0.0, 0.0, 0.0], [0.0, s, 0.0], [-s, s, 0.0], [-s, 0.0, 0.0]]
                    )
                )
        if self.base.slab_side > 0.0:
            self.nodes.append(("slab",))
            h = 0.5 * self.base.slab_side
            cx, cy, cz = self.base.slab_center
            polys.append(
                np.array(
                    [
                        [cx - h, cy - h, cz],
                        [cx + h, cy - h, cz],
                        [cx + h, cy + h, cz],
                        [cx - h, cy + h, cz],
                    ]
                )
            )
        self._kinematics = UnitKinematics(
            [u.alpha for u in spec.units], [u.config for u in spec.units]
        )
        self._local = pad_polygons(polys)
        # Each node's own separating axes are fixed in its own frame, so
        # they are resolved here once and placed with the vertices.
        self._local_axes, self._keep, _ = plate_axes(self._local)
        self._counts = [len(p) for p in polys]
        # The marker corner, on its untrimmed plate.
        mesh = plate_meshes(spec.units[mu].alpha, spec.units[mu].plate_sizes[mp])[mp]
        self._marker = mesh.vertices[mc]

        # Rigid body label per node. The base plate and the slab are ground;
        # along the chain each connection gives its child plate, and its
        # bounding plate, the body of its parent plate.
        row = {node: i for i, node in enumerate(self.nodes)}
        self._body = list(range(len(self.nodes)))
        ground = -1
        self._body[row[("p", self.base.unit, self.base.plate)]] = ground
        if self.base.slab_side > 0.0:
            self._body[row[("slab",)]] = ground
        # Each chain connection resolves into one link: parent unit and
        # plate, child unit and plate, and its rigid steps, with a bounding
        # plate placed after the first. Spec poses pass the Pose check at
        # 1e-9, which their composes can drift past, so each is replaced by
        # its nearest rotation.
        self._base_pose = _nearest_rotation(self.base.pose)
        self._links, bp_conns = [], []
        for ci, c in chain:
            body = self._body[row[("p", c.parent, c.parent_plate)]]
            self._body[row[("p", c.child, c.child_plate)]] = body
            if isinstance(c, Weld):
                steps = (c.rel,)
            else:
                steps = (c.attach_parent, c.attach_child)
                self._body[row[("bp", ci)]] = body
                bp_conns.append(ci)
            steps = tuple(map(_nearest_rotation, steps))
            self._links.append((c.parent, c.parent_plate, c.child, c.child_plate, steps))
        self._bp_order = np.argsort(bp_conns)  # bounding plates, chain to node order

        # Plates k and k +- 1 (mod 4) of one unit share a fold: their plate
        # indices differ by an odd number.
        self.pairs = []
        rows_i, rows_j = [], []
        for i, a in enumerate(self.nodes):
            for j in range(i + 1, len(self.nodes)):
                b = self.nodes[j]
                if self._body[i] == self._body[j]:
                    continue
                if a[0] == b[0] == "p" and a[1] == b[1] and (a[2] - b[2]) % 2 == 1:
                    continue
                self.pairs.append((a, b))
                rows_i.append(i)
                rows_j.append(j)
        self._pair_rows = (np.array(rows_i, dtype=int), np.array(rows_j, dtype=int))

    @property
    def dof(self) -> int:
        """Free scalar joints: one theta1 per unit."""
        return len(self.units)

    def semi_flat_thetas(self) -> list:
        return [semi_flat_theta1(u.alpha, u.config) for u in self.units]

    def _frames(self, plate_rt):
        """Unit base poses, plate poses and bounding plate poses of one state.

        plate_rt is the (n, 4, 4, 3) block of UnitKinematics.rotations at
        the state's theta1s. Returns (frames, plates, bp_world): frames[u]
        is unit u's base pose in the world, plates[u][k] the pose of its
        plate k in the unit's own frame, over plate_rt[u, k], and bp_world
        the world poses of the bounding plates in chain order.
        """
        plates = tuple(tuple(Pose._of(p) for p in unit) for unit in plate_rt)
        frames = [None] * len(plates)
        bp_world = []
        bu = self.base.unit
        frames[bu] = self._base_pose.compose(plates[bu][self.base.plate].inverse())
        for u, k, child, child_plate, steps in self._links:
            pose = frames[u].compose(plates[u][k])
            for step in steps[:-1]:
                pose = pose.compose(step)
                bp_world.append(pose)
            pose = pose.compose(steps[-1])
            frames[child] = pose.compose(plates[child][child_plate].inverse())
        return frames, plates, bp_world

    def _placed(self, thetas) -> tuple:
        """The plate rotations at theta1s and the state they place.

        Returns (plate_rt, poses, world, axes): the UnitKinematics.rotations
        block, which _marker_at takes, and the plate world poses, unit-major.
        Row i of world is node i's collision polygon in world frame, padded
        as pad_polygons pads it; row i of axes is that polygon's own
        separating axes, the build-time plate_axes of its local polygon
        turned by the rotation that places its vertices. They equal
        plate_axes(world)'s up to rounding, and their mask is the build-time
        one, Manipulator._keep. The slab rows are the local ones.
        """
        plate_rt = self._kinematics.rotations(thetas)[0]
        frames, _, bp_world = self._frames(plate_rt)
        # frames[u].compose(plates[u][k]) for every plate at once, each entry
        # by the same products and sums.
        f = np.array([pose.rt for pose in frames])[:, None]
        rt = np.empty_like(plate_rt)
        rt[:, :, :3] = f[..., :3, :] @ plate_rt[:, :, :3]
        rt[:, :, 3] = (f[..., :3, :] @ plate_rt[:, :, 3, :, None])[..., 0] + f[..., 3, :]
        rt = rt.reshape(-1, 4, 3)
        poses = _RowPose.rows(rt)
        # Bounding plate nodes follow the plates, in connection order.
        if bp_world:
            rt = np.concatenate((rt, [bp_world[i].rt for i in self._bp_order]))
        m = len(rt)
        rot = rt[:, :3].transpose(0, 2, 1)
        local, axes = self._local, self._local_axes
        # Pose.apply on every moving row at once; the axes turn without the shift.
        world = np.concatenate((local[:m] @ rot + rt[:, 3:], local[m:]))
        return plate_rt, poses, world, np.concatenate((axes[:m] @ rot, axes[m:]))

    def _marker_at(self, plate_rt) -> np.ndarray:
        """World position of the marker corner at the state of a _placed block."""
        frames, plates, _ = self._frames(plate_rt)
        mu, mp, _ = self.spec.marker
        return frames[mu].compose(plates[mu][mp]).apply(self._marker)

    def world_vertices(self, thetas) -> dict:
        """World vertex arrays of every collision node at the given state."""
        world = self._placed(thetas)[2]
        return {
            node: world[i, :count]
            for i, (node, count) in enumerate(zip(self.nodes, self._counts))
        }

    def marker_world(self, thetas) -> np.ndarray:
        """World position of the spec's marker corner at the given state."""
        return self._marker_at(self._kinematics.rotations(thetas)[0])


def _nearest_rotation(pose: Pose) -> Pose:
    """pose with its rotation R replaced by its nearest rotation.

    One Newton step of the polar decomposition, 1.5 R - 0.5 R R^T R, takes
    R from the Pose check's 1e-9 to rounding; on 0 and +-1 entries it is exact.
    """
    r = pose.r
    return Pose(1.5 * r - 0.5 * (r @ r.T @ r), pose.t)


def _trimmed(unit: UnitSpec, u: int, k: int) -> np.ndarray:
    """Collision polygon of plate k of unit u: the plate, corner trimmed."""
    size = unit.plate_sizes[k]
    try:
        return trim_corner(plate_meshes(unit.alpha, size)[k], _TRIM_MM).vertices
    except DomainError as exc:
        raise DomainError(
            f"unit {u} plate {k} size {size!r} mm must exceed the "
            f"{_TRIM_MM} mm corner trim of its collision polygon"
        ) from exc


def build(spec: ManipulatorSpec) -> Manipulator:
    """Validate a spec and resolve its frame chain and collision model."""
    return Manipulator(spec)


# ---------------------------------------------------------------------------
# Presets


def _flush(length: float) -> Pose:
    """The shift that lays a plate edge to edge beside one of this length."""
    return Pose(np.eye(3), np.array([-length, 0.0, 0.0]))


def _weld(parent: int, child: int, length: float) -> Weld:
    """The presets' joint: child's input plate flush on parent's output plate."""
    return Weld(parent, 3, child, 0, _flush(length))


def preset_rotational(alpha1: float, alpha2: float) -> ManipulatorSpec:
    """Two Down units welded output plate to input plate, marker on the tip.

    The second unit's grounded plate is welded flush onto the first unit's
    output plate, edges aligned, so the pair forms a planar two-link arm
    whose joints are the two origami output folds.
    """
    units = (
        UnitSpec(alpha1, Configuration.DOWN),
        UnitSpec(alpha2, Configuration.DOWN),
    )
    connections = (
        Base(unit=0, plate=0),
        _weld(0, 1, M_DEFAULT),
    )
    return ManipulatorSpec(units, connections, (1, 3, 2))


def preset_translational(alpha: float, gamma: float, d: float) -> ManipulatorSpec:
    """Four units alternating Down/Up forming a zigzag that translates its tip.

    End plates keep the standard size m = 25 mm; the inner shared plates are
    sized f = d / tan(gamma) and q = d / cos(gamma) so that at maximum fold
    the zigzag rises by d per wall and runs level. The fan plates (2 and 3
    of every unit) are halved to m/2, mirroring the overlap-avoiding cuts of
    the physical build; this changes collision extents only, never the
    kinematics.
    """
    f, q = translational_link_lengths(gamma, d)
    if not min(f, q) > _TRIM_MM:
        bound = _TRIM_MM * max(math.tan(gamma), math.cos(gamma))
        raise DomainError(
            f"d = {d!r} leaves a zigzag plate (f = {f:.6g}, q = {q:.6g} mm) "
            f"no longer than the {_TRIM_MM} mm corner trim; d must exceed "
            f"{bound:.6g} mm at gamma = {math.degrees(gamma):.6g} deg"
        )
    m = M_DEFAULT
    fan = 0.5 * m
    down, up = Configuration.DOWN, Configuration.UP
    units = (
        UnitSpec(alpha, down, m, (m, fan, fan, f)),
        UnitSpec(alpha, up, m, (f, fan, fan, q)),
        UnitSpec(alpha, down, m, (q, fan, fan, f)),
        UnitSpec(alpha, up, m, (f, fan, fan, m)),
    )
    welds = (_weld(k, k + 1, length) for k, length in enumerate((f, q, f)))
    return ManipulatorSpec(units, (Base(unit=0, plate=0), *welds), (3, 3, 2))


def translational_link_lengths(gamma: float, d: float) -> tuple:
    """The zigzag plate lengths (f, q) for rise d at wall angle gamma."""
    if not 0.0 < gamma < math.pi / 2:
        raise DomainError(
            f"gamma = {gamma!r} outside (0, pi/2); the zigzag degenerates"
        )
    if not 0.0 < d < math.inf:
        raise DomainError(f"d = {d!r} must be finite and positive")
    return d / math.tan(gamma), d / math.cos(gamma)


def preset_modular(units, bounding_plate_side: float = M_DEFAULT) -> ManipulatorSpec:
    """Chain of units in two sub-chains at a right angle, grounded at the end.

    units[0] is the most distal joint (it carries the marker) and the last
    unit is grounded on a base slab. The chain is split in half; one square
    bounding plate joins the innermost distal unit to the outermost base
    side unit, turning the distal sub-chain 90 degrees in plan. A single
    unit builds a trivial grounded chain with no bounding plate.
    """
    units = tuple(units)
    n = len(units)
    if n == 0:
        raise SpecError("modular preset needs at least one unit")
    if not 0.0 < bounding_plate_side < math.inf:
        raise DomainError(
            f"bounding_plate_side = {bounding_plate_side!r} must be finite and positive"
        )
    s = bounding_plate_side
    ndist = (n + 1) // 2

    # The slab sits three quarters of the chain reach below the ground
    # plane: deep enough that folding the distal joints never touches it,
    # shallow enough that the base joint's swing runs into it part way.
    reach = sum(u.plate_sizes[3] for u in units) + (s if ndist < n else 0.0)
    slab_side = 2.0 * (reach + M_DEFAULT)
    slab_z = -0.75 * reach
    connections = [
        Base(
            unit=n - 1,
            plate=0,
            slab_side=slab_side,
            slab_center=(-0.5 * reach, 0.5 * units[n - 1].m, slab_z),
        )
    ]
    for k in range(n - 1, 0, -1):
        parent, child = k, k - 1
        p4 = units[parent].plate_sizes[3]
        if k == ndist:
            lc = units[child].plate_sizes[0]
            connections.append(
                BoundingPlate(
                    parent=parent,
                    parent_plate=3,
                    child=child,
                    child_plate=0,
                    side=s,
                    attach_parent=_flush(p4),
                    attach_child=Pose(
                        np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                        np.array([-s, s + lc, 0.0]),
                    ),
                )
            )
        else:
            connections.append(_weld(parent, child, p4))
    return ManipulatorSpec(units, tuple(connections), (0, 3, 2))


# ---------------------------------------------------------------------------
# Running schedules


@dataclass(frozen=True, eq=False, slots=True)
class Frame:
    """One trajectory sample: phase fraction, joint angles, marker position."""

    t: float
    theta1s: tuple
    marker: np.ndarray
    poses: tuple = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    frames: tuple
    meta: dict


def _node_rows(world: dict, pairs) -> tuple:
    """Node index arrays of a pair list, rows of world's node order."""
    index = {node: i for i, node in enumerate(world)}
    I = np.array([index[a] for a, _ in pairs], dtype=int)
    J = np.array([index[b] for _, b in pairs], dtype=int)
    return I, J


def pair_margins(world: dict, pairs) -> np.ndarray:
    """Separation margin of each node pair, given world_vertices output."""
    if not pairs:
        return np.empty(0)
    P = pad_polygons(list(world.values()))
    I, J = _node_rows(world, pairs)
    return polygon_margins_batch(P[I], P[J])


def _rounding_slack(P: np.ndarray) -> float:
    """Margins closer than this differ by rounding only, at polygons P's scale."""
    return 1e-12 * (1.0 + float(np.abs(P).max()))


def _clear_pairs(
    P: np.ndarray,
    axes: np.ndarray,
    keep: np.ndarray,
    I: np.ndarray,
    J: np.ndarray,
    clearance: float,
) -> np.ndarray:
    """Whether each pair (P[I], P[J]) has a separating-axis margin > clearance.

    Equal, pair for pair, to polygon_margins_batch(P[I], P[J]) > clearance.
    axes and keep are the polygons' own axes and mask, as plate_axis_bounds
    takes them; run() passes the axes Manipulator._placed places with the
    vertices, which equal plate_axes(P)'s up to rounding, because the build
    holds every rotation of the chain to its nearest rotation.
    plate_axis_bounds certifies most pairs clear at a fraction of the
    kernel's cost; only the rest reach polygon_margins_batch. The bound and
    the kernel derive their axes and project by different routines, so a
    pair is certified only when its bound clears the clearance by far more
    than their difference can reach; every other pair gets the kernel's
    own decision. run() takes its watched set at the start and checks
    every step through this one routine.
    """
    if not len(I):
        return np.ones(0, dtype=bool)
    clear = plate_axis_bounds(P, axes, keep, I, J) > clearance + _rounding_slack(P)
    near = ~clear
    if near.any():
        clear[near] = polygon_margins_batch(P[I[near]], P[J[near]]) > clearance
    return clear


def run(
    manipulator: Manipulator,
    schedule: ActivationSchedule,
    collision_clearance: float = CLEARANCE_DEFAULT,
    include_poses: bool = False,
) -> Trajectory:
    """Drive the manipulator through a schedule, collision-checking each step.

    Every unit starts at its semi-flat state. The schedule runs as legs: a
    leg moves its units linearly from where they stand toward its targets
    over its own steps, commits a step only if no watched plate pair comes
    within the clearance, and halts at its last collision-free step.
    Sequential mode runs one leg per phase i, its frames at t in (i, i + 1];
    simultaneous mode runs one leg of every phase target over max(steps)
    substeps, its frames at t in (0, 1], so a blocked substep halts the run.

    Watched pairs are the non-adjacent plate pairs of the assembly; pairs
    already within the clearance at the initial state, up to rounding, are
    structural (for example the fold neighbours of a welded plate pair)
    and stay exempt for the run. An empty schedule yields the single
    initial frame; a schedule that breaks a rule of _schedule_fault raises
    SpecError before any state is placed.
    """
    # A NaN or infinite clearance would leave no pair watched, so no step
    # would ever be checked; the comparison below also rejects NaN.
    if not 0.0 <= collision_clearance < math.inf:
        raise DomainError(
            f"collision clearance = {collision_clearance!r} must be finite "
            "and nonnegative"
        )
    units = manipulator.units
    fault = _schedule_fault(schedule, len(units))
    if fault:
        raise SpecError(fault[1])

    thetas = manipulator.semi_flat_thetas()
    keep = manipulator._keep
    plate_rt, poses, world, axes = manipulator._placed(thetas)
    I, J = manipulator._pair_rows
    # A pair that touches by construction starts a rounding error from
    # contact, on either side; it is structural at clearance 0 too.
    structural = collision_clearance + _rounding_slack(world)
    watched = _clear_pairs(world, axes, keep, I, J, structural)
    wi, wj = I[watched], J[watched]

    def placed_if_clear(cand):
        """(plate_rt, poses) of _placed at cand, or None if a watched pair is blocked."""
        plate_rt, poses, world, axes = manipulator._placed(cand)
        clear = _clear_pairs(world, axes, keep, wi, wj, collision_clearance)
        return (plate_rt, poses) if clear.all() else None

    frames = []
    mu, mp, _ = manipulator.spec.marker

    def make_frame(t: float, plate_rt: np.ndarray, poses: tuple) -> Frame:
        """The frame at the current thetas, placed as _placed placed them."""
        if not include_poses:
            return Frame(t, tuple(thetas), manipulator._marker_at(plate_rt), None)
        if frames:
            # A plate that has not moved since the last frame keeps that
            # frame's Pose, so a long run holds one object per resting
            # plate instead of one per frame.
            poses = tuple(
                old if old.rt.tobytes() == new.rt.tobytes() else new
                for new, old in zip(poses, frames[-1].poses)
            )
        # The marker plate's pose is the compose _marker_at would make.
        marker = poses[4 * mu + mp].apply(manipulator._marker)
        return Frame(t, tuple(thetas), marker, poses)

    frames.append(make_frame(0.0, plate_rt, poses))
    requested = [ph.steps for ph in schedule.phases]
    # A leg: (t at its start, its steps, the phases it covers, its targets).
    legs = [
        (pi, ph.steps, 1, {ph.unit: _target_theta1(ph.target, units[ph.unit])})
        for pi, ph in enumerate(schedule.phases)
    ]
    if schedule.mode is Mode.SIMULTANEOUS and legs:
        targets = {u: tgt for *_, leg in legs for u, tgt in leg.items()}
        legs = [(0, max(requested), len(legs), targets)]

    committed = []
    for offset, steps, nphases, targets in legs:
        starts = list(thetas)
        ncommit = 0
        for s in range(1, steps + 1):
            cand = list(thetas)
            for u, tgt in targets.items():
                cand[u] = starts[u] + (tgt - starts[u]) * s / steps
            placed = placed_if_clear(cand)
            if placed is None:
                break
            thetas = cand
            ncommit = s
            frames.append(make_frame(offset + s / steps, *placed))
        committed += [ncommit] * nphases

    gammas = [
        ph.target.gamma for ph in schedule.phases if isinstance(ph.target, MPF)
    ]
    meta = {
        "gamma_deg": math.degrees(gammas[0] if gammas else GAMMA_DEFAULT),
        "alphas_deg": [math.degrees(u.alpha) for u in units],
        "axes": AXES_NOTE,
        "mode": schedule.mode.value,
        "clearance_mm": float(collision_clearance),
        "spec_sha256": spec_sha256(manipulator.spec),
        "phase_units": [ph.unit for ph in schedule.phases],
        "phase_requested_steps": requested,
        "phase_committed_steps": committed,
    }
    return Trajectory(tuple(frames), meta)


PLANES = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}


def workspace_projection(traj: Trajectory, plane: str) -> np.ndarray:
    """Marker positions projected onto a coordinate plane, frame order kept."""
    key = str(plane).lower()
    if key not in PLANES:
        raise DomainError(f"plane {plane!r} not one of XY, YZ, XZ")
    if len(traj.frames) == 0:
        raise DomainError("trajectory has no frames")
    i, j = PLANES[key]
    return np.array([[f.marker[i], f.marker[j]] for f in traj.frames])
