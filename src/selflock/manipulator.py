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
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PlateMesh,
    Pose,
    pad_polygons,
    plate_axis_bounds,
    plate_meshes,
    polygon_margins_batch,
    trim_corner,
    unit_poses,
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


class SpecError(ValueError):
    """A manipulator spec, schedule, or spec file failed validation."""


@dataclass(frozen=True)
class UnitSpec:
    """One origami unit: plate angle, assembly branch, and plate sizes.

    plate_m optionally overrides the edge length of each of the four
    plates (used by the translational manipulator, whose inner plates are
    sized by the zigzag geometry). Overrides never change central angles.
    """

    alpha: float
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
            "units": [_unit_to_json(u) for u in self.units],
            "connections": [_conn_to_json(c) for c in self.connections],
            "marker": {
                "unit": self.marker[0],
                "plate": self.marker[1],
                "corner": self.marker[2],
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ManipulatorSpec":
        try:
            units = tuple(_unit_from_json(u) for u in data["units"])
            conns = tuple(_conn_from_json(c) for c in data["connections"])
            mk = data["marker"]
            marker = (int(mk["unit"]), int(mk["plate"]), int(mk["corner"]))
        except SpecError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SpecError(f"malformed manipulator spec: {exc}") from exc
        return cls(units, conns, marker)


def _pose_to_json(p: Pose) -> dict:
    return {"r": [[float(v) for v in row] for row in p.r], "t_mm": [float(v) for v in p.t]}


def _pose_from_json(d: dict) -> Pose:
    try:
        return Pose(np.array(d["r"], dtype=float), np.array(d["t_mm"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed pose: {exc}") from exc


def _unit_to_json(u: UnitSpec) -> dict:
    out = {
        "alpha_deg": math.degrees(u.alpha),
        "config": u.config.value,
        "m_mm": u.m,
    }
    if u.plate_m is not None:
        out["plate_m_mm"] = list(u.plate_m)
    return out


def _unit_from_json(d: dict) -> UnitSpec:
    try:
        return UnitSpec(
            alpha=math.radians(float(d["alpha_deg"])),
            config=Configuration(str(d["config"]).lower()),
            m=float(d.get("m_mm", M_DEFAULT)),
            plate_m=tuple(d["plate_m_mm"]) if "plate_m_mm" in d else None,
        )
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed unit spec: {exc}") from exc


def _conn_to_json(c) -> dict:
    if isinstance(c, Weld):
        return {
            "kind": "weld",
            "parent": c.parent,
            "parent_plate": c.parent_plate,
            "child": c.child,
            "child_plate": c.child_plate,
            "rel": _pose_to_json(c.rel),
        }
    if isinstance(c, BoundingPlate):
        return {
            "kind": "bounding_plate",
            "parent": c.parent,
            "parent_plate": c.parent_plate,
            "child": c.child,
            "child_plate": c.child_plate,
            "side_mm": c.side,
            "attach_parent": _pose_to_json(c.attach_parent),
            "attach_child": _pose_to_json(c.attach_child),
        }
    if isinstance(c, Base):
        return {
            "kind": "base",
            "unit": c.unit,
            "plate": c.plate,
            "pose": _pose_to_json(c.pose),
            "slab_side_mm": c.slab_side,
            "slab_center_mm": list(c.slab_center),
        }
    raise SpecError(f"unknown connection type {type(c).__name__}")


def _conn_from_json(d: dict):
    try:
        kind = d["kind"]
        if kind == "weld":
            return Weld(
                int(d["parent"]),
                int(d["parent_plate"]),
                int(d["child"]),
                int(d["child_plate"]),
                _pose_from_json(d["rel"]),
            )
        if kind == "bounding_plate":
            return BoundingPlate(
                int(d["parent"]),
                int(d["parent_plate"]),
                int(d["child"]),
                int(d["child_plate"]),
                float(d["side_mm"]),
                _pose_from_json(d["attach_parent"]),
                _pose_from_json(d["attach_child"]),
            )
        if kind == "base":
            return Base(
                int(d["unit"]),
                int(d.get("plate", 0)),
                _pose_from_json(d["pose"]) if "pose" in d else Pose.identity(),
                float(d.get("slab_side_mm", 0.0)),
                tuple(float(v) for v in d.get("slab_center_mm", (0.0, 0.0, 0.0))),
            )
        raise SpecError(f"unknown connection kind {kind!r}")
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed connection: {exc}") from exc


def spec_sha256(spec: ManipulatorSpec) -> str:
    """Stable content hash of a spec's canonical JSON form."""
    canon = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Activation schedules


@dataclass(frozen=True)
class MPF:
    """Fold until |theta4| reaches gamma (maximum possible fold)."""

    gamma: float = GAMMA_DEFAULT


@dataclass(frozen=True)
class SemiFlat:
    """Return to the semi-flat state."""


@dataclass(frozen=True)
class OutputAngle:
    """Fold until |theta4| reaches the given magnitude."""

    angle: float


@dataclass(frozen=True)
class Phase:
    unit: int
    target: object
    steps: int


class Mode(enum.Enum):
    SEQUENTIAL = "sequential"
    SIMULTANEOUS = "simultaneous"


@dataclass(frozen=True)
class ActivationSchedule:
    """Ordered phases, each driving one unit toward a target state.

    Sequential mode runs the phases one after another; simultaneous mode
    interpolates all phase targets in lockstep over a shared step grid.
    """

    phases: tuple
    mode: Mode = Mode.SEQUENTIAL


def _target_theta1(target, alpha: float, config: Configuration) -> float:
    if isinstance(target, MPF):
        return mpf_theta1(alpha, target.gamma, config)
    if isinstance(target, SemiFlat):
        return semi_flat_theta1(alpha, config)
    if isinstance(target, OutputAngle):
        return theta1_of_theta4(alpha, config.sign * target.angle, config)
    raise SpecError(f"unknown phase target {target!r}")


# ---------------------------------------------------------------------------
# Built manipulator


class Manipulator:
    """Validated assembly with resolved frame chain and collision pair list.

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
        self._children = {}
        self._parent_conn = {}
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
            if c.child in self._parent_conn:
                raise SpecError(f"unit {c.child} attached by more than one connection")
            if c.child == self.base.unit:
                raise SpecError("the grounded unit cannot also be a weld child")
            self._parent_conn[c.child] = c
            self._children.setdefault(c.parent, []).append((ci, c))

        # Every unit must reach the base through parent links, with no cycles.
        for u in range(n):
            seen = set()
            cur = u
            while cur != self.base.unit:
                if cur in seen:
                    raise SpecError("connection graph contains a cycle")
                seen.add(cur)
                conn = self._parent_conn.get(cur)
                if conn is None:
                    raise SpecError(f"unit {cur} is not connected to the base")
                cur = conn.parent

        mu, mp, mc = spec.marker
        if not (0 <= mu < n and 0 <= mp <= 3 and 0 <= mc <= 3):
            raise SpecError(f"marker {spec.marker!r} does not resolve")

        # Topological order, parents before children.
        order = [self.base.unit]
        queue = [self.base.unit]
        while queue:
            u = queue.pop(0)
            for _, c in self._children.get(u, []):
                order.append(c.child)
                queue.append(c.child)
        self._order = order

        # Plate meshes, plain for the marker and trimmed for collisions.
        self._plain = []
        self._coll = []
        for u in spec.units:
            plain = tuple(
                plate_meshes(u.alpha, size)[k] for k, size in enumerate(u.plate_sizes)
            )
            self._plain.append(plain)
            self._coll.append(tuple(trim_corner(msh, _TRIM_MM) for msh in plain))

        # Collision nodes: ("p", unit, plate), ("bp", conn index), ("slab",).
        self.nodes = [("p", u, k) for u in range(n) for k in range(4)]
        self._bp_verts = {}
        for ci, c in enumerate(spec.connections):
            if isinstance(c, BoundingPlate):
                self.nodes.append(("bp", ci))
                s = c.side
                self._bp_verts[ci] = np.array(
                    [[0.0, 0.0, 0.0], [0.0, s, 0.0], [-s, s, 0.0], [-s, 0.0, 0.0]]
                )
        self._slab_mesh = None
        if self.base.slab_side > 0.0:
            self.nodes.append(("slab",))
            h = 0.5 * self.base.slab_side
            cx, cy, cz = self.base.slab_center
            self._slab_mesh = PlateMesh(
                np.array(
                    [
                        [cx - h, cy - h, cz],
                        [cx + h, cy - h, cz],
                        [cx + h, cy + h, cz],
                        [cx - h, cy + h, cz],
                    ]
                ),
                math.pi / 2,
                False,
            )

        # Rigid bodies by union-find over nodes plus the ground.
        parent_of = {node: node for node in self.nodes}
        parent_of["ground"] = "ground"

        def find(x):
            while parent_of[x] != x:
                parent_of[x] = parent_of[parent_of[x]]
                x = parent_of[x]
            return x

        def union(a, b):
            parent_of[find(a)] = find(b)

        union(("p", self.base.unit, self.base.plate), "ground")
        if self._slab_mesh is not None:
            union(("slab",), "ground")
        for ci, c in enumerate(spec.connections):
            if isinstance(c, Weld):
                union(("p", c.parent, c.parent_plate), ("p", c.child, c.child_plate))
            elif isinstance(c, BoundingPlate):
                union(("p", c.parent, c.parent_plate), ("bp", ci))
                union(("bp", ci), ("p", c.child, c.child_plate))
        self._body = {node: find(node) for node in self.nodes}

        folds = set()
        for u in range(n):
            for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
                folds.add((("p", u, a), ("p", u, b)))
                folds.add((("p", u, b), ("p", u, a)))

        self.pairs = []
        for i in range(len(self.nodes)):
            for j in range(i + 1, len(self.nodes)):
                a, b = self.nodes[i], self.nodes[j]
                if self._body[a] == self._body[b]:
                    continue
                if (a, b) in folds:
                    continue
                self.pairs.append((a, b))

    @property
    def dof(self) -> int:
        """Free scalar joints: one theta1 per unit."""
        return len(self.units)

    def semi_flat_thetas(self) -> list:
        return [semi_flat_theta1(u.alpha, u.config) for u in self.units]

    def _frames(self, thetas):
        """Unit base poses and per-unit pose sets at the given theta1 values."""
        psets = [
            unit_poses(u.alpha, thetas[i], u.config, u.m)
            for i, u in enumerate(self.units)
        ]
        frames = {}
        bp_world = {}
        bu = self.base.unit
        frames[bu] = self.base.pose.compose(psets[bu].poses[self.base.plate].inverse())
        for u in self._order:
            for ci, c in self._children.get(u, []):
                pworld = frames[u].compose(psets[u].poses[c.parent_plate])
                if isinstance(c, Weld):
                    child_base = pworld.compose(c.rel)
                else:
                    plate_world = pworld.compose(c.attach_parent)
                    bp_world[ci] = plate_world
                    child_base = plate_world.compose(c.attach_child)
                frames[c.child] = child_base.compose(
                    psets[c.child].poses[c.child_plate].inverse()
                )
        return frames, psets, bp_world

    def world_vertices(self, thetas) -> dict:
        """World vertex arrays of every collision node at the given state."""
        frames, psets, bp_world = self._frames(thetas)
        out = {}
        for node in self.nodes:
            if node[0] == "p":
                _, u, k = node
                pose = frames[u].compose(psets[u].poses[k])
                out[node] = pose.apply(self._coll[u][k].vertices)
            elif node[0] == "bp":
                ci = node[1]
                out[node] = bp_world[ci].apply(self._bp_verts[ci])
            else:
                out[node] = self._slab_mesh.vertices.copy()
        return out

    def marker_world(self, thetas) -> np.ndarray:
        """World position of the spec's marker corner at the given state."""
        frames, psets, _ = self._frames(thetas)
        mu, mp, mc = self.spec.marker
        pose = frames[mu].compose(psets[mu].poses[mp])
        return pose.apply(self._plain[mu][mp].vertices[mc])


def build(spec: ManipulatorSpec) -> Manipulator:
    """Validate a spec and resolve its frame chain and collision model."""
    return Manipulator(spec)


# ---------------------------------------------------------------------------
# Presets


def preset_rotational(alpha1: float, alpha2: float) -> ManipulatorSpec:
    """Two Down units welded output plate to input plate, marker on the tip.

    The second unit's grounded plate is welded flush onto the first unit's
    output plate, edges aligned, so the pair forms a planar two-link arm
    whose joints are the two origami output folds.
    """
    m = M_DEFAULT
    units = (
        UnitSpec(alpha1, Configuration.DOWN),
        UnitSpec(alpha2, Configuration.DOWN),
    )
    connections = (
        Base(unit=0, plate=0),
        Weld(
            parent=0,
            parent_plate=3,
            child=1,
            child_plate=0,
            rel=Pose(np.eye(3), np.array([-m, 0.0, 0.0])),
        ),
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
    if not 0.0 < gamma < math.pi / 2:
        raise DomainError(
            f"gamma = {gamma!r} outside (0, pi/2); the zigzag degenerates"
        )
    if not 0.0 < d < math.inf:
        raise DomainError(f"d = {d!r} must be finite and positive")
    m = M_DEFAULT
    fan = 0.5 * m
    f = d / math.tan(gamma)
    q = d / math.cos(gamma)
    down, up = Configuration.DOWN, Configuration.UP
    units = (
        UnitSpec(alpha, down, m, (m, fan, fan, f)),
        UnitSpec(alpha, up, m, (f, fan, fan, q)),
        UnitSpec(alpha, down, m, (q, fan, fan, f)),
        UnitSpec(alpha, up, m, (f, fan, fan, m)),
    )
    links = (f, q, f)
    connections = [Base(unit=0, plate=0)]
    for k, length in enumerate(links):
        connections.append(
            Weld(
                parent=k,
                parent_plate=3,
                child=k + 1,
                child_plate=0,
                rel=Pose(np.eye(3), np.array([-length, 0.0, 0.0])),
            )
        )
    return ManipulatorSpec(units, tuple(connections), (3, 3, 2))


def translational_link_lengths(gamma: float, d: float) -> tuple:
    """The zigzag plate lengths (f, q) for rise d at wall angle gamma."""
    if not 0.0 < gamma < math.pi / 2:
        raise DomainError(f"gamma = {gamma!r} outside (0, pi/2)")
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
        if k == ndist and ndist < n:
            lc = units[child].plate_sizes[0]
            connections.append(
                BoundingPlate(
                    parent=parent,
                    parent_plate=3,
                    child=child,
                    child_plate=0,
                    side=s,
                    attach_parent=Pose(np.eye(3), np.array([-p4, 0.0, 0.0])),
                    attach_child=Pose(
                        np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                        np.array([-s, s + lc, 0.0]),
                    ),
                )
            )
        else:
            connections.append(
                Weld(
                    parent=parent,
                    parent_plate=3,
                    child=child,
                    child_plate=0,
                    rel=Pose(np.eye(3), np.array([-p4, 0.0, 0.0])),
                )
            )
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


def _collides(P: np.ndarray, I: np.ndarray, J: np.ndarray, clearance: float) -> bool:
    """Whether any pair (P[I], P[J]) has a separating-axis margin <= clearance.

    plate_axis_bounds certifies most pairs clear at a fraction of the
    kernel's cost; only the rest reach polygon_margins_batch. The bound and
    the kernel project with different numpy routines, so a pair is
    certified only when its bound clears the clearance by far more than
    their rounding difference; the decision is then the kernel's own.
    """
    if not len(I):
        return False
    slack = 1e-12 * (1.0 + float(np.abs(P).max()))
    near = plate_axis_bounds(P, I, J) <= clearance + slack
    if not near.any():
        return False
    return bool((polygon_margins_batch(P[I[near]], P[J[near]]) <= clearance).any())


def run(
    manipulator: Manipulator,
    schedule: ActivationSchedule,
    collision_clearance: float = CLEARANCE_DEFAULT,
    include_poses: bool = False,
) -> Trajectory:
    """Drive the manipulator through a schedule, collision-checking each step.

    Every unit starts at its semi-flat state. Sequential mode folds one
    unit per phase from its current theta1 toward the phase target,
    linearly over the phase's steps; a candidate step is committed only if
    no watched plate pair comes within the clearance, and the phase halts
    at the last collision-free step. Simultaneous mode interpolates all
    phase targets in lockstep on a shared grid of max(steps) substeps and
    halts the whole run on the first blocked substep.

    Watched pairs are the non-adjacent plate pairs of the assembly; pairs
    already within the clearance at the initial state are structural (for
    example the fold neighbours of a welded plate pair) and stay exempt
    for the run. An empty schedule yields the single initial frame.
    """
    # A NaN or infinite clearance would leave no pair watched, so no step
    # would ever be checked; the comparison below also rejects NaN.
    if not 0.0 <= collision_clearance < math.inf:
        raise DomainError(
            f"collision clearance = {collision_clearance!r} must be finite "
            "and nonnegative"
        )
    units = manipulator.units
    for ph in schedule.phases:
        if not 0 <= ph.unit < len(units):
            raise SpecError(f"schedule references unit {ph.unit}, out of range")
        if ph.steps < 1:
            raise SpecError("phase steps must be at least 1")

    thetas = manipulator.semi_flat_thetas()
    world0 = manipulator.world_vertices(thetas)
    margins0 = pair_margins(world0, manipulator.pairs)
    watched = [
        pair
        for pair, margin in zip(manipulator.pairs, margins0)
        if margin > collision_clearance
    ]
    wi, wj = _node_rows(world0, watched)

    def blocked(cand) -> bool:
        P = pad_polygons(list(manipulator.world_vertices(cand).values()))
        return _collides(P, wi, wj, collision_clearance)

    frames = []

    def make_frame(t: float) -> Frame:
        poses = None
        if include_poses:
            frames_, psets, _ = manipulator._frames(thetas)
            poses = tuple(
                frames_[i].compose(psets[i].poses[k])
                for i in range(len(units))
                for k in range(4)
            )
            if frames:
                # A plate that has not moved since the last frame keeps that
                # frame's Pose, so a long run holds one object per resting
                # plate instead of one per frame.
                poses = tuple(
                    old if old.rt.tobytes() == new.rt.tobytes() else new
                    for new, old in zip(poses, frames[-1].poses)
                )
        return Frame(t, tuple(thetas), manipulator.marker_world(thetas), poses)

    frames.append(make_frame(0.0))
    committed = []
    requested = [ph.steps for ph in schedule.phases]

    if schedule.mode is Mode.SEQUENTIAL:
        for pi, ph in enumerate(schedule.phases):
            u = ph.unit
            start = thetas[u]
            tgt = _target_theta1(ph.target, units[u].alpha, units[u].config)
            ncommit = 0
            for s in range(1, ph.steps + 1):
                cand = list(thetas)
                cand[u] = start + (tgt - start) * s / ph.steps
                if blocked(cand):
                    break
                thetas = cand
                ncommit = s
                frames.append(make_frame(pi + s / ph.steps))
            committed.append(ncommit)
    else:
        starts = list(thetas)
        targets = {}
        for ph in schedule.phases:
            targets[ph.unit] = _target_theta1(
                ph.target, units[ph.unit].alpha, units[ph.unit].config
            )
        total = max(ph.steps for ph in schedule.phases) if schedule.phases else 0
        ncommit = 0
        for s in range(1, total + 1):
            frac = s / total
            cand = list(thetas)
            for u, tgt in targets.items():
                cand[u] = starts[u] + (tgt - starts[u]) * frac
            if blocked(cand):
                break
            thetas = cand
            ncommit = s
            frames.append(make_frame(frac))
        committed = [ncommit for _ in schedule.phases]

    gammas = [
        ph.target.gamma for ph in schedule.phases if isinstance(ph.target, MPF)
    ]
    meta = {
        "axes": AXES_NOTE,
        "alphas_deg": [math.degrees(u.alpha) for u in units],
        "gamma_deg": math.degrees(gammas[0] if gammas else GAMMA_DEFAULT),
        "spec_sha256": spec_sha256(manipulator.spec),
        "mode": schedule.mode.value,
        "clearance_mm": collision_clearance,
        "phase_units": [ph.unit for ph in schedule.phases],
        "phase_requested_steps": requested,
        "phase_committed_steps": committed,
    }
    return Trajectory(tuple(frames), meta)


_PLANES = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}


def workspace_projection(traj: Trajectory, plane: str) -> np.ndarray:
    """Marker positions projected onto a coordinate plane, frame order kept."""
    key = str(plane).lower()
    if key not in _PLANES:
        raise DomainError(f"plane {plane!r} not one of XY, YZ, XZ")
    if len(traj.frames) == 0:
        raise DomainError("trajectory has no frames")
    i, j = _PLANES[key]
    return np.array([[f.marker[i], f.marker[j]] for f in traj.frames])
