"""Seeded workloads of the selflock benchmark.

setup(seed, workdir) draws a workload's inputs from the seed, builds what
its operations need and returns the operations in run order. An Op's
call() is the timed part. Its check() runs after the pass, outside the
timed region, raises CheckError on a wrong output and otherwise returns
the number of rows the op produced and its CLI exports by label.

The checks test invariants, not pinned bytes: exit codes, parseable
exports with the expected row counts, committed steps within the request,
watched plate pairs clear at the final state, closed loops, and the closed
form against the root-finding oracle. Every library name is looked up on
its module at call time, so the tracer's wrappers see these calls.
"""

from __future__ import annotations

import io
import json
import math
import random
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from selflock import cli, linkage
from selflock import manipulator as M
from selflock.geometry import loop_closure_error, unit_poses
from selflock.linkage import CentralAngles, Configuration

from perfbench.tracing import steps_of

CLOSURE_TOL = 1e-9
ORACLE_TOL = 1e-9

# chain-collide: (units, steps per phase) of the modular chains. Which
# phases block, and so how many steps a run checks, jumps with the alphas
# (up to +-15% over 88.8..89.2 degrees). Within +-0.05 degrees of the 89
# degree operating point it moved by one step in eight seeds tried, so the
# seed varies every alpha but hardly the amount of work.
CHAINS = ((4, 20), (8, 10), (16, 4))
CHAIN_ALPHA_DEG = (88.95, 89.05)

# pose-chain: the CLI's default schedules of the two presets, passed inline,
# written into the --spec files and run through the library as well. Both
# rotational units share the seeded alpha: with two different alphas the
# first phase can block after 3 of 60 steps (86.8 and 88.0 degrees), which
# halves that preset's checked steps. With one shared alpha anywhere in
# 80..89.5 degrees neither preset blocks.
POSE_STEPS = 60
POSE_ALPHA_DEG = (80.0, 89.5)
SVG_PLANES = "xz,xy"

# joint-tables: jobs of each kind in one pass, and the fixed table sizes.
JOBS_PER_KIND = 60
SWEEP_STEPS = 121
MOMENT_STEPS = 181  # the CLI default grid
TABLE_ALPHA_DEG = (50.0, 89.5)


class CheckError(Exception):
    """An operation's output broke one of the benchmark's invariants."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    group: str = ""


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _cli(argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _run(manip, schedule, include_poses=False):
    return M.run(manip, schedule, include_poses=include_poses)


def _export(res: CliResult, path=None) -> str:
    if res.code != 0:
        raise CheckError(f"exit code {res.code}: {res.stderr.strip()}")
    return Path(path).read_text() if path else res.stdout


def _csv_rows(text: str, ncols: int) -> int:
    lines = text.splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != ncols:
            raise CheckError(f"csv row has {len(cells)} cells, expected {ncols}")
        for v in cells:
            float(v)
    return len(lines) - 1


def _expect_rows(got: int, want: int, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: {got} rows, expected {want}")


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _schedule(table: dict) -> M.ActivationSchedule:
    """Library schedule of a spec-file schedule table (mpf and out targets)."""
    phases = []
    for ph in table["phases"]:
        if ph["target"] == "mpf":
            target = M.MPF()
        else:
            target = M.OutputAngle(math.radians(ph["angle_deg"]))
        phases.append(M.Phase(ph["unit"], target, ph["steps"]))
    return M.ActivationSchedule(tuple(phases), M.Mode(table["mode"]))


class TrajectoryCheck:
    """Invariants of one library run() result on a built manipulator."""

    def __init__(self, manip, include_poses=False):
        self.manip = manip
        self.include_poses = include_poses
        self._watched = None

    def watched(self) -> list:
        # The pairs run() watches: those clear of each other at the start.
        if self._watched is None:
            m = self.manip
            margins = M.pair_margins(m.world_vertices(m.semi_flat_thetas()), m.pairs)
            self._watched = [
                p for p, v in zip(m.pairs, margins) if v > M.CLEARANCE_DEFAULT
            ]
        return self._watched

    def __call__(self, traj) -> tuple:
        req = traj.meta["phase_requested_steps"]
        com = traj.meta["phase_committed_steps"]
        if len(com) != len(req) or any(not 0 <= c <= r for c, r in zip(com, req)):
            raise CheckError(f"committed steps {com} exceed requested {req}")
        if not traj.frames:
            raise CheckError("trajectory has no frames")
        final = list(traj.frames[-1].theta1s)
        watched = self.watched()
        if watched:
            worst = float(M.pair_margins(self.manip.world_vertices(final), watched).min())
            if worst <= M.CLEARANCE_DEFAULT:
                raise CheckError(f"final watched margin {worst:.3g} mm within clearance")
        for u, th in zip(self.manip.units, final):
            err = loop_closure_error(unit_poses(u.alpha, th, u.config, u.m))
            if err > CLOSURE_TOL:
                raise CheckError(f"final loop closure error {err:.3g}")
        if self.include_poses:
            n = 4 * len(self.manip.units)
            if any(f.poses is None or len(f.poses) != n for f in traj.frames):
                raise CheckError("frames lack the requested plate poses")
        return len(traj.frames), {}


# ---------------------------------------------------------------------------
# chain-collide


def chain_collide(seed: int, workdir: Path) -> list:
    """Library run() on seeded modular chains of 4, 8 and 16 units."""
    rng = random.Random(seed)
    ops = []
    for n, steps in CHAINS:
        units = tuple(
            M.UnitSpec(math.radians(rng.uniform(*CHAIN_ALPHA_DEG)), Configuration.DOWN)
            for _ in range(n)
        )
        manip = M.build(M.preset_modular(units))
        schedule = M.ActivationSchedule(
            tuple(M.Phase(i, M.MPF(), steps) for i in range(n)), M.Mode.SEQUENTIAL
        )
        ops.append(
            Op(f"n{n}", partial(_run, manip, schedule), TrajectoryCheck(manip), group=f"n{n}")
        )
    return ops


# ---------------------------------------------------------------------------
# pose-chain


def _pose_schedule(preset: str) -> dict:
    """The CLI's default schedule of a preset, as a spec-file table."""
    if preset == "rotational":
        mode, targets = "sequential", ("mpf", "mpf")
    else:
        mode, targets = "simultaneous", ("out", "mpf", "mpf", "out")
    phases = []
    for unit, target in enumerate(targets):
        ph = {"unit": unit, "target": target, "steps": POSE_STEPS}
        if target == "out":
            ph["angle_deg"] = 90.0
        phases.append(ph)
    return {"mode": mode, "phases": phases}


class ManipExportCheck:
    """CLI manip exports: json first, then csv and svg of the same run."""

    def __init__(self, fmt: str, path: Path, units: int, frames: dict, key: str):
        self.fmt, self.path, self.units = fmt, path, units
        self.frames, self.key = frames, key

    def __call__(self, res: CliResult) -> tuple:
        text = _export(res, self.path)
        if self.fmt == "json":
            data = json.loads(text)
            req = data["meta"]["phase_requested_steps"]
            com = data["meta"]["phase_committed_steps"]
            if any(not 0 <= c <= r for c, r in zip(com, req)):
                raise CheckError(f"committed steps {com} exceed requested {req}")
            rows = len(data["frames"])
            if rows < 1:
                raise CheckError("trajectory export has no frames")
            self.frames[self.key] = rows
        elif self.fmt == "csv":
            rows = _csv_rows(text, 1 + self.units + 3)
            _expect_rows(rows, self.frames[self.key], "manip csv")
        else:
            root = ET.fromstring(text)
            lines = root.findall("{http://www.w3.org/2000/svg}polyline")
            if len(lines) != len(SVG_PLANES.split(",")):
                raise CheckError(f"svg has {len(lines)} projections")
            rows = self.frames[self.key]
            for pl in lines:
                _expect_rows(len(pl.get("points").split()), rows, "svg polyline")
        return rows, {self.path.name: text.encode()}


def pose_chain(seed: int, workdir: Path) -> list:
    """CLI manip by name and by --spec in three formats, plus run(poses)."""
    rng = random.Random(seed)
    frames = {}
    ops = []
    for preset in ("rotational", "translational"):
        alpha = round(rng.uniform(*POSE_ALPHA_DEG), 6)
        rad = math.radians(alpha)
        if preset == "rotational":
            spec = M.preset_rotational(rad, rad)
        else:
            spec = M.preset_translational(rad, M.GAMMA_DEFAULT, M.M_DEFAULT)
        manip = M.build(spec)
        table = _pose_schedule(preset)
        spec_path = workdir / f"{preset}.spec.json"
        spec_path.write_text(json.dumps({**spec.to_json_dict(), "schedule": table}))
        ops.append(
            Op(f"{preset}.run", partial(_run, manip, _schedule(table), True),
               TrajectoryCheck(manip, include_poses=True))
        )
        # By name the schedule goes inline, through --spec as JSON, so both
        # schedule parsers are timed.
        inline = ",".join(
            f"{ph['unit'] + 1}:{'mpf' if ph['target'] == 'mpf' else 'out90'}:{ph['steps']}"
            for ph in table["phases"]
        )
        sources = (
            ("name", ["manip", preset, "--alpha-deg", str(alpha), "--schedule", inline]),
            ("spec", ["manip", "--spec", str(spec_path)]),
        )
        for source, argv in sources:
            for fmt in ("json", "csv", "svg"):
                path = workdir / f"{preset}-{source}.{fmt}"
                extra = ["--plane", SVG_PLANES] if fmt == "svg" else []
                check = ManipExportCheck(fmt, path, len(spec.units), frames,
                                         f"{preset}-{source}")
                ops.append(
                    Op(path.name,
                       partial(_cli, argv + ["--format", fmt, "--out", str(path)] + extra),
                       check)
                )
    return ops


# ---------------------------------------------------------------------------
# joint-tables


def _table_check(path: Path, cols: int, steps: int, fmt: str, res: CliResult) -> tuple:
    text = _export(res, path)
    if fmt == "csv":
        rows = _csv_rows(text, cols)
    else:
        rows = len(json.loads(text)["rows"])
    _expect_rows(rows, steps, path.name)
    return rows, {path.name: text.encode()}


def _states_check(label: str, res: CliResult) -> tuple:
    data = json.loads(_export(res))
    for key in ("semi_flat", "mpf"):
        angles = [data[key][f"theta{i}_deg"] for i in range(1, 5)]
        if not all(math.isfinite(a) for a in angles):
            raise CheckError(f"{key} state has a non-finite angle")
    return 2, {label: res.stdout.encode()}


def _oracle_call(angles, alpha, theta1, config):
    return linkage.oracle_roots(angles, theta1), linkage.joint_state(alpha, theta1, config).theta4


def _oracle_check(result) -> tuple:
    roots, theta4 = result
    gap = min((_circ_dist(theta4, r) for r in roots), default=math.inf)
    if gap > ORACLE_TOL:
        raise CheckError(f"closed-form theta4 {gap:.3g} rad from the nearest oracle root")
    return 0, {}


def joint_tables(seed: int, workdir: Path) -> list:
    """CLI sweep / moment / states jobs interleaved with oracle cross-checks."""
    rng = random.Random(seed)
    ops = []
    for i in range(JOBS_PER_KIND):
        for kind in ("sweep", "moment", "states", "oracle"):
            alpha = round(rng.uniform(*TABLE_ALPHA_DEG), 6)
            config = rng.choice(("up", "down"))
            fmt = rng.choice(("csv", "json"))
            common = ["--alpha-deg", str(alpha), "--config", config]
            if kind == "sweep":
                span = round(rng.uniform(90.0, 175.0), 3)
                path = workdir / f"sweep-{i:03d}.{fmt}"
                argv = ["sweep", *common, "--min-deg", str(-span), "--max-deg", str(span),
                        "--steps", str(SWEEP_STEPS), "--format", fmt, "--out", str(path)]
                check = partial(_table_check, path, 4, SWEEP_STEPS, fmt)
            elif kind == "moment":
                path = workdir / f"moment-{i:03d}.{fmt}"
                argv = ["moment", *common, "--format", fmt, "--out", str(path)]
                check = partial(_table_check, path, 5, MOMENT_STEPS, fmt)
            elif kind == "states":
                argv = ["states", *common]
                check = partial(_states_check, f"states-{i:03d}.json")
            else:
                a = math.radians(alpha)
                theta1 = math.radians(rng.uniform(-170.0, 170.0))
                ops.append(
                    Op(f"oracle-{i:03d}",
                       partial(_oracle_call, CentralAngles.self_lock(a), a, theta1,
                               Configuration(config)),
                       _oracle_check)
                )
                continue
            ops.append(Op(f"{kind}-{i:03d}", partial(_cli, argv), check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "chain-collide": chain_collide,
    "pose-chain": pose_chain,
    "joint-tables": joint_tables,
}
