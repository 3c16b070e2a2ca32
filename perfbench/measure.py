"""Timed passes, checks and metrics of one benchmark run.

One process, no threads, one client in a closed loop: each operation
starts when the previous one has returned. A pass runs every operation of
the workload once; passes repeat until the measured time reaches the
requested seconds. Checks and export digests are taken after each pass,
outside the timed region.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.tracing import Tracer, steps_of
from perfbench.workloads import WORKLOADS, CheckError

SETUP_REPS = 5

# (name, unit) of the end-to-end metrics an untraced run reports.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

_TIMED_LAYERS = (
    "linkage.joint_state",
    "linkage.oracle_roots",
    "linkage.semi_flat_theta1",
    "pouch.input_moment",
    "moments.mechanical_advantage",
    "geometry.polygon_margins_batch",
)
_SELF_LAYERS = (
    "manipulator.pair_margins",
    "geometry.unit_poses",
    "manipulator._frames",
    "manipulator.world_vertices",
    "manipulator.marker_world",
    "manipulator.run",
    "cli.main",
)

# (name, unit) of the per-layer metrics a traced run reports.
PER_LAYER = (
    *((f"{layer}.calls", "count") for layer in _TIMED_LAYERS),
    *((f"{layer}.s", "s") for layer in _TIMED_LAYERS),
    ("pouch.central_angle.calls", "count"),
    ("geometry.polygon_margins_batch.pairs", "count"),
    ("geometry.sat_pairs_per_step", "pairs/step"),
    ("geometry.pose_checks", "count"),
    ("geometry.unit_poses.calls", "count"),
    ("manipulator._frames.calls", "count"),
    ("manipulator.frames_per_step", "calls/step"),
    *((f"{layer}.self_s", "s") for layer in _SELF_LAYERS),
    ("cli.main.calls", "count"),
    ("cli.bytes_out", "bytes"),
    ("manipulator.build.s", "s"),
    ("manipulator.spec_parse.s", "s"),
    ("manipulator.steps_checked", "count"),
    ("manipulator.steps_committed", "count"),
    ("manipulator.commit_ratio", "ratio"),
    ("manipulator.steps_per_s", "1/s"),
    ("manipulator.step_ms.n4", "ms"),
    ("manipulator.step_ms.n8", "ms"),
    ("manipulator.step_ms.n16", "ms"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Pass:
    wall: float
    latencies: list
    results: list
    rows: int = 0
    bytes_out: int = 0
    groups: dict = field(default_factory=dict)  # group -> [seconds, checked steps]


@dataclass
class Book:
    """Attempted and failed operations, and the first digest of every export."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def _timed_pass(ops) -> Pass:
    clock = time.perf_counter
    latencies, results = [], []
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            res = op.call()
        except Exception:  # an operation that raises counts as failed
            res = CheckError(traceback.format_exc(limit=3))
        latencies.append(clock() - t0)
        results.append(res)
    return Pass(clock() - start, latencies, results)


def _check_pass(ops, p: Pass, book: Book) -> None:
    for op, res, lat in zip(ops, p.results, p.latencies):
        book.attempted += 1
        try:
            if isinstance(res, CheckError):
                raise res
            rows, exports = op.check(res)
            for label, data in exports.items():
                digest = hashlib.sha256(data).hexdigest()
                if book.digests.setdefault(label, digest) != digest:
                    raise CheckError(f"export {label} changed between passes")
        except Exception as exc:  # a malformed output fails its op, not the run
            book.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        p.rows += rows
        p.bytes_out += sum(len(data) for data in exports.values())
        if op.group:
            g = p.groups.setdefault(op.group, [0.0, 0])
            g[0] += lat
            g[1] += steps_of(res.meta)[0]


def _passes(ops, seconds: float, book: Book) -> list:
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        p = _timed_pass(ops)
        _check_pass(ops, p, book)
        passes.append(p)
        spent += p.wall
    return passes


def summary(values) -> dict:
    """Median, quartiles and count of a sample (quartiles need two values)."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _end_to_end(import_s, setups, passes) -> tuple:
    walls = [p.wall for p in passes]
    lat = [x for p in passes for x in p.latencies]
    values = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * _p90(lat),
        "rows_per_s": sum(p.rows for p in passes) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "import_s": import_s,
        "setup_reps_s": summary(setups),
        "pass_wall_s": summary(walls),
        "op_latency_ms": summary(1e3 * x for x in lat),
        "op_latency_p90_ms": values["op_p90_ms"],
    }
    return values, detail


def _layer_values(tracer: Tracer, p: Pass) -> dict:
    calls, incl, own, counts = tracer.calls, tracer.inclusive, tracer.self_time, tracer.counts
    checked = counts["manipulator.steps_checked"]
    out = {}
    for layer in _TIMED_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = incl[layer]
    for layer in _SELF_LAYERS:
        out[f"{layer}.self_s"] = own[layer]
    out.update({
        "pouch.central_angle.calls": counts["pouch.central_angle.calls"],
        "geometry.polygon_margins_batch.pairs": counts["geometry.polygon_margins_batch.pairs"],
        "geometry.sat_pairs_per_step":
            counts["geometry.polygon_margins_batch.pairs"] / checked if checked else 0.0,
        "geometry.pose_checks": counts["geometry.pose_checks"],
        "geometry.unit_poses.calls": calls["geometry.unit_poses"],
        "manipulator._frames.calls": calls["manipulator._frames"],
        "manipulator.frames_per_step":
            calls["manipulator._frames"] / checked if checked else 0.0,
        "cli.main.calls": calls["cli.main"],
        "cli.bytes_out": p.bytes_out,
        "manipulator.build.s": incl["manipulator.build"],
        "manipulator.spec_parse.s": incl["manipulator.spec_parse"],
        "manipulator.steps_checked": checked,
        "manipulator.steps_committed": counts["manipulator.steps_committed"],
        "manipulator.commit_ratio":
            counts["manipulator.steps_committed"] / checked if checked else 0.0,
    })
    return out


def _per_layer(plain, traced) -> tuple:
    """Median of each layer value over traced passes, plus untraced rates."""
    values = {}
    for k, first in traced[0][1].items():
        # Counts repeat exactly, so a count's median is one of its readings.
        med = statistics.median_low if isinstance(first, int) else statistics.median
        values[k] = med(v[k] for _, v in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    values["manipulator.steps_per_s"] = values["manipulator.steps_checked"] / plain_wall
    for n in (4, 8, 16):
        secs = sum(p.groups.get(f"n{n}", (0.0, 0))[0] for p in plain)
        steps = sum(p.groups.get(f"n{n}", (0.0, 0))[1] for p in plain)
        values[f"manipulator.step_ms.n{n}"] = 1e3 * secs / steps if steps else 0.0
    traced_wall = statistics.median(p.wall for p, _ in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    detail = {
        "untraced_pass_wall_s": summary(p.wall for p in plain),
        "traced_pass_wall_s": summary(p.wall for p, _ in traced),
        "layers": {
            k: summary(v[k] for _, v in traced) for k in traced[0][1]
        },
    }
    return values, detail


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, import_s: float = 0.0) -> dict:
    """Run one workload and return its result record (metrics and detail)."""
    setup = WORKLOADS[workload]
    book = Book()
    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            ops = setup(seed, workdir)
            setups.append(time.perf_counter() - t0)
        passes = _passes(ops, seconds, book)
        values, detail = _end_to_end(import_s, setups, passes)
        declared = END_TO_END
        npasses = len(passes)
    else:
        plain = _passes(setup(seed, workdir), seconds / 2, book)
        tracer = Tracer()
        traced, spent = [], 0.0
        while not traced or spent < seconds / 2:
            tracer.reset()
            with tracer.install():
                ops = setup(seed, workdir)
                p = _timed_pass(ops)
            _check_pass(ops, p, book)
            traced.append((p, _layer_values(tracer, p)))
            spent += p.wall
        values, detail = _per_layer(plain, traced)
        declared = PER_LAYER
        npasses = len(plain) + len(traced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    return {
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": metrics,
        "passes": npasses,
        "detail": detail,
        "failures": book.failures,
        "export_sha256": book.digests,
    }
