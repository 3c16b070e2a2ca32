"""Benchmark of the selflock library and CLI: one workload in one process.

    python3 perfbench/run.py --workload chain-collide --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports selflock from its
src/ directory. Prints a readable report (environment, every metric by
name and unit, median and quartiles of each timed sample) and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. --out also writes the full record as JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain-collide", "pose-chain", "joint-tables")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


def _report(env: dict, record: dict) -> None:
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes={record['passes']} attempted={record['attempted']} "
          f"failed={record['failed']} "
          f"fail_frac={record['failed'] / max(record['attempted'], 1):.6g}")
    for name, m in record["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    for name, s in record["detail"].items():
        if isinstance(s, dict) and "median" in s:
            print(f"# {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} n {s['n']}")
    exports = record["export_sha256"]
    if exports:
        joined = "".join(f"{k}={v}\n" for k, v in sorted(exports.items()))
        print(f"# exports: {len(exports)} files, combined sha256 "
              f"{hashlib.sha256(joined.encode()).hexdigest()}")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "selflock" / "__init__.py").is_file():
        print(f"perfbench: no selflock sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(src), str(ROOT)]

    t0 = time.perf_counter()
    import numpy
    import selflock.cli  # noqa: F401  (every selflock module, and numpy)
    import_s = time.perf_counter() - t0

    from perfbench.measure import measure

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args, numpy.__version__)
    _report(env, record)
    if args.out:
        Path(args.out).write_text(json.dumps({"environment": env, **record}, indent=1) + "\n")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
