"""Reproduce the per-layer baseline of ROADMAP.md with the benchmark's tracer.

    python3 perfbench/baseline.py

Traces one run() of the modular-4 preset at alpha 89 degrees on the
default schedule (four sequential MPF phases of 60 steps) and prints its
Pose check count and the inclusive cost per call of each traced layer.
Then times semi_flat_theta1 and oracle_roots on their own.
"""

import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 20

# Per-call figures of the ROADMAP baseline, in ms, for side-by-side output.
ROADMAP_MS = {
    "manipulator._frames": 0.99,
    "manipulator.world_vertices": 1.37,
    "manipulator.pair_margins": 1.93,
    "manipulator.marker_world": 0.92,
    "geometry.unit_poses": 0.13,
    "linkage.semi_flat_theta1": 5.5,
    "linkage.oracle_roots": 4.2,
}


def traced_modular4():
    """Tracer holding the spans of one default modular-4 run() at alpha 89."""
    from selflock import manipulator as M
    from selflock.linkage import Configuration

    from perfbench.tracing import Tracer

    units = tuple(M.UnitSpec(math.radians(89.0), Configuration.DOWN) for _ in range(4))
    manip = M.build(M.preset_modular(units))
    schedule = M.ActivationSchedule(
        tuple(M.Phase(i, M.MPF(), 60) for i in range(4)), M.Mode.SEQUENTIAL
    )
    tracer = Tracer()
    with tracer.install():
        M.run(manip, schedule)
    return tracer


def _per_call_ms(fn, *args) -> float:
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        fn(*args)
    return 1e3 * (time.perf_counter() - t0) / REPEATS


def main() -> int:
    if not (ROOT / "src" / "selflock" / "__init__.py").is_file():
        print(f"baseline: no selflock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from selflock import linkage

    tracer = traced_modular4()
    print(f"geometry.pose_checks {tracer.counts['geometry.pose_checks']}")
    print(f"manipulator.steps_checked {tracer.counts['manipulator.steps_checked']}")
    print(f"{'layer':34s} {'calls':>6s} {'ms/call':>8s} {'ROADMAP':>8s}")
    rows = {
        layer: (tracer.calls[layer], 1e3 * tracer.inclusive[layer] / tracer.calls[layer])
        for layer in tracer.calls
    }
    alpha = math.radians(89.0)
    rows["linkage.semi_flat_theta1"] = (
        REPEATS, _per_call_ms(linkage.semi_flat_theta1, alpha, linkage.Configuration.UP))
    rows["linkage.oracle_roots"] = (
        REPEATS,
        _per_call_ms(linkage.oracle_roots, linkage.CentralAngles.self_lock(alpha),
                     math.radians(40.0)),
    )
    for layer, (calls, ms) in sorted(rows.items()):
        ref = ROADMAP_MS.get(layer)
        print(f"{layer:34s} {calls:6d} {ms:8.3f} {'' if ref is None else f'{ref:8.2f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
