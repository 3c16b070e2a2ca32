"""Per-layer tracing of selflock from outside the package.

`from .geometry import unit_poses` copies the binding into the importing
module, so patching only the defining module would miss every internal
call. The tracer therefore wraps each name in every module that looks it
up, and wraps methods on their class. Spans are aggregated in memory per
layer name: call count, inclusive busy time and self time (inclusive time
minus the time of directly nested traced calls). Sites that a later
refactor removes are skipped, so the harness keeps running and the
affected counts read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager


def steps_of(meta: dict) -> tuple:
    """(checked, committed) collision-checked steps of one trajectory.

    A checked step is a committed one, or the one extra check that found a
    blocked phase (sequential) or a blocked run (simultaneous).
    """
    req = meta["phase_requested_steps"]
    com = meta["phase_committed_steps"]
    if meta["mode"] == "simultaneous":
        done = com[0] if com else 0
        return done + (done < max(req, default=0)), done
    return sum(com) + sum(c < r for c, r in zip(com, req)), sum(com)


def _count_pairs(counts, args, result):
    counts["geometry.polygon_margins_batch.pairs"] += len(args[0])


def _count_steps(counts, args, result):
    checked, committed = steps_of(result.meta)
    counts["manipulator.steps_checked"] += checked
    counts["manipulator.steps_committed"] += committed


# (module, attribute, layer, hook): timed functions, wrapped at each lookup.
TIMED_FUNCTIONS = (
    ("selflock.linkage", "joint_state", "linkage.joint_state", None),
    ("selflock.geometry", "joint_state", "linkage.joint_state", None),
    ("selflock.moments", "joint_state", "linkage.joint_state", None),
    ("selflock.cli", "joint_state", "linkage.joint_state", None),
    ("selflock.linkage", "oracle_roots", "linkage.oracle_roots", None),
    ("selflock.linkage", "semi_flat_theta1", "linkage.semi_flat_theta1", None),
    ("selflock.manipulator", "semi_flat_theta1", "linkage.semi_flat_theta1", None),
    ("selflock.cli", "semi_flat_theta1", "linkage.semi_flat_theta1", None),
    ("selflock.pouch", "input_moment", "pouch.input_moment", None),
    ("selflock.moments", "input_moment", "pouch.input_moment", None),
    ("selflock.cli", "input_moment", "pouch.input_moment", None),
    ("selflock.moments", "mechanical_advantage", "moments.mechanical_advantage", None),
    ("selflock.cli", "mechanical_advantage", "moments.mechanical_advantage", None),
    ("selflock.geometry", "polygon_margins_batch", "geometry.polygon_margins_batch", _count_pairs),
    ("selflock.manipulator", "polygon_margins_batch", "geometry.polygon_margins_batch", _count_pairs),
    ("selflock.geometry", "unit_poses", "geometry.unit_poses", None),
    ("selflock.manipulator", "unit_poses", "geometry.unit_poses", None),
    ("selflock.manipulator", "pair_margins", "manipulator.pair_margins", None),
    ("selflock.manipulator", "run", "manipulator.run", _count_steps),
    ("selflock.cli", "run", "manipulator.run", _count_steps),
    ("selflock.manipulator", "build", "manipulator.build", None),
    ("selflock.cli", "build", "manipulator.build", None),
    ("selflock.cli", "main", "cli.main", None),
)

# (module, class, attribute, layer): timed methods and classmethods.
TIMED_METHODS = (
    ("selflock.manipulator", "Manipulator", "_frames", "manipulator._frames"),
    ("selflock.manipulator", "Manipulator", "world_vertices", "manipulator.world_vertices"),
    ("selflock.manipulator", "Manipulator", "marker_world", "manipulator.marker_world"),
    ("selflock.manipulator", "ManipulatorSpec", "from_json_dict", "manipulator.spec_parse"),
)

# Cheap, very frequent calls are only counted: timing them would cost more
# than the call itself. (module, class or None, attribute, counter).
COUNTED = (
    ("selflock.pouch", None, "central_angle", "pouch.central_angle.calls"),
    ("selflock.moments", None, "central_angle", "pouch.central_angle.calls"),
    ("selflock.cli", None, "central_angle", "pouch.central_angle.calls"),
    ("selflock.geometry", "Pose", "__post_init__", "geometry.pose_checks"),
)


class Tracer:
    """Aggregated spans of one traced region; install() patches selflock."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []

    def reset(self) -> None:
        for c in (self.calls, self.inclusive, self.self_time, self.counts):
            c.clear()

    def _timed(self, layer, fn, hook):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                self.calls[layer] += 1
                self.inclusive[layer] += dt
                self.self_time[layer] += dt - nested
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def install(self):
        """Patch every site present in the loaded package; restore on exit."""
        saved = []

        def patch(owner, attr, wrap):
            raw = vars(owner).get(attr)
            if raw is None:
                return
            if isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)

        try:
            for mod, attr, layer, hook in TIMED_FUNCTIONS:
                patch(importlib.import_module(mod), attr,
                      lambda fn, l=layer, h=hook: self._timed(l, fn, h))
            for mod, cls, attr, layer in TIMED_METHODS:
                owner = getattr(importlib.import_module(mod), cls, None)
                if owner is not None:
                    patch(owner, attr, lambda fn, l=layer: self._timed(l, fn, None))
            for mod, cls, attr, counter in COUNTED:
                owner = importlib.import_module(mod)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                if owner is not None:
                    patch(owner, attr, lambda fn, c=counter: self._counted(c, fn))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
