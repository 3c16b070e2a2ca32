"""JSON export: the bulk number formatter against the per-number encoder.

`cli._json_numbers` spells a whole list of numbers with one "%.9g"
operation and must write exactly what json.dumps(_r9(v)) writes for each.
The table and trajectory writers built on it must write the same bytes as
the per-row dict writers they replaced, which are kept below as
references.
"""

import json
import math
import random
import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selflock import (
    Configuration,
    Frame,
    Trajectory,
    UnitSpec,
    build,
    cli,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    translational_link_lengths,
)
from selflock.cli import _json_numbers, _r9

_EDGES = [
    0.0, -0.0, 9.99999999e8, 999999999.5, 1e9, 1234567890.0, 1e15, 1e16,
    1e-4, 1e-5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]
_SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-320, -0.0]


def _reference_numbers(values):
    return [json.dumps(_r9(v)) for v in values]


def _reference_table_json(columns, rows, meta):
    """The JSON branch of cli._write_table before the bulk formatter."""
    payload = dict(meta)
    payload["rows"] = [
        {k: _r9(v) for k, v in zip(columns, row)} for row in rows
    ]
    return json.dumps(payload) + "\n"


def _reference_trajectory_json(traj, extra_meta):
    """cli._trajectory_json before the bulk formatter."""
    m = traj.meta
    meta = {
        "gamma_deg": _r9(m["gamma_deg"]),
        "alphas_deg": [_r9(a) for a in m["alphas_deg"]],
        "axes": m["axes"],
        "mode": m["mode"],
        "clearance_mm": _r9(m["clearance_mm"]),
        "spec_sha256": m["spec_sha256"],
        "phase_units": list(m["phase_units"]),
        "phase_requested_steps": list(m["phase_requested_steps"]),
        "phase_committed_steps": list(m["phase_committed_steps"]),
    }
    for k, v in extra_meta.items():
        meta[k] = _r9(v)
    frames = [
        {
            "t": _r9(f.t),
            "joints_deg": [_r9(math.degrees(t)) for t in f.theta1s],
            "marker_mm": [_r9(v) for v in f.marker],
        }
        for f in traj.frames
    ]
    return json.dumps({"meta": meta, "frames": frames}) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(_EDGES + _SPECIAL)
@example([])
def test_json_numbers_match_json_dumps_of_r9(values):
    assert _json_numbers(values) == _reference_numbers(values)


def test_json_numbers_edges():
    values = _EDGES + [-v for v in _EDGES] + _SPECIAL + [-90, 7, 0.1, 123456789.4]
    assert _json_numbers(values) == _reference_numbers(values)
    assert _json_numbers([-90.0, -0.0, 1e9, 1e16, math.nan, -math.inf]) == [
        "-90.0", "-0.0", "1000000000.0", "1e+16", "NaN", "-Infinity",
    ]


def test_json_numbers_random_bit_patterns():
    # Every double is reachable: NaN payloads, subnormals and both zeros.
    rng = random.Random(16)
    values = [
        struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        for _ in range(20_000)
    ]
    assert _json_numbers(values) == _reference_numbers(values)


def _seeded_rows(rng, n_rows, n_cols):
    rows = (rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
        -8, 12, (n_rows, n_cols))).tolist()
    for row in rows:
        k = int(rng.integers(n_cols))
        if rng.random() < 0.3:
            row[k] = _SPECIAL[int(rng.integers(len(_SPECIAL)))]
        elif rng.random() < 0.3:
            row[k] = float(round(row[k]))
    return rows


def test_write_table_json_matches_reference(tmp_path):
    rng = np.random.default_rng(16)
    out = tmp_path / "table.json"
    args = SimpleNamespace(format="json", out=str(out))
    cases = [(cli._SWEEP_COLUMNS, n) for n in (0, 1, 33)]
    cases += [(cli._MOMENT_COLUMNS, n) for n in (2, 181)]
    for columns, n_rows in cases:
        rows = _seeded_rows(rng, n_rows, len(columns))
        meta = {"alpha_deg": _r9(89.0), "config": "up", "pressure_pa": _r9(1e-5)}
        cli._write_table(args, columns, rows, meta)
        assert out.read_text() == _reference_table_json(columns, rows, meta)


def test_trajectory_json_matches_reference_on_presets():
    gamma = math.radians(36.5)
    alpha = math.radians(89)
    f, q = translational_link_lengths(gamma, 25.0)
    presets = [
        ("rotational", preset_rotational(alpha, alpha), {}),
        ("translational", preset_translational(alpha, gamma, 25.0),
         {"f_mm": f, "q_mm": q}),
        ("modular", preset_modular((UnitSpec(alpha, Configuration.DOWN),) * 4), {}),
    ]
    for preset, spec, extra_meta in presets:
        manip = build(spec)
        traj = run(manip, cli._default_schedule(preset, manip.dof, gamma))
        assert cli._trajectory_json(traj, extra_meta) == _reference_trajectory_json(
            traj, extra_meta
        )


def test_trajectory_json_matches_reference_on_injected_values():
    manip = build(preset_rotational(math.radians(89), math.radians(89)))
    meta = run(manip, cli._default_schedule("rotational", manip.dof, 0.6)).meta
    rng = np.random.default_rng(61)
    for n_frames in (1, 40):
        rows = _seeded_rows(rng, n_frames, 6)
        frames = tuple(Frame(r[0], tuple(r[1:3]), np.array(r[3:])) for r in rows)
        traj = Trajectory(frames, meta)
        extra_meta = {"f_mm": 5e-324, "q_mm": 1234567890.0}
        assert cli._trajectory_json(traj, extra_meta) == _reference_trajectory_json(
            traj, extra_meta
        )
