"""Command line interface: sweeps, moment curves, manipulator runs, states.

Angles cross this boundary in degrees, lengths in millimetres, pressure in
pascals; everything internal is radians. All commands are deterministic,
so repeating an invocation writes byte-identical output. Exit codes:
0 success, 2 flag validation, 3 numeric domain error, 4 unreadable or
invalid manipulator spec file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .linkage import Configuration, DomainError, mpf_theta1
from .linkage import semi_flat_theta1, sweep
from .moments import moment_curve
from .pouch import ActuatorConditions, pouch_geometry
from .manipulator import (
    CLEARANCE_DEFAULT,
    GAMMA_DEFAULT,
    M_DEFAULT,
    ActivationSchedule,
    ManipulatorSpec,
    Mode,
    MPF,
    OutputAngle,
    PLANES,
    Phase,
    SpecError,
    build,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    workspace_projection,
    UnitSpec,
)

_SWEEP_COLUMNS = ("theta1_deg", "theta2_deg", "theta3_deg", "theta4_deg")
_MOMENT_COLUMNS = ("theta1_deg", "S_rad", "M_input_Nm", "MA", "M_output_Nm")


def _csv(columns, rows) -> str:
    """CSV text: the header, then one line per row at 9 significant digits.

    Each row is formatted by one "%.9g,...,%.9g" operation, which writes
    the same bytes as format(v, ".9g") per cell: -0, inf and nan included,
    and no locale surprises.
    """
    line = ",".join(["%.9g"] * len(columns))
    return "\n".join([",".join(columns)] + [line % tuple(row) for row in rows]) + "\n"


def _r9(v) -> float:
    """Round a float to 9 significant digits for JSON export."""
    return float(format(float(v), ".9g"))


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values) -> list:
    """JSON tokens of numbers, each spelled as json.dumps(_r9(v)) spells it.

    One "%.9g,...,%.9g" operation formats every value, then each token is
    respelled where repr(float) writes it differently. A token with "e"
    goes through repr: %g writes an exponent from 1e9 on and repr only
    from 1e16, and repr writes a subnormal with fewer digits. nan and inf
    take JSON's names, and an integral token gains ".0". Every other
    token has at most 9 significant digits, so it already is the
    shortest spelling of its double, which is repr's.
    """
    values = tuple(values)
    tokens = ("%.9g," * len(values) % values).split(",")
    tokens.pop()
    return [
        tok if "." in tok and "e" not in tok
        else repr(float(tok)) if "e" in tok
        else _JSON_NON_FINITE.get(tok, tok + ".0")
        for tok in tokens
    ]


def _json_list(head: dict, key: str, item: str, count: int, values) -> str:
    """json.dumps({**head, key: [...]}) and a newline, from an entry template.

    item is the JSON text of one list entry with a %s per number, and
    values holds the numbers of all count entries in order.
    """
    body = ", ".join([item] * count) % tuple(_json_numbers(values))
    return json.dumps({**head, key: []})[:-2] + body + "]}\n"


def _write(out, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _deg_grid(min_deg: float, max_deg: float, steps: int) -> np.ndarray:
    """The uniform, endpoint-inclusive grid of steps values from min_deg to max_deg.

    The one grid rule of the sweep and moment tables: steps >= 2 and
    -180 < min_deg < max_deg < 180.
    """
    if steps < 2:
        raise DomainError(f"steps = {steps!r} must be at least 2")
    if not min_deg < max_deg:
        raise DomainError(
            f"grid start {min_deg!r} must be strictly below its end {max_deg!r}"
        )
    for v in (min_deg, max_deg):
        if not -180.0 < v < 180.0:
            raise DomainError(f"grid bound {v!r} outside (-180, 180)")
    try:
        return np.linspace(min_deg, max_deg, steps)
    except MemoryError as exc:
        raise DomainError(f"--steps {steps} needs more memory than is available") from exc


def _write_table(args, columns, table, meta: dict) -> None:
    """Export an (n, k) table as CSV (9 significant digits) or JSON (meta, then rows)."""
    rows = np.asarray(table).tolist()
    if args.format == "csv":
        text = _csv(columns, rows)
    else:
        item = "{%s}" % ", ".join(json.dumps(k) + ": %s" for k in columns)
        values = [v for row in rows for v in row]
        text = _json_list(meta, "rows", item, len(rows), values)
    _write(args.out, text)


def cmd_sweep(args) -> int:
    alpha = math.radians(args.alpha_deg)
    config = Configuration(args.config)
    grid = _deg_grid(args.min_deg, args.max_deg, args.steps)
    table = np.degrees(sweep(alpha, config, np.radians(grid)))
    # The theta1 column is the drawn grid itself: degrees(radians(g)) can
    # differ from g in the last bit.
    table[:, 0] = grid
    meta = {"alpha_deg": _r9(args.alpha_deg), "config": config.value}
    _write_table(args, _SWEEP_COLUMNS, table, meta)
    return 0


def cmd_moment(args) -> int:
    geom = pouch_geometry(args.m_mm, math.radians(args.alpha_deg))
    cond = ActuatorConditions(args.pressure_pa)
    grid = _deg_grid(args.min_deg, args.max_deg, args.steps)
    table = moment_curve(geom, cond, np.radians(grid))
    table[:, 0] = grid
    meta = {
        "alpha_deg": _r9(args.alpha_deg),
        "config": args.config,
        "pressure_pa": _r9(args.pressure_pa),
        "m_mm": _r9(args.m_mm),
    }
    _write_table(args, _MOMENT_COLUMNS, table, meta)
    return 0


def cmd_states(args) -> int:
    alpha = math.radians(args.alpha_deg)
    config = Configuration(args.config)
    gamma = math.radians(args.gamma_deg)
    theta1 = [semi_flat_theta1(alpha, config), mpf_theta1(alpha, gamma)]
    semi_flat, mpf = (
        {k: _r9(v) for k, v in zip(_SWEEP_COLUMNS, row)}
        for row in np.degrees(sweep(alpha, config, np.array(theta1))).tolist()
    )
    out = {
        "alpha_deg": _r9(args.alpha_deg),
        "config": config.value,
        "gamma_deg": _r9(args.gamma_deg),
        "semi_flat": semi_flat,
        "mpf": mpf,
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def _parse_alpha_list(text: str):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --alpha-deg list {text!r}: {exc}") from exc
    if not vals:
        raise ValueError("empty --alpha-deg list")
    return vals


def _parse_schedule_text(text: str, n: int, gamma: float, mode: Mode):
    """Inline schedule: comma-joined unit:target[:steps], units 1-based.

    Targets are mpf, semiflat, or out<degrees> (e.g. out90). Each item is
    read as the spec file phase it spells, and the phases are checked as a
    schedule in mode.
    """
    phases = []
    for item in text.split(","):
        parts = [p.strip() for p in item.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad phase {item!r}; expected unit:target[:steps]")
        try:
            unit = int(parts[0]) - 1
            phase = {"unit": unit, "target": parts[1].lower()}
            if phase["target"].startswith("out"):
                phase["target"], phase["angle_deg"] = "out", float(parts[1][3:])
            if len(parts) == 3:
                phase["steps"] = int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad phase {item!r}; {exc}") from exc
        if not 0 <= unit < n:
            raise ValueError(f"phase unit {parts[0]} outside 1..{n}")
        phases.append(phase)
    data = {"mode": mode.value, "phases": phases}
    return ActivationSchedule.from_json_dict(data, n, gamma, "--schedule")


_PRESET_ALPHAS = {
    "rotational": "89,89",
    "translational": "89",
    "modular": "89,89,89,89",
}


def _default_schedule(preset: str, n: int, gamma: float) -> ActivationSchedule:
    if preset == "translational":
        half = math.pi / 2
        return ActivationSchedule(
            (
                Phase(0, OutputAngle(half)),
                Phase(1, MPF(gamma)),
                Phase(2, MPF(gamma)),
                Phase(3, OutputAngle(half)),
            ),
            Mode.SIMULTANEOUS,
        )
    return ActivationSchedule(
        tuple(Phase(i, MPF(gamma)) for i in range(n)),
        Mode.SEQUENTIAL,
    )


def _rounded(v):
    """v with every float, inside lists too, rounded through _r9."""
    if isinstance(v, list):
        return [_rounded(x) for x in v]
    return _r9(v) if isinstance(v, float) else v


def _trajectory_rows(traj) -> list:
    """One (t, each joint's theta1 in degrees, marker x, y, z) row per frame."""
    return [
        (f.t, *map(math.degrees, f.theta1s), *f.marker.tolist()) for f in traj.frames
    ]


def _trajectory_json(traj, extra_meta: dict) -> str:
    meta = {k: _rounded(v) for k, v in {**traj.meta, **extra_meta}.items()}
    rows = _trajectory_rows(traj)
    joints = ", ".join(["%s"] * len(traj.frames[0].theta1s))
    item = '{"t": %s, "joints_deg": [' + joints + '], "marker_mm": [%s, %s, %s]}'
    values = [x for row in rows for x in row]
    return _json_list({"meta": meta}, "frames", item, len(rows), values)


def _trajectory_csv(traj) -> str:
    n = len(traj.frames[0].theta1s)
    columns = (
        ["t"]
        + [f"joint{i + 1}_deg" for i in range(n)]
        + ["marker_x_mm", "marker_y_mm", "marker_z_mm"]
    )
    return _csv(columns, _trajectory_rows(traj))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _render_svg(projections) -> str:
    """Fixed 800x600 canvas, 40 px margins, one polyline per projection."""
    w, h, margin = 800, 600, 40
    pts = np.vstack([p for _, p in projections])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = min((w - 2 * margin) / span[0], (h - 2 * margin) / span[1])
    x0 = 0.5 * (w - scale * span[0]) - scale * lo[0]
    y0 = 0.5 * (h - scale * span[1]) - scale * lo[1]

    def to_px(p):
        return x0 + scale * p[0], h - (y0 + scale * p[1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for i, (name, arr) in enumerate(projections):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join("%.2f,%.2f" % to_px(p) for p in arr)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{margin + 4}" y="{margin + 14 + 16 * i}" fill="{color}" '
            f'font-family="sans-serif" font-size="12">{name} marker path</text>'
        )
        for label, p in (("initial", arr[0]), ("final", arr[-1])):
            px, py = to_px(p)
            parts.append(
                '<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>' % (px, py, color)
            )
            parts.append(
                '<text x="%.2f" y="%.2f" fill="#333333" font-family="sans-serif" '
                'font-size="11">%s</text>' % (px + 6, py - 6, label)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_manip(args) -> int:
    planes = [p.strip().lower() for p in args.plane.split(",") if p.strip()]
    if not planes or not set(planes) <= PLANES.keys():
        print(f"error: --plane {args.plane!r} must list xy, yz or xz", file=sys.stderr)
        return 2
    gamma = math.radians(args.gamma_deg)
    extra_meta = {}
    schedule = None

    if args.spec:
        try:
            data = json.loads(Path(args.spec).read_text())
            # Rejects NaN, Infinity and overflowing literals in any field,
            # the schedule's included.
            spec = ManipulatorSpec.from_json_dict(data)
            manip = build(spec)
            if "schedule" in data:
                schedule = ActivationSchedule.from_json_dict(
                    data["schedule"], manip.dof, gamma, "spec.schedule"
                )
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, SpecError, DomainError and the
            # UnicodeDecodeError of a file that is not UTF-8; json raises
            # RecursionError on arrays or objects nested too deep to decode.
            print(f"error: invalid manipulator spec: {exc}", file=sys.stderr)
            return 4
        preset = None
    else:
        preset = args.preset
        if preset is None:
            print("error: choose a preset or pass --spec", file=sys.stderr)
            return 2
        try:
            text = args.alpha_deg
            alphas = _parse_alpha_list(_PRESET_ALPHAS[preset] if text is None else text)
            if preset == "rotational":
                if len(alphas) == 1:
                    alphas = alphas * 2
                if len(alphas) != 2:
                    raise ValueError("rotational preset takes one or two alpha values")
                spec = preset_rotational(
                    math.radians(alphas[0]), math.radians(alphas[1])
                )
            elif preset == "translational":
                if len(alphas) != 1:
                    raise ValueError("translational preset takes exactly one alpha")
                spec = preset_translational(math.radians(alphas[0]), gamma, args.d_mm)
                # The zigzag lengths f and q, as the spec's plates hold them.
                f, q = (spec.units[u].plate_sizes[3] for u in (0, 1))
                extra_meta = {"f_mm": f, "q_mm": q}
            else:
                units = tuple(
                    UnitSpec(math.radians(a), Configuration.DOWN) for a in alphas
                )
                spec = preset_modular(units)
        except ValueError as exc:
            if isinstance(exc, DomainError):
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 2
        manip = build(spec)

    # The embedded schedule, else the preset default. An inline --schedule
    # keeps its mode; --mode overrides it. The mode is settled first, so
    # that --schedule is checked in the mode that runs.
    if schedule is None:
        schedule = _default_schedule(preset or "", manip.dof, gamma)
    mode = Mode(args.mode) if args.mode else schedule.mode
    if args.schedule is None:
        schedule = ActivationSchedule(schedule.phases, mode)
    else:
        try:
            schedule = _parse_schedule_text(args.schedule, manip.dof, gamma, mode)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        traj = run(manip, schedule, collision_clearance=args.clearance_mm)
    except SpecError as exc:
        # The spec file's schedule was checked in its own mode; only --mode
        # can make it break a rule of the mode that runs.
        print(f"error: --mode {mode.value}: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = _trajectory_json(traj, extra_meta)
    elif args.format == "csv":
        text = _trajectory_csv(traj)
    else:
        projections = [(p, workspace_projection(traj, p)) for p in planes]
        text = _render_svg(projections)
    _write(args.out, text)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and shared by every main() in the process: a build
    # costs several parses. Safe because parse_args returns a fresh
    # namespace per call and no default is mutable.
    parser = argparse.ArgumentParser(
        prog="selflock",
        description="Simulate self-locking origami joints and manipulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    configs = [c.value for c in Configuration]

    sp = sub.add_parser("sweep", help="tabulate joint angles over a theta1 grid")
    sp.add_argument("--alpha-deg", type=float, required=True)
    sp.add_argument("--config", choices=configs, default="up")
    sp.add_argument("--min-deg", type=float, required=True)
    sp.add_argument("--max-deg", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", help="output path (stdout when omitted)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_sweep)

    mo = sub.add_parser("moment", help="tabulate pouch moments over a theta1 grid")
    mo.add_argument("--alpha-deg", type=float, required=True)
    mo.add_argument("--config", choices=configs, default="up")
    mo.add_argument("--min-deg", type=float, default=-90.0)
    mo.add_argument("--max-deg", type=float, default=90.0)
    mo.add_argument("--steps", type=int, default=181)
    mo.add_argument("--pressure-pa", type=float, default=10000.0)
    mo.add_argument("--m-mm", type=float, default=M_DEFAULT)
    mo.add_argument("--out", help="output path (stdout when omitted)")
    mo.add_argument("--format", choices=["csv", "json"], default="csv")
    mo.set_defaults(func=cmd_moment)

    ma = sub.add_parser("manip", help="run a manipulator schedule and export it")
    ma.add_argument("preset", nargs="?", choices=list(_PRESET_ALPHAS))
    ma.add_argument("--alpha-deg", help="comma separated list, one per unit")
    ma.add_argument("--gamma-deg", type=float, default=math.degrees(GAMMA_DEFAULT))
    ma.add_argument("--d-mm", type=float, default=25.0)
    ma.add_argument("--spec", help="manipulator spec JSON path (replaces preset)")
    ma.add_argument(
        "--schedule", help='inline schedule "1:mpf,2:out90[:steps]", units 1-based'
    )
    ma.add_argument("--mode", choices=[m.value for m in Mode])
    ma.add_argument("--clearance-mm", type=float, default=CLEARANCE_DEFAULT)
    ma.add_argument("--plane", default="xz", help="SVG projections, e.g. xz,xy")
    ma.add_argument("--out", help="output path (stdout when omitted)")
    ma.add_argument("--format", choices=["csv", "json", "svg"], default="json")
    ma.set_defaults(func=cmd_manip)

    st = sub.add_parser("states", help="print semi-flat and MPF joint states")
    st.add_argument("--alpha-deg", type=float, required=True)
    st.add_argument("--config", choices=configs, default="up")
    st.add_argument("--gamma-deg", type=float, default=math.degrees(GAMMA_DEFAULT))
    st.set_defaults(func=cmd_states)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
