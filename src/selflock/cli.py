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

from .linkage import Configuration, DomainError, joint_state, mpf_theta1, semi_flat_theta1
from .linkage import theta3_of_theta1, theta4_of_theta1
from .moments import mechanical_advantage
from .pouch import ActuatorConditions, central_angle, input_moment, pouch_geometry
from .manipulator import (
    ActivationSchedule,
    ManipulatorSpec,
    Mode,
    MPF,
    OutputAngle,
    Phase,
    SemiFlat,
    SpecError,
    build,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    translational_link_lengths,
    workspace_projection,
    UnitSpec,
)

_SWEEP_COLUMNS = ("theta1_deg", "theta2_deg", "theta3_deg", "theta4_deg")
_MOMENT_COLUMNS = ("theta1_deg", "S_rad", "M_input_Nm", "MA", "M_output_Nm")
_DEFAULT_STEPS = 60


def _g9(v) -> str:
    """Format a float with 9 significant digits, no locale surprises."""
    return format(float(v), ".9g")


def _r9(v) -> float:
    """Round a float to 9 significant digits for JSON export."""
    return float(format(float(v), ".9g"))


def _write(out, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _deg_grid(min_deg: float, max_deg: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise DomainError(f"steps = {steps} must be at least 2")
    if not min_deg < max_deg:
        raise DomainError("min-deg must be strictly below max-deg")
    if min_deg <= -180.0 or max_deg >= 180.0:
        raise DomainError("grid must stay inside (-180, 180) degrees")
    try:
        return np.linspace(min_deg, max_deg, steps)
    except MemoryError as exc:
        raise DomainError(f"--steps {steps} needs more memory than is available") from exc


def _write_table(args, columns, rows, meta: dict) -> None:
    """Export rows as CSV (9 significant digits) or JSON (meta, then rows)."""
    if args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_g9(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = dict(meta)
        payload["rows"] = [
            {k: _r9(v) for k, v in zip(columns, row)} for row in rows
        ]
        text = json.dumps(payload) + "\n"
    _write(args.out, text)


def cmd_sweep(args) -> int:
    alpha = math.radians(args.alpha_deg)
    config = Configuration(args.config)
    grid = _deg_grid(args.min_deg, args.max_deg, args.steps)
    theta1 = np.radians(grid)
    t4 = np.degrees(theta4_of_theta1(alpha, theta1, config))
    t3 = np.degrees(theta3_of_theta1(alpha, theta1, config))
    rows = np.column_stack((grid, t4, t3, t4)).tolist()
    meta = {"alpha_deg": _r9(args.alpha_deg), "config": config.value}
    _write_table(args, _SWEEP_COLUMNS, rows, meta)
    return 0


def cmd_moment(args) -> int:
    alpha = math.radians(args.alpha_deg)
    config = Configuration(args.config)
    geom = pouch_geometry(args.m_mm, alpha)
    cond = ActuatorConditions(args.pressure_pa)
    grid = _deg_grid(args.min_deg, args.max_deg, args.steps)
    theta1 = np.radians(grid)
    mi = input_moment(geom, cond, theta1)
    ma = mechanical_advantage(alpha, theta1, config)
    rows = np.column_stack((grid, central_angle(theta1), mi, ma, ma * mi)).tolist()
    meta = {
        "alpha_deg": _r9(args.alpha_deg),
        "config": config.value,
        "pressure_pa": _r9(args.pressure_pa),
        "m_mm": _r9(args.m_mm),
    }
    _write_table(args, _MOMENT_COLUMNS, rows, meta)
    return 0


def cmd_states(args) -> int:
    alpha = math.radians(args.alpha_deg)
    config = Configuration(args.config)
    gamma = math.radians(args.gamma_deg)

    def state_dict(theta1: float) -> dict:
        st = joint_state(alpha, theta1, config)
        return {
            "theta1_deg": _r9(math.degrees(st.theta1)),
            "theta2_deg": _r9(math.degrees(st.theta2)),
            "theta3_deg": _r9(math.degrees(st.theta3)),
            "theta4_deg": _r9(math.degrees(st.theta4)),
        }

    out = {
        "alpha_deg": _r9(args.alpha_deg),
        "config": config.value,
        "gamma_deg": _r9(args.gamma_deg),
        "semi_flat": state_dict(semi_flat_theta1(alpha, config)),
        "mpf": state_dict(mpf_theta1(alpha, gamma, config)),
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


def _phase_target(name: str, gamma: float, angle_deg=None):
    """Phase target by name: mpf (at gamma), semiflat, or out (at angle_deg)."""
    key = name.lower()
    if key == "mpf":
        return MPF(gamma)
    if key == "semiflat":
        return SemiFlat()
    if key == "out":
        if angle_deg is None:
            raise ValueError("out target needs an angle")
        return OutputAngle(math.radians(float(angle_deg)))
    raise ValueError(f"unknown phase target {name!r}")


def _parse_schedule_text(text: str, n: int, gamma: float):
    """Inline schedule: comma-joined unit:target[:steps], units 1-based.

    Targets are mpf, semiflat, or out<degrees> (e.g. out90).
    """
    phases = []
    for item in text.split(","):
        parts = [p.strip() for p in item.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad phase {item!r}; expected unit:target[:steps]")
        unit = int(parts[0]) - 1
        if not 0 <= unit < n:
            raise ValueError(f"phase unit {parts[0]} outside 1..{n}")
        name, angle = parts[1], None
        if name.lower().startswith("out"):
            name, angle = name[:3], name[3:]
        target = _phase_target(name, gamma, angle)
        steps = int(parts[2]) if len(parts) == 3 else _DEFAULT_STEPS
        if steps < 1:
            raise ValueError("phase steps must be positive")
        phases.append(Phase(unit, target, steps))
    if not phases:
        raise ValueError("empty schedule")
    return tuple(phases)


def _schedule_from_json(data: dict, n: int, gamma: float) -> ActivationSchedule:
    if not isinstance(data, dict):
        raise SpecError(f"schedule must be a JSON object, got {data!r}")
    try:
        mode = Mode(str(data.get("mode", "sequential")).lower())
        phases = []
        for ph in data["phases"]:
            unit = int(ph["unit"])
            if not 0 <= unit < n:
                raise SpecError(f"schedule unit {unit} outside 0..{n - 1}")
            g = math.radians(float(ph["gamma_deg"])) if "gamma_deg" in ph else gamma
            target = _phase_target(str(ph["target"]), g, ph.get("angle_deg"))
            phases.append(Phase(unit, target, int(ph.get("steps", _DEFAULT_STEPS))))
        if not phases:
            raise SpecError("schedule has no phases")
        return ActivationSchedule(tuple(phases), mode)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed schedule: {exc}") from exc


_PRESET_ALPHAS = {
    "rotational": "89,89",
    "translational": "89",
    "modular": "89,89,89,89",
}


def _default_schedule(preset: str, n: int, gamma: float) -> ActivationSchedule:
    if preset == "rotational":
        return ActivationSchedule(
            (Phase(0, MPF(gamma), _DEFAULT_STEPS), Phase(1, MPF(gamma), _DEFAULT_STEPS)),
            Mode.SEQUENTIAL,
        )
    if preset == "translational":
        half = math.pi / 2
        return ActivationSchedule(
            (
                Phase(0, OutputAngle(half), _DEFAULT_STEPS),
                Phase(1, MPF(gamma), _DEFAULT_STEPS),
                Phase(2, MPF(gamma), _DEFAULT_STEPS),
                Phase(3, OutputAngle(half), _DEFAULT_STEPS),
            ),
            Mode.SIMULTANEOUS,
        )
    return ActivationSchedule(
        tuple(Phase(i, MPF(gamma), _DEFAULT_STEPS) for i in range(n)),
        Mode.SEQUENTIAL,
    )


def _trajectory_json(traj, extra_meta: dict) -> str:
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


def _trajectory_csv(traj) -> str:
    n = len(traj.frames[0].theta1s)
    header = (
        "t,"
        + ",".join(f"joint{i + 1}_deg" for i in range(n))
        + ",marker_x_mm,marker_y_mm,marker_z_mm"
    )
    lines = [header]
    for f in traj.frames:
        vals = [f.t] + [math.degrees(t) for t in f.theta1s] + list(f.marker)
        lines.append(",".join(_g9(v) for v in vals))
    return "\n".join(lines) + "\n"


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


def _reject_constant(token: str):
    # json.loads accepts NaN, Infinity and -Infinity; a spec must not.
    raise SpecError(f"non-finite number {token} in spec file")


def cmd_manip(args) -> int:
    gamma = math.radians(args.gamma_deg)
    extra_meta = {}
    embedded_schedule = None

    if args.spec:
        try:
            data = json.loads(
                Path(args.spec).read_text(), parse_constant=_reject_constant
            )
            spec = ManipulatorSpec.from_json_dict(data)
            manip = build(spec)
            if "schedule" in data:
                embedded_schedule = _schedule_from_json(
                    data["schedule"], manip.dof, gamma
                )
        except (OSError, json.JSONDecodeError, SpecError, DomainError) as exc:
            print(f"error: invalid manipulator spec: {exc}", file=sys.stderr)
            return 4
        preset = None
    else:
        preset = args.preset
        if preset is None:
            print("error: choose a preset or pass --spec", file=sys.stderr)
            return 2
        try:
            alphas = _parse_alpha_list(args.alpha_deg or _PRESET_ALPHAS[preset])
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
                f, q = translational_link_lengths(gamma, args.d_mm)
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

    if args.schedule:
        try:
            phases = _parse_schedule_text(args.schedule, manip.dof, gamma)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        default_mode = (
            embedded_schedule.mode
            if embedded_schedule is not None
            else _default_schedule(preset or "", manip.dof, gamma).mode
        )
        schedule = ActivationSchedule(phases, default_mode)
    elif embedded_schedule is not None:
        schedule = embedded_schedule
    else:
        schedule = _default_schedule(preset or "", manip.dof, gamma)
    if args.mode:
        schedule = ActivationSchedule(schedule.phases, Mode(args.mode))

    traj = run(manip, schedule, collision_clearance=args.clearance_mm)

    if args.format == "json":
        text = _trajectory_json(traj, extra_meta)
    elif args.format == "csv":
        text = _trajectory_csv(traj)
    else:
        planes = [p.strip() for p in args.plane.split(",") if p.strip()]
        if not planes:
            print("error: --plane lists no projection", file=sys.stderr)
            return 2
        projections = [(p.lower(), workspace_projection(traj, p)) for p in planes]
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

    sp = sub.add_parser("sweep", help="tabulate joint angles over a theta1 grid")
    sp.add_argument("--alpha-deg", type=float, required=True)
    sp.add_argument("--config", choices=["up", "down"], default="up")
    sp.add_argument("--min-deg", type=float, required=True)
    sp.add_argument("--max-deg", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", help="output path (stdout when omitted)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_sweep)

    mo = sub.add_parser("moment", help="tabulate pouch moments over a theta1 grid")
    mo.add_argument("--alpha-deg", type=float, required=True)
    mo.add_argument("--config", choices=["up", "down"], default="up")
    mo.add_argument("--min-deg", type=float, default=-90.0)
    mo.add_argument("--max-deg", type=float, default=90.0)
    mo.add_argument("--steps", type=int, default=181)
    mo.add_argument("--pressure-pa", type=float, default=10000.0)
    mo.add_argument("--m-mm", type=float, default=25.0)
    mo.add_argument("--out", help="output path (stdout when omitted)")
    mo.add_argument("--format", choices=["csv", "json"], default="csv")
    mo.set_defaults(func=cmd_moment)

    ma = sub.add_parser("manip", help="run a manipulator schedule and export it")
    ma.add_argument(
        "preset", nargs="?", choices=["rotational", "translational", "modular"]
    )
    ma.add_argument("--alpha-deg", help="comma separated list, one per unit")
    ma.add_argument("--gamma-deg", type=float, default=36.5)
    ma.add_argument("--d-mm", type=float, default=25.0)
    ma.add_argument("--spec", help="manipulator spec JSON path (replaces preset)")
    ma.add_argument(
        "--schedule", help='inline schedule "1:mpf,2:out90[:steps]", units 1-based'
    )
    ma.add_argument("--mode", choices=["sequential", "simultaneous"])
    ma.add_argument("--clearance-mm", type=float, default=0.1)
    ma.add_argument("--plane", default="xz", help="SVG projections, e.g. xz,xy")
    ma.add_argument("--out", help="output path (stdout when omitted)")
    ma.add_argument("--format", choices=["csv", "json", "svg"], default="json")
    ma.set_defaults(func=cmd_manip)

    st = sub.add_parser("states", help="print semi-flat and MPF joint states")
    st.add_argument("--alpha-deg", type=float, required=True)
    st.add_argument("--config", choices=["up", "down"], default="up")
    st.add_argument("--gamma-deg", type=float, default=36.5)
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
