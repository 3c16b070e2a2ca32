"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Each test prints "AC<n>: PASS - ..." or "AC<n>: FAIL - ..." before asserting,
so the verdict survives into captured output either way.
"""

import hashlib
import math

import numpy as np

from selflock import (
    ActivationSchedule,
    ActuatorConditions,
    CentralAngles,
    Configuration,
    MPF,
    Mode,
    OutputAngle,
    Phase,
    UnitSpec,
    build,
    closure_residual,
    input_moment,
    loop_closure_error,
    mechanical_advantage,
    oracle_roots,
    pouch_geometry,
    preset_modular,
    preset_rotational,
    preset_translational,
    run,
    theta4_of_theta1,
    theta3_of_theta1,
    translational_link_lengths,
    unit_poses,
)
from selflock.cli import main

UP = Configuration.UP
DOWN = Configuration.DOWN
GAMMA = math.radians(36.5)
GRID_DEG = range(-178, 179)  # 1 degree grid over the open (-179, 179)


def _verdict(n, ok, detail):
    print(f"AC{n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"AC{n}: {detail}"


def _circ_dist(a, b):
    d = abs(a - b)
    return min(d, 2.0 * math.pi - d)


def test_ac01_closure_oracle_equivalence():
    worst_match = 0.0
    worst_resid = 0.0
    for a in (60, 70, 80, 85, 89):
        alpha = math.radians(a)
        ang = CentralAngles.self_lock(alpha)
        for t1_deg in GRID_DEG:
            t1 = math.radians(t1_deg)
            roots = oracle_roots(ang, t1)
            for config in (UP, DOWN):
                t4 = theta4_of_theta1(alpha, t1, config)
                worst_match = max(
                    worst_match, min(_circ_dist(t4, r) for r in roots)
                )
                worst_resid = max(worst_resid, abs(closure_residual(ang, t1, t4)))
    ok = worst_match < 1e-8 and worst_resid < 1e-9
    _verdict(
        1,
        ok,
        f"closed form vs oracle worst {worst_match:.2e} rad (tol 1e-8), "
        f"worst residual {worst_resid:.2e} (tol 1e-9)",
    )


def test_ac02_forward_kinematics_cross_validation():
    worst = 0.0
    for a in (60, 70, 80, 85, 89):
        alpha = math.radians(a)
        for t1_deg in GRID_DEG:
            for config in (UP, DOWN):
                ps = unit_poses(alpha, math.radians(t1_deg), config)
                worst = max(worst, loop_closure_error(ps))
    ok = worst < 1e-9
    _verdict(2, ok, f"worst loop closure error {worst:.2e} rad (tol 1e-9)")


def test_ac03_trivial_state_identities():
    worst = 0.0
    for a in (60, 70, 80, 85, 89):
        alpha = math.radians(a)
        worst = max(worst, abs(theta4_of_theta1(alpha, 0.0, UP) - math.pi / 2))
        worst = max(
            worst, abs(theta3_of_theta1(alpha, 0.0, UP) - (math.pi - 2 * alpha))
        )
        worst = max(
            worst,
            abs(mechanical_advantage(alpha, 0.0) - 2.0 * math.cos(alpha)),
        )
    ok = worst < 1e-10
    _verdict(
        3,
        ok,
        f"theta4(0)=90deg, theta3(0)=180-2a, MA(0)=2cos(a); worst "
        f"deviation {worst:.2e} (tol 1e-10)",
    )


def test_ac04_output_angle_range():
    min_span = math.inf
    for a in range(61, 90):
        t4 = [
            theta4_of_theta1(math.radians(a), math.radians(t), UP)
            for t in GRID_DEG
        ]
        min_span = min(min_span, math.degrees(max(t4) - min(t4)))
    ok = min_span > 175.0
    _verdict(4, ok, f"smallest theta4 span {min_span:.3f} deg (needs > 175)")


def test_ac05_moment_curve_shape():
    ok = True
    notes = []
    cond = ActuatorConditions(10000.0)
    for a in (70, 80, 85, 89):
        alpha = math.radians(a)
        geom = pouch_geometry(25.0, alpha)
        mi = [input_moment(geom, cond, math.radians(t)) for t in range(0, 91)]
        ma = [mechanical_advantage(alpha, math.radians(t)) for t in range(0, 91)]
        even_mi = all(
            abs(input_moment(geom, cond, math.radians(-t)) - mi[t]) <= 1e-12 * mi[t]
            for t in range(1, 91)
        )
        even_ma = all(
            abs(mechanical_advantage(alpha, math.radians(-t)) - ma[t])
            <= 1e-9 * ma[t]
            for t in range(1, 91)
        )
        decreasing = all(b < x for x, b in zip(mi, mi[1:]))
        mi_max_at_zero = mi[0] == max(mi)
        ma_min_at_zero = ma[0] == min(ma)
        limit = (
            (1 + 2 / math.sqrt(3)) / 2 * (geom.Lp * 1e-3) ** 2 * (geom.D * 1e-3)
            * 10000.0
        )
        limit_ok = abs(mi[0] - limit) / limit < 1e-6
        if not (
            even_mi and even_ma and decreasing and mi_max_at_zero
            and ma_min_at_zero and limit_ok
        ):
            ok = False
            notes.append(f"alpha={a}")
    _verdict(
        5,
        ok,
        "M_input even, peaked and strictly decreasing from 0; MA even with "
        "minimum at 0; M_input(0) matches the series limit to 1e-6"
        + ("" if ok else f"; failed at {notes}"),
    )


def test_ac06_trade_off_ordering():
    ma = {a: 2.0 * math.cos(math.radians(a)) for a in (80, 85, 89)}
    h = 1e-6
    slope = {
        a: abs(
            theta4_of_theta1(math.radians(a), h, UP)
            - theta4_of_theta1(math.radians(a), -h, UP)
        )
        / (2 * h)
        for a in (80, 85, 89)
    }
    ok = (ma[89] < ma[85] < ma[80]) and (slope[89] > slope[85] > slope[80])
    _verdict(
        6,
        ok,
        f"MA(0) ordering {ma[89]:.4f} < {ma[85]:.4f} < {ma[80]:.4f} with "
        f"|dtheta4/dtheta1| reversed ({slope[89]:.2f} > {slope[85]:.2f} > "
        f"{slope[80]:.2f})",
    )


def test_ac07_rotational_final_state_invariance():
    marks = {}
    for a in (85, 89):
        manip = build(preset_rotational(math.radians(a), math.radians(a)))
        sched = ActivationSchedule(
            (Phase(0, MPF(GAMMA), 60), Phase(1, MPF(GAMMA), 60)), Mode.SEQUENTIAL
        )
        traj = run(manip, sched)
        marks[a] = (traj.frames[0].marker, traj.frames[-1].marker)
    final_gap = float(np.abs(marks[85][1] - marks[89][1]).max())
    initial_gap = float(np.linalg.norm(marks[85][0] - marks[89][0]))
    ok = final_gap < 1e-6 and initial_gap > 0.1
    _verdict(
        7,
        ok,
        f"final markers agree to {final_gap:.2e} mm (tol 1e-6) while initial "
        f"markers differ by {initial_gap:.2f} mm (needs > 0.1)",
    )


def test_ac08_translational_sizing_and_straightness():
    f, q = translational_link_lengths(GAMMA, 25.0)
    f_err = abs(f - 25.0 / math.tan(GAMMA))
    q_err = abs(q - 25.0 / math.cos(GAMMA))
    committed, ts, abs_z, finals = {}, {}, {}, {}
    for a in (80, 85, 89):
        manip = build(preset_translational(math.radians(a), GAMMA, 25.0))
        sched = ActivationSchedule(
            (
                Phase(0, OutputAngle(math.pi / 2), 60),
                Phase(1, MPF(GAMMA), 60),
                Phase(2, MPF(GAMMA), 60),
                Phase(3, OutputAngle(math.pi / 2), 60),
            ),
            Mode.SIMULTANEOUS,
        )
        traj = run(manip, sched)
        committed[a] = traj.meta["phase_committed_steps"]
        ts[a] = np.array([fr.t for fr in traj.frames])
        abs_z[a] = np.array([abs(fr.marker[2]) for fr in traj.frames])
        finals[a] = traj.frames[-1].marker
    sizing_ok = f_err < 0.01 and q_err < 0.01
    runs_ok = all(c == [60, 60, 60, 60] for c in committed.values()) and all(
        np.array_equal(ts[a], ts[89]) for a in (80, 85)
    )
    # Both targets are theta4 magnitudes independent of alpha, and every weld
    # is a pure translation, so the tip pose depends only on the four theta4
    # values: all runs end in the same state. The final frame therefore
    # carries no alpha information and straightness is compared before it.
    end_gap = {a: float(np.abs(finals[a] - finals[89]).max()) for a in (80, 85)}
    end_ok = all(g < 1e-6 for g in end_gap.values())
    if runs_ok:
        inner = np.flatnonzero(ts[89] < 1.0)
        gaps = {a: abs_z[a][inner] - abs_z[89][inner] for a in (80, 85)}
        strict_ok = all(bool((g > 0.0).all()) for g in gaps.values())
        gap_text = ", ".join(
            f"|z|{a} - |z|89 >= {gaps[a].min():.3f} mm "
            f"(frame {int(inner[gaps[a].argmin()])})"
            for a in (80, 85)
        )
    else:
        strict_ok = False
        gap_text = f"runs not comparable, committed steps {committed}"
    ok = sizing_ok and runs_ok and end_ok and strict_ok
    _verdict(
        8,
        ok,
        f"f,q within {max(f_err, q_err):.1e} mm of d*cot/d*sec (tol 0.01); "
        f"over t < 1 {gap_text}, strictly smallest at 89: {strict_ok}; "
        f"shared end state, markers 80/85 vs 89 agree to "
        f"{end_gap[80]:.1e}/{end_gap[85]:.1e} mm (tol 1e-6)",
    )


def test_ac09_collision_stop():
    units = tuple(UnitSpec(math.radians(89), DOWN) for _ in range(4))
    manip = build(preset_modular(units))
    sched = ActivationSchedule(
        tuple(Phase(i, MPF(GAMMA), 60) for i in range(4)), Mode.SEQUENTIAL
    )
    committed = {}
    for clearance in (0.05, 0.1, 0.2, 0.5):
        traj = run(manip, sched, collision_clearance=clearance)
        committed[clearance] = traj.meta["phase_committed_steps"]
    base = committed[0.1]
    stops_early = base[3] < 60
    monotone = all(
        all(
            committed[hi][k] <= committed[lo][k]
            for k in range(4)
        )
        for lo, hi in ((0.05, 0.1), (0.1, 0.2), (0.2, 0.5))
    )
    ok = stops_early and monotone
    _verdict(
        9,
        ok,
        f"phase 4 commits {base[3]}/60 steps at 0.1 mm clearance; committed "
        f"steps by clearance {dict((k, v[3]) for k, v in committed.items())} "
        f"never increase",
    )


def test_ac10_cli_determinism(tmp_path, capsys):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    jobs = {
        "sweep.csv": ["sweep", "--alpha-deg", "89", "--min-deg", "-170",
                      "--max-deg", "170", "--steps", "69"],
        "sweep.json": ["sweep", "--alpha-deg", "85", "--min-deg", "-120",
                       "--max-deg", "120", "--steps", "33", "--format", "json"],
        "moment.csv": ["moment", "--alpha-deg", "89"],
        "manip.json": ["manip", "rotational"],
        "manip.svg": ["manip", "rotational", "--schedule", "1:mpf:5,2:mpf:5",
                      "--format", "svg", "--plane", "xz,xy"],
    }
    ok = True
    for name, args in jobs.items():
        first = tmp_path / f"a_{name}"
        second = tmp_path / f"b_{name}"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        if digest(first) != digest(second):
            ok = False
    main(["states", "--alpha-deg", "89"])
    out1 = capsys.readouterr().out
    main(["states", "--alpha-deg", "89"])
    out2 = capsys.readouterr().out
    if out1 != out2:
        ok = False
    _verdict(
        10,
        ok,
        f"{len(jobs)} CLI exports plus the states report are byte-identical "
        "across repeated invocations",
    )
