"""Command line interface: formats, defaults, determinism, exit codes."""

import hashlib
import json
import math

import pytest

from selflock import cli
from selflock.cli import _build_parser, main


def test_sweep_csv_zero_row(capsys):
    rc = main(
        [
            "sweep",
            "--alpha-deg", "89",
            "--min-deg", "-90",
            "--max-deg", "90",
            "--steps", "5",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theta1_deg,theta2_deg,theta3_deg,theta4_deg"
    assert len(lines) == 6
    assert lines[3] == "0,90,2,90"


def test_sweep_json(capsys):
    rc = main(
        [
            "sweep",
            "--alpha-deg", "85",
            "--config", "down",
            "--min-deg", "-30",
            "--max-deg", "30",
            "--steps", "3",
            "--format", "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha_deg"] == 85.0
    assert data["config"] == "down"
    assert len(data["rows"]) == 3
    assert data["rows"][1]["theta1_deg"] == 0.0
    assert data["rows"][1]["theta4_deg"] == -90.0


def test_sweep_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(
        [
            "sweep",
            "--alpha-deg", "89",
            "--min-deg", "-10",
            "--max-deg", "10",
            "--steps", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("theta1_deg,")


def test_sweep_grid_validation_exit3(capsys):
    # sweep and moment share one grid rule and its messages.
    cases = (
        ("-10", "10", "1", "steps = 1 must be at least 2"),
        ("10", "10", "5", "grid start 10.0 must be strictly below its end 10.0"),
        ("-200", "10", "5", "grid bound -200.0 outside (-180, 180)"),
        ("-180", "10", "5", "grid bound -180.0 outside (-180, 180)"),
        ("-10", "180", "5", "grid bound 180.0 outside (-180, 180)"),
    )
    for command in ("sweep", "moment"):
        for lo, hi, steps, message in cases:
            assert main([command, "--alpha-deg", "89", "--min-deg", lo,
                         "--max-deg", hi, "--steps", steps]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bad_flags_exit2(capsys):
    assert main(["sweep", "--alpha-deg", "89", "--config", "diagonal",
                 "--min-deg", "-10", "--max-deg", "10", "--steps", "3"]) == 2
    assert main(["sweep", "--alpha-deg", "89"]) == 2
    assert main(["nonsense"]) == 2
    # Plane names are flags, checked before the schedule runs.
    for plane in ("qq", "", "xz,qq"):
        assert main(["manip", "rotational", "--format", "svg", "--plane", plane]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: --plane ") == 3


def test_moment_csv_defaults(capsys):
    rc = main(["moment", "--alpha-deg", "89"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theta1_deg,S_rad,M_input_Nm,MA,M_output_Nm"
    assert len(lines) == 182  # header plus the default 181 point grid
    cols = lines[91].split(",")
    assert float(cols[0]) == 0.0
    assert float(cols[2]) == pytest.approx(0.15979651927679214, rel=1e-8)


def test_moment_pressure_scaling(capsys):
    args = ["moment", "--alpha-deg", "85", "--min-deg", "-30", "--max-deg", "30",
            "--steps", "3", "--format", "json"]
    main(args + ["--pressure-pa", "10000"])
    one = json.loads(capsys.readouterr().out)
    main(args + ["--pressure-pa", "20000"])
    two = json.loads(capsys.readouterr().out)
    main(args + ["--pressure-pa", "0"])
    zero = json.loads(capsys.readouterr().out)
    for r1, r2, r0 in zip(one["rows"], two["rows"], zero["rows"]):
        assert r2["M_input_Nm"] == pytest.approx(2 * r1["M_input_Nm"], rel=1e-8)
        assert r0["M_input_Nm"] == 0.0
        assert r1["MA"] == r2["MA"] == r0["MA"]


def test_moment_outside_actuation_range_exit3(capsys):
    assert main(["moment", "--alpha-deg", "89", "--min-deg", "-95",
                 "--max-deg", "0", "--steps", "3"]) == 3
    capsys.readouterr()


def test_states_output(capsys):
    rc = main(["states", "--alpha-deg", "89"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gamma_deg"] == 36.5
    # The exact 10.580482529851477 at the export's 9 significant digits.
    assert data["semi_flat"]["theta1_deg"] == 10.5804825
    assert data["mpf"]["theta4_deg"] == pytest.approx(36.5, abs=1e-9)
    assert data["mpf"]["theta1_deg"] == pytest.approx(2.702206669484808, abs=1e-6)
    assert data["semi_flat"]["theta2_deg"] == data["semi_flat"]["theta4_deg"]


def test_states_gamma_ninety_is_theta1_zero(capsys):
    main(["states", "--alpha-deg", "89", "--gamma-deg", "90"])
    data = json.loads(capsys.readouterr().out)
    assert abs(data["mpf"]["theta1_deg"]) < 1e-12
    assert data["mpf"]["theta4_deg"] == pytest.approx(90.0)


def test_manip_rotational_default_json(capsys):
    rc = main(["manip", "rotational"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    meta = data["meta"]
    assert list(meta.keys()) == [
        "gamma_deg",
        "alphas_deg",
        "axes",
        "mode",
        "clearance_mm",
        "spec_sha256",
        "phase_units",
        "phase_requested_steps",
        "phase_committed_steps",
    ]
    assert meta["alphas_deg"] == [89.0, 89.0]
    assert meta["axes"] == "u12=+x,u41=+y,ground z=0"
    assert meta["mode"] == "sequential"
    assert meta["phase_committed_steps"] == [60, 60]
    assert len(data["frames"]) == 121
    first = data["frames"][0]
    assert first["t"] == 0.0
    assert first["joints_deg"][0] == pytest.approx(10.5804825, abs=1e-6)
    assert len(first["marker_mm"]) == 3


def test_manip_translational_meta(capsys):
    rc = main(["manip", "translational", "--schedule",
               "1:out90:2,2:mpf:2,3:mpf:2,4:out90:2"])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["alphas_deg"] == [89.0, 89.0, 89.0, 89.0]
    assert meta["f_mm"] == pytest.approx(33.7855609, abs=1e-6)
    assert meta["q_mm"] == pytest.approx(31.1000642, abs=1e-6)
    assert meta["mode"] == "simultaneous"


def test_manip_modular_default_alphas(capsys):
    rc = main(["manip", "modular", "--schedule",
               "1:mpf:2,2:mpf:2,3:mpf:2,4:mpf:2"])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["alphas_deg"] == [89.0, 89.0, 89.0, 89.0]
    assert meta["phase_units"] == [0, 1, 2, 3]


def test_manip_csv(capsys):
    rc = main(["manip", "rotational", "--schedule", "1:mpf:3,2:mpf:3",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,joint1_deg,joint2_deg,marker_x_mm,marker_y_mm,marker_z_mm"
    assert len(lines) == 8  # header plus initial frame plus 2 x 3 steps
    assert [float(v) for v in lines[1].split(",")][0] == 0.0


def test_manip_svg(capsys):
    rc = main(["manip", "rotational", "--schedule", "1:mpf:3,2:mpf:3",
               "--format", "svg", "--plane", "xz,xy"])
    assert rc == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "xz marker path" in svg and "xy marker path" in svg
    assert svg.count(">initial</text>") == 2
    assert svg.count(">final</text>") == 2


def test_manip_alpha_list(capsys):
    rc = main(["manip", "rotational", "--alpha-deg", "85",
               "--schedule", "1:mpf:2,2:mpf:2"])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["alphas_deg"] == [85.0, 85.0]  # one value drives both joints
    assert main(["manip", "rotational", "--alpha-deg", "85,86,87"]) == 2
    assert main(["manip", "translational", "--alpha-deg", "85,86"]) == 2
    capsys.readouterr()
    # An empty list is refused, not read as the preset's default alphas.
    for text in ("", " , "):
        assert main(["manip", "rotational", "--alpha-deg", text]) == 2
        assert capsys.readouterr().err == "error: empty --alpha-deg list\n"


def test_manip_requires_preset_or_spec(capsys):
    assert main(["manip"]) == 2
    capsys.readouterr()


def test_manip_bad_schedule_exit2(capsys):
    base = ["manip", "rotational", "--schedule"]
    assert main(base + ["5:mpf"]) == 2
    assert main(base + ["1:warp9"]) == 2
    assert main(base + ["1"]) == 2
    capsys.readouterr()
    # An empty schedule is a bad phase, not the default schedule, and a
    # unit or angle that is not a number names its phase.
    for text in ("", " ", "1:out", "x:mpf"):
        assert main(base + [text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad phase {text!r}; ")
    # The schedule codec refuses a step count outside 1..MAX_PHASE_STEPS,
    # naming the phase, before any step is taken.
    for text, i in (("1:mpf:0", 0), ("1:mpf:-3", 0), ("1:mpf:100001", 0),
                    ("1:mpf:99999999999999999999", 0), ("2:semiflat,1:mpf:0", 1)):
        assert main(base + [text]) == 2
        err = capsys.readouterr().err
        assert f"--schedule.phases[{i}].steps: phase steps must be at " in err
    gamma, sequential = math.radians(36.5), cli.Mode.SEQUENTIAL
    schedule = cli._parse_schedule_text("1:mpf:100000", 2, gamma, sequential)
    assert schedule.phases[0].steps == 100000
    # The phases' steps may not sum past MAX_PHASE_STEPS either.
    assert main(base + ["1:mpf:60000,2:mpf:60000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --schedule.phases: schedule steps must total at most 100000\n"
    schedule = cli._parse_schedule_text("1:mpf:50000,2:mpf:50000", 2, gamma, sequential)
    assert [ph.steps for ph in schedule.phases] == [50000, 50000]
    # A simultaneous schedule drives each unit toward one target, so it may
    # not name a unit twice; a sequential one may.
    text = "1:mpf:5,1:semiflat:5"
    assert main(base + [text, "--mode", "simultaneous"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --schedule.phases[1].unit: ")
    assert main(base + [text]) == 0
    capsys.readouterr()


def test_manip_zero_clearance_commits_as_default_clearance(capsys):
    # Plates welded edge to edge touch at the start; at clearance 0 they
    # are structural, as at 0.1 mm, instead of blocking on rounding.
    for preset, committed in (("rotational", [60, 60]), ("modular", [60, 60, 60, 42])):
        for clearance in ("0", "0.1"):
            assert main(["manip", preset, "--clearance-mm", clearance]) == 0
            meta = json.loads(capsys.readouterr().out)["meta"]
            assert meta["phase_committed_steps"] == committed


def test_manip_alpha_outside_lock_range_exit3(capsys):
    assert main(["manip", "rotational", "--alpha-deg", "95"]) == 3
    capsys.readouterr()


def test_manip_spec_file_with_embedded_schedule(tmp_path, capsys):
    from selflock import preset_rotational, ManipulatorSpec

    spec = preset_rotational(math.radians(89), math.radians(89))
    data = spec.to_json_dict()
    data["schedule"] = {
        "mode": "simultaneous",
        "phases": [
            {"unit": 0, "target": "out", "angle_deg": 50, "steps": 4},
            {"unit": 1, "target": "out", "angle_deg": 50, "steps": 4},
        ],
    }
    path = tmp_path / "arm.json"
    path.write_text(json.dumps(data))
    rc = main(["manip", "--spec", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["meta"]["mode"] == "simultaneous"
    assert out["meta"]["phase_units"] == [0, 1]
    assert out["meta"]["phase_requested_steps"] == [4, 4]
    assert len(out["frames"]) == 5
    # An inline --schedule overrides the embedded one.
    rc = main(["manip", "--spec", str(path), "--schedule", "1:mpf:2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["meta"]["phase_units"] == [0]
    # A sequential schedule may name a unit twice; --mode simultaneous over
    # it is a flag error, not a spec file error.
    data["schedule"] = {"phases": [{"unit": 0, "target": "mpf", "steps": 2},
                                   {"unit": 0, "target": "semiflat", "steps": 2}]}
    path.write_text(json.dumps(data))
    assert main(["manip", "--spec", str(path)]) == 0
    capsys.readouterr()
    assert main(["manip", "--spec", str(path), "--mode", "simultaneous"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_manip_spec_without_schedule_runs_default(tmp_path, capsys):
    # A spec file with no schedule runs the generic default: MPF on each
    # unit in turn, which for the rotational preset is its own default.
    from selflock import preset_rotational

    path = tmp_path / "rotational.json"
    spec = preset_rotational(math.radians(89), math.radians(89))
    path.write_text(json.dumps(spec.to_json_dict()))
    outputs = []
    for source in (["rotational"], ["--spec", str(path)]):
        assert main(["manip", *source]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_manip_spec_with_skewed_rotations_runs(tmp_path, capsys):
    # Rotations off orthonormal by 4.9e-10 pass the Pose check at 1e-9,
    # but their composes do not; the build holds each to its nearest
    # rotation, so the run matches the exact spec's.
    from selflock import preset_rotational

    runs = {}
    for name, scale in (("exact", 1.0), ("skewed", 1.0 + 4.9e-10)):
        data = preset_rotational(math.radians(89), math.radians(89)).to_json_dict()
        for conn in data["connections"]:
            pose = conn.get("pose") or conn["rel"]
            pose["r"] = [[v * scale for v in row] for row in pose["r"]]
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
        path.write_text(json.dumps(data))
        assert main(["manip", "--spec", str(path), "--out", str(out)]) == 0
        runs[name] = json.loads(out.read_text())
    assert "Traceback" not in capsys.readouterr().err
    exact, skewed = runs["exact"], runs["skewed"]
    assert skewed["meta"]["phase_committed_steps"] == exact["meta"]["phase_committed_steps"]
    assert skewed["frames"] == exact["frames"]


def test_manip_bad_spec_exit4(tmp_path, capsys):
    out = tmp_path / "traj.json"
    rc = main(["manip", "--spec", str(tmp_path / "missing.json"),
               "--out", str(out)])
    assert rc == 4
    assert not out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4
    bad.write_text(json.dumps({"units": []}))
    assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4

    # json.dumps writes the NaN and Infinity tokens that json.loads accepts.
    from selflock import preset_rotational

    data = preset_rotational(math.radians(89), math.radians(89)).to_json_dict()
    data["connections"][0]["pose"]["r"][0][0] = math.nan
    bad.write_text(json.dumps(data))
    assert "NaN" in bad.read_text()
    assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4
    data = preset_rotational(math.radians(89), math.radians(89)).to_json_dict()
    data["units"][0]["m_mm"] = math.inf
    bad.write_text(json.dumps(data))
    assert '"m_mm": Infinity' in bad.read_text()
    assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("non-finite number") == 2

    # json.loads reads an overflowing literal as inf without calling
    # parse_constant. In an integer field int() then raised OverflowError
    # (exit 1, traceback); a float field built inf geometry (exit 0).
    spec = preset_rotational(math.radians(89), math.radians(89)).to_json_dict()
    spec["schedule"] = {"mode": "sequential", "phases": [
        {"unit": 0, "target": "mpf", "steps": 2}, {"unit": 1, "target": "mpf", "steps": 2},
    ]}
    leaves = (
        (("connections", 1, "parent"), "spec.connections[1].parent"),
        (("marker", "unit"), "spec.marker.unit"),
        (("schedule", "phases", 1, "steps"), "spec.schedule.phases[1].steps"),
        (("connections", 0, "pose", "t_mm", 0), "spec.connections[0].pose.t_mm[0]"),
        (("connections", 0, "slab_side_mm"), "spec.connections[0].slab_side_mm"),
    )
    for path, field in leaves:
        data = json.loads(json.dumps(spec))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "OVERFLOW"
        bad.write_text(json.dumps(data).replace('"OVERFLOW"', "1e400"))
        assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"non-finite number inf at {field}" in err and "Traceback" not in err
    assert not out.exists()
    bad.write_text(json.dumps(spec))
    assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 0
    out.unlink()

    # Values that parse but describe no buildable manipulator; each message
    # names the offending field.
    from selflock import Configuration, UnitSpec, preset_modular

    chain = preset_modular([UnitSpec(math.radians(89), Configuration.DOWN)] * 2)
    cases = []
    data = chain.to_json_dict()
    data["connections"][0]["slab_center_mm"] = [1.0, 2.0]
    cases.append((data, "spec.connections[0]: base slab_center"))
    data = chain.to_json_dict()
    data["schedule"] = "x"
    cases.append((data, "schedule"))
    for side in (0.0, -1.0):
        data = chain.to_json_dict()
        assert data["connections"][1]["kind"] == "bounding_plate"
        data["connections"][1]["side_mm"] = side
        cases.append((data, "spec.connections[1]: bounding plate side"))
    data = chain.to_json_dict()
    data["connections"][0]["slab_side_mm"] = -5
    cases.append((data, "spec.connections[0]: base slab_side"))
    # A dataclass check on a value of the right JSON type names its path.
    data = chain.to_json_dict()
    data["units"][0]["alpha_deg"] = 95
    cases.append((data, "spec.units[0]: self-locking joint needs alpha"))
    data = chain.to_json_dict()
    data["units"][1]["plate_m_mm"] = [25.0, 25.0, 25.0]
    cases.append((data, "spec.units[1]: plate_m = "))
    data = chain.to_json_dict()
    data["schedule"] = {"phases": [{"unit": 0, "target": "mpf", "steps": 0}]}
    cases.append((data, "spec.schedule.phases[0].steps: phase steps must be at least 1"))
    for steps in (100001, 1e20):
        data = chain.to_json_dict()
        data["schedule"] = {"phases": [{"unit": 0, "target": "mpf", "steps": steps}]}
        cases.append((data, "spec.schedule.phases[0].steps: phase steps must be at most"))
    data = chain.to_json_dict()
    data["schedule"] = {"phases": [{"unit": 0, "target": "mpf", "steps": 60000},
                                   {"unit": 1, "target": "mpf", "steps": 60000}]}
    cases.append((data, "spec.schedule.phases: schedule steps must total at most 100000"))
    data = chain.to_json_dict()
    data["schedule"] = {"mode": "simultaneous",
                        "phases": [{"unit": 1, "target": "mpf", "steps": 2},
                                   {"unit": 1, "target": "semiflat", "steps": 2}]}
    cases.append((data, "spec.schedule.phases[1].unit: "))
    # A plate no longer than the 2 mm corner trim of the collision mesh.
    data = chain.to_json_dict()
    data["units"][1]["plate_m_mm"] = [25.0, 25.0, 25.0, 1.5]
    cases.append((data, "unit 1 plate 3 size 1.5"))
    # Each field takes only its own JSON type: an index is an integral
    # number, a length a number, a tuple an array of numbers, an enum one of
    # its strings. These built or ran with a truncated or split value.
    phase = {"unit": 0, "target": "mpf", "steps": 2}
    for path, value in (
        (("units", 0, "plate_m_mm"), "9999"),
        (("units", 0, "alpha_deg"), "89"),
        (("units", 0, "m_mm"), True),
        (("units", 0, "config"), "UP"),
        (("connections", 1, "child"), 1.9),
        (("connections", 1, "child"), True),
        (("marker", "plate"), 3.7),
        (("schedule", "phases", 0, "unit"), 1.9),
        (("schedule", "phases", 0, "steps"), 2.5),
        (("schedule", "phases", 0, "steps"), "3"),
        (("schedule", "phases", 0, "target"), "MPF"),
        (("schedule", "mode"), "SIMULTANEOUS"),
    ):
        data = {**chain.to_json_dict(), "schedule": {"phases": [dict(phase)]}}
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cases.append((data, "spec" + "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in path
        ) + ": "))
    # A key that no field reads, such as a misspelled optional one, is an
    # error that names it; "slab_sid_mm" used to drop the base slab.
    for where, key in (("", "extra"), (".units[1]", "plate_mm"),
                       (".connections[0]", "slab_sid_mm"),
                       (".connections[1].attach_child", "s"),
                       (".marker", "face"), (".schedule", "phase"),
                       (".schedule.phases[0]", "gama_deg")):
        data = {**chain.to_json_dict(), "schedule": {"phases": [dict(phase)]}}
        node = data
        for part in where.replace("[", ".").replace("]", "").split(".")[1:]:
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = 1
        cases.append((data, f"spec{where}: unknown key {key!r}"))
    for data, field in cases:
        bad.write_text(json.dumps(data))
        assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
    assert not out.exists()
    # An integral float is still an index.
    data = chain.to_json_dict()
    data["connections"][1]["child"] = 0.0
    data["marker"]["plate"] = 3.0
    bad.write_text(json.dumps(data))
    assert main(["manip", "--spec", str(bad), "--schedule", "1:mpf:2"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    from selflock import spec_sha256

    assert meta["spec_sha256"] == spec_sha256(chain)


def test_schedule_from_json_infinite_integer():
    # Called on its own, the schedule decoder rejects an infinite integer
    # field like any other malformed field, naming it.
    from selflock import ActivationSchedule

    for phase, key in (({"unit": math.inf, "target": "mpf"}, "unit"),
                       ({"unit": 0, "target": "mpf", "steps": -math.inf}, "steps")):
        pattern = rf"^non-finite number -?inf at spec\.schedule\.phases\[0\]\.{key}$"
        with pytest.raises(cli.SpecError, match=pattern):
            ActivationSchedule.from_json_dict(
                {"phases": [phase]}, 2, math.radians(36.5), "spec.schedule"
            )


def test_non_finite_numbers_exit3(capsys):
    for bad in ("nan", "inf"):
        assert main(["manip", "rotational", "--clearance-mm", bad]) == 3
    assert main(["moment", "--alpha-deg", "80", "--pressure-pa", "nan"]) == 3
    assert main(["moment", "--alpha-deg", "80", "--pressure-pa", "inf"]) == 3
    assert main(["moment", "--alpha-deg", "80", "--m-mm", "inf"]) == 3
    assert main(["moment", "--alpha-deg", "80", "--m-mm", "nan"]) == 3
    for bad in ("nan", "inf"):
        assert main(["manip", "translational", "--d-mm", bad]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("error:") == 8
    assert captured.err.count("error: d = ") == 2


def test_manip_translational_small_d_exit3(capsys):
    # At gamma 36.5 deg the plate q = d / cos(gamma) reaches the 2 mm corner
    # trim at d = 1.6077 mm; the error names d and that bound.
    assert main(["manip", "translational", "--d-mm", "1.6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: d = 1.6 ")
    assert "1.6077" in captured.err and "Traceback" not in captured.err


def test_grid_out_of_memory_exit3(monkeypatch, capsys):
    # A grid too large to allocate: np.linspace raises MemoryError, which
    # the CLI reports as a bad --steps. Simulated, not allocated.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli.np, "linspace", no_memory)
    huge = ["--min-deg", "-10", "--max-deg", "10", "--steps", "100000000000"]
    assert main(["sweep", "--alpha-deg", "80"] + huge) == 3
    assert main(["moment", "--alpha-deg", "80"] + huge) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("error: --steps 100000000000") == 2


def test_parser_reused_across_calls(capsys):
    assert _build_parser() is _build_parser()
    sweep = ["sweep", "--alpha-deg", "80", "--min-deg", "-40", "--max-deg", "40",
             "--steps", "9"]
    assert main(sweep) == 0
    first = capsys.readouterr().out
    assert main(sweep + ["--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: selflock")
    assert main(["moment", "--alpha-deg", "85", "--min-deg", "-30",
                 "--max-deg", "30", "--steps", "3", "--format", "json",
                 "--pressure-pa", "20000"]) == 0
    assert json.loads(capsys.readouterr().out)["pressure_pa"] == 20000.0
    assert main(sweep) == 0
    assert capsys.readouterr().out == first
    # Each parse gets its own namespace: nothing of the moment call remains.
    args = _build_parser().parse_args(sweep)
    assert args is not _build_parser().parse_args(sweep)
    assert not hasattr(args, "pressure_pa")
    assert args.format == "csv" and args.out is None


def test_outputs_deterministic(capsys):
    sweep_args = ["sweep", "--alpha-deg", "89", "--min-deg", "-170",
                  "--max-deg", "170", "--steps", "41"]
    main(sweep_args)
    first = capsys.readouterr().out
    main(sweep_args)
    assert capsys.readouterr().out == first

    manip_args = ["manip", "rotational", "--schedule", "1:mpf:3,2:mpf:3"]
    main(manip_args)
    first = capsys.readouterr().out
    main(manip_args)
    assert capsys.readouterr().out == first


# sha256 of the table exports of AC10 and of the states report. AC10 only
# compares repeated runs; these pins also catch a rounding change in the
# closed forms that reaches the 9 exported digits.
_PINNED_SHA256 = {
    "sweep.csv": "34eff041c06f8a47a439404bf1f0e4530eddcfcadbd85dbd516478e0200aa7f6",
    "sweep.json": "2a15eba05eeb4e1a2d58f697782e57f0210f7373606629b3f476780aa5561b00",
    "moment.csv": "97bb6eb45c4c4b4131a75ea05c9049554923ca83410462303385cf7beed8b433",
    "moment.json": "77814c2bd669e29354afa0dc850144ddcc60b1fa236bf477ec6ebbce914c5091",
    "states": "ddf7f048d19f4b5be9ef4df214d632134b45a467c05f6a99aee1bca3a286dacc",
    "manip.json": "21c0800997160c6c8f8dd035b03446f9d2570cacb5560809813d6fa9ff27a7bc",
    "manip.svg": "36ca092c13643cfca18197768b14333602b6099afbd79f508731816c33031726",
    "manip-modular.csv": "372182c49481cfacbbae59ef0ff0c90e227e6402eaf3f31bc552ce27bf081b04",
    "manip-translational.json": "1af1af4adfa3be6a46e6c8b6caa57beb33838e0e86bfc8ecee330ef73c68ec49",
    "manip-spec.json": "135df1648d37768373679e36fa86dd2ef17d3fab609af1038841fafca6ee7b1c",
}


def test_table_exports_match_pinned_digests(tmp_path, capsys):
    from selflock import Configuration, UnitSpec, preset_modular

    # A dumped modular-4 spec has a weld, a bounding plate and a base slab.
    unit = UnitSpec(math.radians(89), Configuration.DOWN)
    data = preset_modular((unit,) * 4).to_json_dict()
    data["schedule"] = {"mode": "sequential", "phases": [
        {"unit": k, "target": "mpf", "steps": 6} for k in range(4)
    ]}
    spec = tmp_path / "modular4.json"
    spec.write_text(json.dumps(data))
    jobs = {
        "sweep.csv": ["sweep", "--alpha-deg", "89", "--min-deg", "-170",
                      "--max-deg", "170", "--steps", "69"],
        "sweep.json": ["sweep", "--alpha-deg", "85", "--min-deg", "-120",
                       "--max-deg", "120", "--steps", "33", "--format", "json"],
        "moment.csv": ["moment", "--alpha-deg", "89"],
        "moment.json": ["moment", "--alpha-deg", "89", "--format", "json"],
        "manip.json": ["manip", "rotational"],
        "manip.svg": ["manip", "rotational", "--schedule", "1:mpf:5,2:mpf:5",
                      "--format", "svg", "--plane", "xz,xy"],
        "manip-modular.csv": ["manip", "modular", "--format", "csv"],
        "manip-translational.json": ["manip", "translational"],
        "manip-spec.json": ["manip", "--spec", str(spec)],
    }
    got = {}
    for name, args in jobs.items():
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert main(["states", "--alpha-deg", "89"]) == 0
    got["states"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == _PINNED_SHA256
