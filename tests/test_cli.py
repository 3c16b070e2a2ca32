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
    base = ["sweep", "--alpha-deg", "89", "--min-deg", "-10", "--max-deg", "10"]
    assert main(base + ["--steps", "1"]) == 3
    assert main(["sweep", "--alpha-deg", "89", "--min-deg", "10",
                 "--max-deg", "10", "--steps", "5"]) == 3
    assert main(["sweep", "--alpha-deg", "89", "--min-deg", "-200",
                 "--max-deg", "10", "--steps", "5"]) == 3
    capsys.readouterr()


def test_bad_flags_exit2(capsys):
    assert main(["sweep", "--alpha-deg", "89", "--config", "diagonal",
                 "--min-deg", "-10", "--max-deg", "10", "--steps", "3"]) == 2
    assert main(["sweep", "--alpha-deg", "89"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


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


def test_manip_requires_preset_or_spec(capsys):
    assert main(["manip"]) == 2
    capsys.readouterr()


def test_manip_bad_schedule_exit2(capsys):
    base = ["manip", "rotational", "--schedule"]
    assert main(base + ["5:mpf"]) == 2
    assert main(base + ["1:warp9"]) == 2
    assert main(base + ["1:mpf:0"]) == 2
    assert main(base + ["1"]) == 2
    capsys.readouterr()


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

    # Values that parse but describe no buildable manipulator; each message
    # names the offending field.
    from selflock import Configuration, UnitSpec, preset_modular

    chain = preset_modular([UnitSpec(math.radians(89), Configuration.DOWN)] * 2)
    cases = []
    data = chain.to_json_dict()
    data["connections"][0]["slab_center_mm"] = [1.0, 2.0]
    cases.append((data, "slab_center"))
    data = chain.to_json_dict()
    data["schedule"] = "x"
    cases.append((data, "schedule"))
    for side in (0.0, -1.0):
        data = chain.to_json_dict()
        assert data["connections"][1]["kind"] == "bounding_plate"
        data["connections"][1]["side_mm"] = side
        cases.append((data, "bounding plate side"))
    for data, field in cases:
        bad.write_text(json.dumps(data))
        assert main(["manip", "--spec", str(bad), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
    assert not out.exists()


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
    "states": "ddf7f048d19f4b5be9ef4df214d632134b45a467c05f6a99aee1bca3a286dacc",
}


def test_table_exports_match_pinned_digests(tmp_path, capsys):
    jobs = {
        "sweep.csv": ["sweep", "--alpha-deg", "89", "--min-deg", "-170",
                      "--max-deg", "170", "--steps", "69"],
        "sweep.json": ["sweep", "--alpha-deg", "85", "--min-deg", "-120",
                       "--max-deg", "120", "--steps", "33", "--format", "json"],
        "moment.csv": ["moment", "--alpha-deg", "89"],
    }
    got = {}
    for name, args in jobs.items():
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert main(["states", "--alpha-deg", "89"]) == 0
    got["states"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == _PINNED_SHA256
