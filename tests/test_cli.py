from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

import anchorsim
from anchorsim.cli import export_traces, main, print_config
from anchorsim.engine import Trace, run
from anchorsim.errors import IoFailure
from anchorsim.scenario import Scenario, render_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_drill_test_constant_load_succeeds(capsys, tmp_path):
    out_dir = tmp_path / "traces"
    code, out, err = run_cli(
        capsys, "drill-test", "--variant", "constant_load_spring",
        "--seed", "3", "--trace-out", str(out_dir),
    )
    assert code == 0
    assert "success" in out
    laser = (out_dir / "robot1_laser_depth.csv").read_text()
    last = laser.strip().splitlines()[-1]
    assert float(last.split(",")[1]) >= 0.0795


def test_drill_test_uncompensated_fails_near_10mm(capsys):
    code, out, err = run_cli(capsys, "drill-test", "--variant", "offset_uncompensated")
    assert code == 1
    assert "guard stop on mx" in out
    assert "10." in out  # halt depth in millimetres appears in the report


def test_bad_variant_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "drill-test", "--variant", "banana")
    assert code == 2
    assert "invalid scenario" in err


def test_bad_scenario_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "s.ini"
    bad.write_text("[tools]\nvariant = banana\n")
    code, out, err = run_cli(capsys, "drill-test", "--scenario", str(bad))
    assert code == 2


INVALID_VALUES = [
    ("[tools]\npulse_attenuation = 1.5\n", "tools.pulse_attenuation"),
    ("[tools]\ndrill_offset = 0\n", "tools.drill_offset"),
    ("[tools]\nsupport_arm_offset = -0.1\n", "tools.support_arm_offset"),
    ("[tools]\nvariant = regular_spring\nspring_rate = 0\n", "tools.spring_rate"),
    ("[tools]\nconstant_load_force = 0\n", "tools.constant_load_force"),
    ("[tools]\ntarget_torque = 0\n", "tools.target_torque"),
    ("[tools]\nsocket_spring_travel = 0\n", "tools.socket_spring_travel"),
    ("[tools]\nblow_rate = 0\n", "tools.blow_rate"),
    ("[tools]\npulse_rate = 0\n", "tools.pulse_rate"),
    ("[wall]\nthickness = 0.05\n", "wall.thickness"),
    ("[wall]\ncompressive_strength = 0\n", "wall.compressive_strength"),
    ("[part]\nhole_diameter = 0\n", "part.hole_diameter"),
    ("[sensors]\nforce_limit = 0\n", "sensors.force_limit"),
    ("[tools]\nnut_run_speed = 0\n", "tools.nut_run_speed"),
    ("[tools]\nfeed_speed = 0\n", "tools.feed_speed"),
    ("[tools]\nfeed_speed = nan\n", "tools.feed_speed"),
    ("[robot]\ngross_speed = 0\n", "robot.gross_speed"),
    ("[robot]\napproach_speed = -1\n", "robot.approach_speed"),
    ("[robot]\nretract_speed = 0\n", "robot.retract_speed"),
    ("[procedure]\nspiral_probe_period = 0\n", "procedure.spiral_probe_period"),
    ("[procedure]\nspiral_pitch = 0\n", "procedure.spiral_pitch"),
    ("[procedure]\nspiral_probe_spacing = 0\n", "procedure.spiral_probe_spacing"),
    ("[wall]\nyaw_deg = inf\n", "wall.yaw_deg"),
]


@pytest.mark.parametrize("text, field", INVALID_VALUES, ids=[f for _, f in INVALID_VALUES])
def test_invalid_value_exits_2_naming_the_field(tmp_path, text, field):
    # A separate process, so an escaping exception shows as a traceback on
    # stderr rather than as an error inside this test.
    path = tmp_path / "s.ini"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(anchorsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "anchorsim.cli", "run", "--scenario", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert f"invalid scenario: {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_payload_overrun_fails_the_step(capsys, tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[part]\nmass = 20\n")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--report", "machine-readable")
    assert code == 1
    steps = json.loads(out)["steps"]
    assert [(s["step"], s["status"]) for s in steps] == [
        ("estimate_orientation", "ok"), ("pick_place_part", "failed"),
    ]
    assert steps[1]["error"] == "PayloadExceeded: robot2: payload 21.0 kg exceeds 13.0 kg"


def test_sim_time_ceiling_fails_the_step(capsys, tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[robot]\ntool_change_time = 8000\n[procedure]\ntimestep = 0.1\n")
    code, out, err = run_cli(capsys, "drill-test", "--scenario", str(path), "--report", "machine-readable")
    assert code == 1
    steps = json.loads(out)["steps"]
    assert [(s["step"], s["status"]) for s in steps] == [("drill_hole", "failed")]
    assert steps[0]["error"] == "SimTimeExceeded: simulated time passed the 7200 s ceiling"


def test_error_between_steps_fails_the_run(capsys, tmp_path):
    # The closing tool return runs after the last step; the ceiling passes there.
    path = tmp_path / "s.ini"
    path.write_text("[robot]\ntool_change_time = 3570\n[procedure]\ntimestep = 0.05\n")
    code, out, err = run_cli(capsys, "nut-test", "--scenario", str(path), "--report", "machine-readable")
    assert code == 1
    report = json.loads(out)
    assert [(s["step"], s["status"]) for s in report["steps"]] == [("tighten_nut", "ok")]
    assert report["failure"] == "SimTimeExceeded: simulated time passed the 7200 s ceiling"


def test_scenario_file_round_trip(tmp_path, capsys):
    sc = Scenario()
    sc.tools.variant = "regular_spring"
    path = tmp_path / "s.ini"
    path.write_text(render_scenario(sc))
    code, out, err = run_cli(capsys, "drill-test", "--scenario", str(path))
    assert code == 1  # regular spring overloads positively


def test_machine_report_structure(capsys):
    code, out, err = run_cli(
        capsys, "nut-test", "--seed", "5", "--report", "machine-readable"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is True
    steps = payload["steps"]
    assert steps[0]["step"] == "tighten_nut"
    assert abs(sum(s["duration"] for s in steps) - payload["total_duration"]) < 60.0


def test_run_reports_full_step_sequence_and_duration_sum(capsys):
    code, out, err = run_cli(capsys, "run", "--seed", "7", "--report", "machine-readable")
    assert code == 0
    payload = json.loads(out)
    names = [s["step"] for s in payload["steps"]]
    assert names == [
        "estimate_orientation", "pick_place_part", "detect_part_hole",
        "drill_hole", "detect_wall_hole", "pick_anchor", "insert_anchor",
        "hammer_anchor", "tighten_nut", "release_repeat",
    ]
    # Steps are contiguous: durations sum to the total.
    total = sum(s["duration"] for s in payload["steps"])
    assert total == pytest.approx(payload["total_duration"], abs=1.0)


def test_byte_identical_reruns(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    outputs = []
    for d in dirs:
        code, out, err = run_cli(
            capsys, "drill-test", "--seed", "9", "--trace-out", str(d),
            "--report", "machine-readable",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    assert "manifest.json" in files
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_trace_file_format(tmp_path):
    trace = Trace("robot1/mx", "mx")
    trace.record(1.0, -5.0)
    trace.record(2.0, -6.25)
    files = export_traces({"robot1/mx": trace}, tmp_path)
    assert files == ["robot1_mx.csv"]
    raw = (tmp_path / "robot1_mx.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "t,mx"
    assert lines[1] == "1.0000,-5.0"
    assert lines[2] == "2.0000,-6.25"


def test_empty_trace_exports_header_only(tmp_path):
    trace = Trace("robot1/fz", "fz")
    export_traces({"robot1/fz": trace}, tmp_path)
    assert (tmp_path / "robot1_fz.csv").read_text() == "t,fz\n"


def test_unwritable_dir_is_io_failure(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    trace = Trace("robot1/fz", "fz")
    with pytest.raises(IoFailure):
        export_traces({"robot1/fz": trace}, blocker)


def test_print_config_matches_defaults(capsys):
    code = main(["--print-config"])
    out = capsys.readouterr().out
    assert code == 0
    sc = Scenario()
    assert "[tools]" in out
    assert f"variant = {sc.tools.variant}" in out
    assert f"thrust_at_contact = {sc.tools.thrust_at_contact}" in out
    assert f"spiral_pitch = {sc.procedure.spiral_pitch}" in out
    assert f"slip_coefficient = {sc.robot.slip_coefficient}" in out


def test_no_subcommand_shows_help(capsys):
    code = main([])
    assert code == 2


def test_frame_test_runs(capsys):
    code, out, err = run_cli(capsys, "frame-test", "--seed", "1")
    assert code == 0
