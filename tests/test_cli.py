from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorsim
from anchorsim.cli import SUBCOMMAND_MISSIONS, export_traces, main
from anchorsim.engine import TRACE_CHUNK, TraceRecorder, run
from anchorsim.errors import IoFailure
from anchorsim.scenario import _SECTION_TYPES, ProcedureSection, Scenario, ToolsSection, render_scenario
from anchorsim.sensors import Wrench


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
    ("[tools]\npulse_torque_step = 0\n", "tools.pulse_torque_step"),
    ("[tools]\nfree_run_torque = -100\n", "tools.free_run_torque"),
    ("[tools]\nsocket_fit_time = -1\n", "tools.socket_fit_time"),
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
    ("[sensors]\nlaser_sigma = -1\n", "sensors.laser_sigma"),
    ("[sensors]\nft_sigma_force = -2\n", "sensors.ft_sigma_force"),
    ("[part]\nplacement_sigma = -0.002\n", "part.placement_sigma"),
    ("[robot]\ntool_change_time = -5\n", "robot.tool_change_time"),
    ("[part]\nholes = 3\n", "part.hole_spacing"),
    ("[part]\ntarget_x = 0.5\n", "part.target_x"),
    ("[robot]\ntool_stand1 = 2,-0.7,0.8\n", "robot.tool_stand1"),
    ("[robot]\nhome1 = 5,5,5\n", "robot.home1"),
    ("[wall]\nwidth = 0\n", "wall.width"),
    ("[procedure]\ntimestep = 0.00005\n", "procedure.timestep"),
    ("[robot]\nmass_gripper = -10\n[part]\nmass = 20\n", "robot.mass_gripper"),
    ("[robot]\nmass_drill = -6\npayload = 1\n", "robot.mass_drill"),
    ("[robot]\nmass_hammer = -1\n", "robot.mass_hammer"),
    ("[robot]\nmass_nutrunner = -1\n", "robot.mass_nutrunner"),
    ("[part]\nmass = -1\n", "part.mass"),
    ("[robot]\npayload = 0\n", "robot.payload"),
    ("[procedure]\ndrill_depth_target = 0.09\n", "procedure.drill_depth_target"),
    ("[sensors]\nmoment_limit = -1\n", "sensors.moment_limit"),
    ("[procedure]\nsearch_timeout = -60\n", "procedure.search_timeout"),
    ("[procedure]\nsocket_fit_timeout = -1\n", "procedure.socket_fit_timeout"),
    ("[procedure]\nwedge_moment_rate = 0\n", "procedure.wedge_moment_rate"),
    ("[wall]\ndistance = 1.4\n", "wall.distance"),
    ("[tools]\nblow_advance = 0\n", "tools.blow_advance"),
    ("[tools]\nhammer_contact_ramp = 0\n", "tools.hammer_contact_ramp"),
    ("[tools]\nhammer_contact_cap = 26\n", "tools.hammer_contact_cap"),
    ("[procedure]\norientation_offset = 0.0\n", "procedure.orientation_offset"),
    ("[sensors]\ncamera_fov = 0\n", "sensors.camera_fov"),
    ("[procedure]\nengagement_clearance = 0\n", "procedure.engagement_clearance"),
    ("[robot]\ncontact_stiffness = 0\n", "robot.contact_stiffness"),
    ("[sensors]\nguard_filter_window = -1\n", "sensors.guard_filter_window"),
]

#: Holes whose centres are on the wall but whose rims are not, holes that
#: overlap, a hole no deeper than the insertion push, spiral probe periods
#: that are not whole ticks (probes dwell whole ticks, so the search overran
#: its timeout) or longer than the search timeout (its first probe overran
#: it), a socket that slots on only after its fit timeout, a wall
#: that puts an orientation laser point out of reach, tools or loads the
#: payload cannot carry, blows that drive the anchor back out,
#: noise-free orientation laser points too close to span a triangle, a
#: socket spring shorter than the nut run in the deepest hole (each failed a
#: step partway through the run), and impulses due more often than once a
#: tick (the tools struck one a tick, whatever the rate); and a probe
#: period, an orientation L and guard windows so long that validation or
#: the world's set-up overflowed on them; part targets that put a point an
#: arm works at a hole, or at which robot 2 places the part, out of that
#: arm's reach (each failed that step with ``OutOfReach``); and orientation
#: L's wider than the wall and a wall turned so far that an orientation
#: laser ray misses it (each failed the first step with ``NoReturn``). Their
#: fields may repeat cases above, so their ids are their text.
INVALID_REPEATS = [
    ("[part]\ntarget_x = 0.1\n", "part.target_x"),
    ("[part]\ntarget_y = 0.15\n", "part.target_y"),
    ("[part]\nholes = 2\nhole_spacing = 0.2\n", "part.hole_spacing"),
    ("[part]\nholes = 2\nhole_spacing = 0\n", "part.hole_spacing"),
    ("[procedure]\ndrill_depth_target = 0.001\n", "procedure.drill_depth_target"),
    ("[procedure]\nspiral_probe_period = 0.0001\n[sensors]\ncamera_sigma_wall = 0.012\n",
     "procedure.spiral_probe_period"),
    ("[procedure]\nspiral_probe_period = 0.015\n[sensors]\ncamera_sigma_wall = 0.012\n",
     "procedure.spiral_probe_period"),
    ("[procedure]\nspiral_probe_period = 90\n", "procedure.spiral_probe_period"),
    ("[tools]\nsocket_fit_time = 11\n", "tools.socket_fit_time"),
    ("[wall]\ndistance = 1.6\n", "wall.distance"),
    ("[robot]\npayload = 5\n", "robot.payload"),
    ("[part]\nmass = 12.5\n", "robot.payload"),
    ("[robot]\nmass_drill = 14\n", "robot.payload"),
    ("[tools]\nblow_advance = -0.001\n", "tools.blow_advance"),
    ("[procedure]\norientation_offset = 0.0000447\n[sensors]\nlaser_sigma = 0\n", "procedure.orientation_offset"),
    ("[tools]\nsocket_spring_travel = 0.001\n", "tools.socket_spring_travel"),
    ("[tools]\nnut_height = 0.001\n", "tools.socket_spring_travel"),
    ("[tools]\nnut_height = 0.005\n", "tools.socket_spring_travel"),
    ("[tools]\npulse_rate = 1000\n", "tools.pulse_rate"),
    ("[tools]\nblow_rate = 1000\n", "tools.blow_rate"),
    ("[procedure]\nspiral_probe_period = 1e308\n", "procedure.spiral_probe_period"),
    ("[procedure]\norientation_offset = 1e308\n", "wall.distance"),
    ("[sensors]\nguard_filter_window = 1e308\n", "sensors.guard_filter_window"),
    ("[sensors]\nguard_filter_window = 1e20\n", "sensors.guard_filter_window"),
    ("[wall]\nwidth = 2.0\n[part]\ntarget_x = 0.9\n", "part.target_x"),
    ("[wall]\nwidth = 2.0\n[part]\ntarget_x = -0.6\n", "part.target_x"),
    ("[wall]\nheight = 2.0\n[part]\ntarget_y = -0.8\n", "part.target_y"),
    ("[procedure]\norientation_offset = 0.21\n", "procedure.orientation_offset"),
    ("[procedure]\norientation_offset = 0.25\n", "procedure.orientation_offset"),
    ("[procedure]\norientation_offset = 0.35\n", "procedure.orientation_offset"),
    ("[procedure]\norientation_offset = 0.5\n", "procedure.orientation_offset"),
    ("[wall]\nyaw_deg = 89\n", "procedure.orientation_offset"),
]


@pytest.mark.parametrize(
    "text, field", INVALID_VALUES + INVALID_REPEATS,
    ids=[f for _, f in INVALID_VALUES] + [t.split("\n", 1)[1].strip().replace("\n", ", ") for t, _ in INVALID_REPEATS],
)
def test_invalid_value_exits_2_naming_the_field(capsys, tmp_path, text, field):
    path = tmp_path / "s.ini"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 2
    assert f"invalid scenario: {field}:" in err


@pytest.mark.parametrize("distance", [1.30, 1.35])
def test_far_wall_with_the_laser_points_in_reach_runs(capsys, tmp_path, distance):
    path = tmp_path / "s.ini"
    path.write_text(f"[wall]\ndistance = {distance}\n")
    code, out, err = run_cli(capsys, "frame-test", "--scenario", str(path))
    assert (code, err) == (0, "")


def test_drill_feed_at_the_reach_names_the_reach(capsys, tmp_path):
    # On a wall this far the drilling feed reaches the arm's reach about
    # 38 mm into the wall, short of its 80 mm depth target and well short of
    # its 0.12 m travel limit.
    path = tmp_path / "s.ini"
    path.write_text("[wall]\ndistance = 1.20\n")
    code, out, err = run_cli(capsys, "drill-test", "--seed", "7", "--scenario", str(path))
    assert (code, err) == (1, "")
    assert "(drill_hole: WrongPose: robot1: feed reached the 1.298 m reach of its base without its stop condition)" in out


@pytest.mark.parametrize("offset", [0.000045, -0.000045])
def test_smallest_valid_orientation_offset_runs(capsys, tmp_path, offset):
    # Noise-free laser points an L this small apart still span the triangle
    # the frame estimate needs.
    path = tmp_path / "s.ini"
    path.write_text(f"[procedure]\norientation_offset = {offset}\n[sensors]\nlaser_sigma = 0\n")
    code, out, err = run_cli(capsys, "frame-test", "--scenario", str(path))
    assert (code, err) == (0, "")


def test_timestep_off_the_probe_period_names_the_timestep(capsys, tmp_path):
    # The file sets only the timestep; the period it no longer divides is
    # named, and the reason says which timestep broke it.
    path = tmp_path / "s.ini"
    path.write_text("[procedure]\ntimestep = 0.02\n")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 2
    assert (
        "invalid scenario: procedure.spiral_probe_period: "
        "must be a whole number of procedure.timestep = 0.02 s ticks"
    ) in err


#: Every numeric scenario key, as ``(section, key, default)``.
NUMERIC_KEYS = [
    (section, f.name, f.default)
    for section, cls in _SECTION_TYPES.items()
    for f in fields(cls)
    if isinstance(f.default, (int, float))
]


def _slows_the_tick(change) -> bool:
    # A finer tick only multiplies the run time, up to 100-fold at a scale of
    # 0.01; test_criterion_9_timestep_refinement runs a finer tick.
    (_, key, _), scale = change
    return key == "timestep" and 0 < scale < 1


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    changes=st.lists(
        st.tuples(st.sampled_from(NUMERIC_KEYS), st.sampled_from([0, -1, 0.01, 0.1, 0.5, 2, 10, 100]))
        .filter(lambda change: not _slows_the_tick(change)),
        min_size=1, max_size=3, unique_by=lambda change: change[0][:2],
    ),
    command=st.sampled_from(["frame-test", "drill-test", "insert-test", "nut-test"]),
)
def test_scaled_scenario_exits_0_1_or_2(changes, command):
    # Any scenario text ends in success, a failed step or invalid input; an
    # escaping exception fails the test with its traceback.
    sections: dict[str, list[str]] = {}
    for (section, key, default), scale in changes:
        value = default * scale
        sections.setdefault(section, []).append(f"{key} = {round(value) if isinstance(default, int) else value!r}")
    text = "".join(f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assert main([command, "--scenario", path]) in (0, 1, 2), text


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    key=st.sampled_from(NUMERIC_KEYS),
    literal=st.sampled_from(["1e308", "-1e308", "inf", "nan", "1e20", "5e-324"]),
    command=st.sampled_from(sorted(SUBCOMMAND_MISSIONS)),
)
def test_extreme_literal_exits_0_1_or_2(key, literal, command):
    # One numeric key set to a literal at the edge of the float range, on
    # any subcommand, ends in success, a failed step or invalid input; an
    # escaping exception fails the test with its traceback.
    section, name, _ = key
    text = f"[{section}]\n{name} = {literal}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assert main([command, "--scenario", path]) in (0, 1, 2), (command, text)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(
    factor=st.integers(2, 30),
    command=st.sampled_from(["frame-test", "drill-test", "insert-test", "nut-test", "run"]),
)
def test_coarse_tick_exits_0_1_or_2(factor, command):
    # Scaling the timestep, the probe period and the pulse interval together
    # keeps each probe a whole number of ticks and each pulse at least one,
    # so the example reaches the mission at a coarse tick instead of failing
    # validation.
    p, tools = ProcedureSection(), ToolsSection()
    text = (
        f"[procedure]\ntimestep = {p.timestep * factor!r}\n"
        f"spiral_probe_period = {p.spiral_probe_period * factor!r}\n"
        f"[tools]\npulse_rate = {tools.pulse_rate / factor!r}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assert main([command, "--scenario", path]) in (0, 1, 2), text


@pytest.mark.parametrize("text, argv", [
    # The spiral outgrows the 50 mm around the hole within the search budget.
    ("[procedure]\nspiral_probe_spacing = 0.0008\nspiral_pitch = 0.035\n",
     [("insert-test", "--seed", str(seed)) for seed in range(4)]),
    # The first insertion attempt lands 59 mm from the hole.
    ("[sensors]\ncamera_sigma_wall = 0.04\n", [("run", "--seed", "5")]),
    # Holes 14 mm apart: a wall-hole detection lands 12 mm off, nearer another point's hole.
    ("[part]\nholes = 4\nhole_spacing = 0.014\n[sensors]\ncamera_sigma_wall = 0.005\n",
     [("run", "--seed", "22")]),
], ids=["spiral-outgrows-hole", "camera-59mm-off", "crowded-holes"])
def test_far_insertion_is_a_search_timeout(capsys, tmp_path, text, argv):
    path = tmp_path / "s.ini"
    path.write_text(text)
    for args in argv:
        code, out, err = run_cli(capsys, *args, "--scenario", str(path))
        assert code == 1
        assert "insert_anchor: SearchTimeout" in out


#: A hole just deeper than the insertion push, which noise can carry past it.
SHALLOW_HOLE = "[procedure]\ndrill_depth_target = 0.00701\nhammer_success_depth = 0.0005\n"


@pytest.mark.parametrize("text, argv, step", [
    (SHALLOW_HOLE, ("insert-test", "--seed", "5"), "insert_anchor"),
    (SHALLOW_HOLE, ("run", "--seed", "7"), "insert_anchor"),
    (SHALLOW_HOLE, ("nut-test",), "tighten_nut"),
    # The platform slips back as fast as the bit feeds, so no hole is drilled.
    ("[procedure]\ndepth_source = commanded\n[robot]\nslip_coefficient = 1e-5\n", ("drill-test",), "drill_hole"),
    # The nut already sits on the part: a run of zero length, no run-down.
    ("[tools]\nnut_height = 0.041\n", ("nut-test",), "tighten_nut"),
], ids=["insert-past-bottom", "run-past-bottom", "nut-shallow-seat", "drill-slips-back", "nut-no-run"])
def test_model_limit_fails_the_step(capsys, tmp_path, text, argv, step):
    path = tmp_path / "s.ini"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
    assert code == 1
    assert f"result: FAILED ({step}: " in out


def test_non_utf8_scenario_exits_2(tmp_path):
    # The one test of the ``python -m anchorsim.cli`` entry point: its exit
    # code, and no traceback on stderr.
    path = tmp_path / "s.ini"
    path.write_bytes(b"[part]\nholes = 1\xff\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(anchorsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "anchorsim.cli", "frame-test", "--scenario", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert f"invalid scenario: {path}: not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overflowing_spiral_fails_the_search_without_a_warning(tmp_path):
    # Probe offsets near 1e306 m square to inf, which engages nothing. The
    # search reads them in bulk as it does per tick: quietly, in a process
    # with the default warning filters.
    path = tmp_path / "s.ini"
    path.write_text("[procedure]\nspiral_pitch = 1e308\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(anchorsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "anchorsim.cli", "insert-test", "--seed", "7", "--scenario", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "insert_anchor: SearchTimeout" in proc.stdout


def test_payload_overrun_exits_2_before_the_run(capsys, tmp_path):
    # The gripper with the 20 kg part would overrun robot 2 in pick_place_part.
    path = tmp_path / "s.ini"
    path.write_text("[part]\nmass = 20\n")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--report", "machine-readable")
    assert (code, out) == (2, "")
    assert err == "invalid scenario: robot.payload: 13.0 kg cannot carry the gripper with the part, 21.0 kg\n"


def test_sim_time_ceiling_fails_the_step(capsys, tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[robot]\ntool_change_time = 8000\n[procedure]\ntimestep = 0.1\nspiral_probe_period = 0.1\n")
    code, out, err = run_cli(capsys, "drill-test", "--scenario", str(path), "--report", "machine-readable")
    assert code == 1
    steps = json.loads(out)["steps"]
    assert [(s["step"], s["status"]) for s in steps] == [("drill_hole", "failed")]
    assert steps[0]["error"] == "SimTimeExceeded: simulated time passed the 7200 s ceiling"


@pytest.mark.parametrize("text, step", [
    ("[tools]\ngrip_time = 1e308\n", "pick_anchor"),
    ("[tools]\ndrill_spinup_time = 1e308\n", "drill_hole"),
    ("[tools]\nmagnet_switch_time = 1e308\n", "pick_place_part"),
    ("[sensors]\ndetect_time = 1e308\n", "detect_part_hole"),
    ("[robot]\ntool_change_time = 1e308\n", "pick_place_part"),
    ("[tools]\nnut_run_speed = 5e-324\n", "tighten_nut"),
    # A spiral that outgrows the hole, so the search never ends.
    ("[procedure]\nsearch_timeout = 1e308\nspiral_probe_spacing = 0.0008\nspiral_pitch = 0.035\n", "insert_anchor"),
], ids=lambda v: v.split("\n")[1] if "\n" in v else v)
def test_wait_past_the_ceiling_fails_the_step(capsys, tmp_path, text, step):
    # A wait or a spiral search too long to end before the ceiling fails
    # its step there, however long it is.
    path = tmp_path / "s.ini"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--report", "machine-readable")
    assert code == 1
    failed = [s for s in json.loads(out)["steps"] if s["status"] == "failed"]
    assert [(s["step"], s["error"]) for s in failed] == [
        (step, "SimTimeExceeded: simulated time passed the 7200 s ceiling")
    ]


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
    recorder = TraceRecorder()
    row = recorder.register_row("robot1", ("mx",))
    recorder.record(row, 1.0, (-5.0,))
    recorder.record(row, 2.0, (-6.25,))
    files = export_traces(recorder.traces, tmp_path)
    assert files == ["robot1_mx.csv"]
    raw = (tmp_path / "robot1_mx.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "t,mx"
    assert lines[1] == "1.0000,-5.0"
    assert lines[2] == "2.0000,-6.25"


@pytest.mark.parametrize("rows", [TRACE_CHUNK, TRACE_CHUNK + 1])
def test_export_matches_per_value_reference(tmp_path, rows):
    # One wrench row with an all-+0.0 chunk (fx), a lone -0.0 in an otherwise
    # zero chunk (fy), a mixed chunk (fz), zeros then one non-zero value
    # (mx), all -0.0 (my), and a subnormal among zeros (mz). Each file must
    # equal the plain per-value format, byte for byte.
    recorder = TraceRecorder()
    row = recorder.register_row("robot1", Wrench._fields)
    for k in range(rows):
        recorder.record(row, (k + 1) * 0.01, (
            0.0,
            -0.0 if k == 1234 else 0.0,
            k * 0.37 - 700.0,
            1e-300 if k == rows - 1 else 0.0,
            -0.0,
            5e-324 if k == 17 else 0.0,
        ))
    export_traces(recorder.traces, tmp_path)
    for channel in Wrench._fields:
        trace = recorder.traces[f"robot1/{channel}"]
        expected = f"t,{channel}" + "".join(f"\n{t:.4f},{v!r}" for t, v in zip(trace.times, trace.values)) + "\n"
        assert (tmp_path / f"robot1_{channel}.csv").read_text() == expected
    assert "\n12.3500,-0.0\n" in (tmp_path / "robot1_fy.csv").read_text()


def test_empty_trace_exports_header_only(tmp_path):
    recorder = TraceRecorder()
    recorder.register_row("robot1", ("fz",))
    export_traces(recorder.traces, tmp_path)
    assert (tmp_path / "robot1_fz.csv").read_text() == "t,fz\n"


def test_unwritable_dir_is_io_failure(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    recorder = TraceRecorder()
    recorder.register_row("robot1", ("fz",))
    with pytest.raises(IoFailure):
        export_traces(recorder.traces, blocker)


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


def test_negative_seed_exits_2(capsys):
    # numpy's seed sequence rejects a negative seed; the parser does first.
    with pytest.raises(SystemExit) as exc:
        main(["frame-test", "--seed=-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


def test_no_subcommand_shows_help(capsys):
    code = main([])
    assert code == 2


def test_frame_test_runs(capsys):
    code, out, err = run_cli(capsys, "frame-test", "--seed", "1")
    assert code == 0
