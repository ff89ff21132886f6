from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorsim.engine import MAX_SIM_TIME, RandomStreams, SimClock, TraceRecorder, World, run
from anchorsim.errors import NonMonotonicTime, WrongPose
from anchorsim.geometry import Point3
from anchorsim.scenario import Scenario
from anchorsim.sensors import ZERO_WRENCH, Wrench
from anchorsim.worksite import DrilledHole, wall_frame_from_angles


def test_clock_ticks_exactly():
    clock = SimClock(dt=0.01)
    for _ in range(1000):
        clock.tick()
    assert clock.t == pytest.approx(10.0, abs=1e-12)
    assert clock.ticks == 1000


def test_trace_monotonic_append():
    recorder = TraceRecorder()
    row = recorder.register_row("x", ("mx", "fz"))
    mx, fz = recorder.traces["x/mx"], recorder.traces["x/fz"]
    recorder.record(row, 1.0, (-5.0, 3.0))
    recorder.record(row, 2.0, (-6.0, 4.0))
    assert mx.times.tolist() == fz.times.tolist() == [1.0, 2.0]
    assert mx.values.tolist() == [-5.0, -6.0]
    assert fz.values.tolist() == [3.0, 4.0]
    with pytest.raises(NonMonotonicTime):
        recorder.record(row, 1.0, (-7.0, 5.0))
    with pytest.raises(NonMonotonicTime):
        recorder.record(row, 2.0, (-7.0, 5.0))
    assert len(mx) == len(fz) == 2


def test_wrench_row_shares_one_times_column():
    world = World(Scenario(), 0)
    recorder = world.recorder
    row = world.runtime("robot1").wrench_row
    recorder.record(row, 0.01, Wrench(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    recorder.record(row, 0.02, Wrench(-1.0, -2.0, -3.0, -4.0, -5.0, -6.0))
    traces = [recorder.traces[f"robot1/{channel}"] for channel in Wrench._fields]
    assert all(trace.times is row.times for trace in traces)
    assert row.times.tolist() == [0.01, 0.02]
    for k, trace in enumerate(traces):
        assert trace.values.tolist() == [k + 1.0, -(k + 1.0)]
    assert len(recorder.traces["robot1/laser_depth"]) == 0
    with pytest.raises(NonMonotonicTime):
        recorder.record(row, 0.02, ZERO_WRENCH)
    assert [len(trace) for trace in traces] == [2] * 6


def test_sensor_streams_drawn_lazily_and_not_at_zero_sigma():
    from anchorsim.procedure import drive_mission

    def states(world):
        names = ("ft.robot1", "ft.robot2", "laser.robot1", "laser.robot2")
        return [world.streams.get(name).bit_generator.state for name in names]

    fresh = states(World(Scenario(), 3))
    quiet = Scenario()
    quiet.sensors.ft_sigma_force = quiet.sensors.ft_sigma_moment = quiet.sensors.laser_sigma = 0.0
    world = World(quiet, 3)
    drive_mission(world, "frame")
    assert world.clock.ticks > 0
    assert states(world) == fresh
    world = World(Scenario(), 3)
    drive_mission(world, "frame")
    assert states(world)[0] != fresh[0] and states(world)[2] != fresh[2]


def test_trace_rejects_unknown_channel():
    with pytest.raises(ValueError):
        TraceRecorder().register_row("x", ("vibes",))


def test_streams_deterministic_and_independent():
    a = RandomStreams(42)
    b = RandomStreams(42)
    assert a.get("ft.robot1").standard_normal(5).tolist() == b.get("ft.robot1").standard_normal(5).tolist()
    # Draws on one stream do not disturb another.
    c = RandomStreams(42)
    c.get("laser.robot1").standard_normal(1000)
    assert (
        c.get("ft.robot1").standard_normal(5).tolist()
        == RandomStreams(42).get("ft.robot1").standard_normal(5).tolist()
    )
    assert a.get("ft.robot1").standard_normal(3).tolist() != a.get("ft.robot2").standard_normal(3).tolist()


def test_world_true_position_includes_slip():
    world = World(Scenario(), seed=0)
    arm = world.arm("robot1")
    start = world.true_position("robot1")
    world.runtime("robot1").platform.slip_offset = 0.005
    moved = world.true_position("robot1")
    assert (moved - start).dot(world.site.wall.normal) == pytest.approx(0.005)
    assert arm.position == world.arm("robot1").position  # commanded unchanged


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    wall=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    axis_tilt=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    hole=st.tuples(st.floats(-0.09, 0.09), st.floats(-0.14, 0.14)),
    tip=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    slip=st.floats(0.0, 0.02),
)
def test_radial_offset_matches_the_point3_expression(wall, axis_tilt, hole, tip, slip):
    # The engine's float copy gives the Point3 expression's value bit for bit,
    # also for a hole drilled along an estimated normal off the true one.
    scenario = Scenario()
    scenario.wall.yaw_deg, scenario.wall.pitch_deg = wall
    world = World(scenario, seed=0)
    frame = world.site.wall.frame
    axis = -wall_frame_from_angles(frame.origin, wall[0] + axis_tilt[0], wall[1] + axis_tilt[1]).z_axis
    drilled = DrilledHole(frame.to_world(Point3(hole[0], hole[1], 0.0)), axis, 0.05)
    world.arm("robot1").position = frame.origin + Point3(*tip)
    world.runtime("robot1").platform.slip_offset = slip
    tip_on_wall = world.site.wall.project(world.true_position("robot1"))
    expected = (tip_on_wall - drilled.position).cross(drilled.axis).norm()
    assert world.radial_offset("robot1", drilled) == expected


def test_identical_runs_identical_traces():
    r1, t1 = run(Scenario(), seed=11, mission="drill")
    r2, t2 = run(Scenario(), seed=11, mission="drill")
    assert r1.to_dict() == r2.to_dict()
    assert sorted(t1) == sorted(t2)
    for key in t1:
        assert t1[key].times == t2[key].times
        assert t1[key].values == t2[key].values


def test_different_seeds_differ():
    r1, t1 = run(Scenario(), seed=1, mission="drill")
    r2, t2 = run(Scenario(), seed=2, mission="drill")
    mx1 = t1["robot1/mx"].values
    mx2 = t2["robot1/mx"].values
    # True-moment traces match in shape but stop ticks and depth channels
    # differ through the noisy stop conditions.
    assert r1.to_dict() != r2.to_dict()
    assert len(mx1) != len(mx2) or mx1 != mx2


def test_unknown_mission_rejected():
    with pytest.raises(ValueError):
        run(Scenario(), seed=0, mission="juggle")


def test_guard_halts_motion_within_one_tick():
    # Uncompensated drilling trips the moment guard; the commanded feed must
    # freeze on the very tick the guard fires.
    sc = Scenario()
    sc.tools.variant = "offset_uncompensated"
    world = World(sc, seed=3)
    from anchorsim.procedure import drive_mission

    report, traces = drive_mission(world, "drill")
    assert not report.success
    runtime = world.runtime("robot1")
    assert runtime.guard_fired_t is not None
    cmd = traces["robot1/commanded_depth"]
    fired = runtime.guard_fired_t
    after = [v for t, v in zip(cmd.times, cmd.values) if t >= fired]
    # No commanded advance once the guard has fired.
    assert len(after) <= 1 or max(after) - min(after) < 1e-12


def test_depth_channels_recorded_during_drill():
    _, traces = run(Scenario(), seed=5, mission="drill")
    laser = traces["robot1/laser_depth"]
    cmd = traces["robot1/commanded_depth"]
    slip = traces["robot1/slip"]
    assert len(laser) == len(cmd) == len(slip) > 1000
    assert laser.values[-1] >= 0.0795
    # Commanded advance exceeds true depth by the accumulated slip.
    assert cmd.values[-1] > laser.values[-1]


def test_commanded_depth_equals_true_plus_slip():
    _, traces = run(Scenario(), seed=5, mission="drill")
    cmd = traces["robot1/commanded_depth"].values
    slip = traces["robot1/slip"].values
    laser = traces["robot1/laser_depth"].values
    # laser reads true depth with 0.1 mm noise; commanded - slip is exact.
    for i in range(0, len(cmd), 500):
        assert cmd[i] - slip[i] == pytest.approx(laser[i], abs=0.001)


def test_run_stops_after_the_tick_a_motion_ends():
    world = World(Scenario(), seed=0)
    arm = world.arm("robot1")
    # 11.5 mm at 1 mm per tick: the move ends on its twelfth tick.
    arm.start_move(arm.position + Point3(0.0115, 0.0, 0.0), 0.1)
    world.run(5)
    assert world.clock.ticks == 5 and not world.event
    world.run(math.inf)
    assert world.clock.ticks == 12 and world.event and arm.motion is None
    world.run(3)
    assert world.clock.ticks == 15 and not world.event


def test_run_stops_after_the_tick_the_guard_halts():
    world = World(Scenario(), seed=0)
    arm = world.arm("robot1")
    world.runtime("robot1").contact_model = lambda: Wrench(mx=100.0 if world.t > 0.2 else 0.0)
    # Robot 2's watcher runs on every tick but the one robot 1 halts on.
    watched = []
    world.runtime("robot2").watcher = lambda: watched.append(world.clock.ticks)
    world.run(math.inf)
    assert world.event and arm.halted and arm.halt_axis == "mx"
    assert world.runtime("robot1").guard_fired_t == world.t
    assert world.clock.ticks > 21
    assert watched == list(range(1, world.clock.ticks))


def test_run_stops_after_the_tick_a_watcher_fires():
    world = World(Scenario(), seed=0)
    runtime = world.runtime("robot2")
    runtime.watcher = lambda: world.clock.ticks == 4
    world.run(math.inf)
    assert world.clock.ticks == 4 and world.event and runtime.watched is True


def test_a_watcher_error_is_kept_and_no_later_watcher_runs():
    world = World(Scenario(), seed=0)
    error = WrongPose("stop")

    def raising():
        if world.clock.ticks == 3:
            raise error

    world.runtime("robot1").watcher = raising
    watched = []
    world.runtime("robot2").watcher = lambda: watched.append(world.clock.ticks)
    world.run(math.inf)
    assert world.clock.ticks == 3 and world.event and world.runtime("robot1").watched is error
    assert watched == [1, 2]


def test_run_stops_after_the_tick_time_passes_the_ceiling():
    world = World(Scenario(), seed=0)
    world.clock.ticks = round(MAX_SIM_TIME / world.dt) - 2
    watched = []
    world.runtime("robot1").watcher = lambda: watched.append(world.t)
    world.run(math.inf)
    assert world.clock.ticks == round(MAX_SIM_TIME / world.dt) + 1
    assert world.event and world.t > MAX_SIM_TIME
    # No watcher runs on the tick past the ceiling.
    assert len(watched) == 2 and max(watched) <= MAX_SIM_TIME


def test_nan_slip_raises_in_distance_reads():
    world = World(Scenario(), seed=0)
    world.runtime("robot1").platform.slip_offset = float("nan")
    with pytest.raises(ValueError):
        world.surface_distance("robot1")
    with pytest.raises(ValueError):
        world.laser_distance("robot1")
