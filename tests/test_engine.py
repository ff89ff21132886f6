from __future__ import annotations

import numpy as np
import pytest

from anchorsim.engine import RandomStreams, SimClock, Trace, TraceRecorder, World, run
from anchorsim.errors import NonMonotonicTime
from anchorsim.geometry import Point3
from anchorsim.scenario import Scenario


def test_clock_ticks_exactly():
    clock = SimClock(dt=0.01)
    for _ in range(1000):
        clock.tick()
    assert clock.t == pytest.approx(10.0, abs=1e-12)
    assert clock.ticks == 1000


def test_trace_monotonic_append():
    trace = Trace("x/mx", "mx")
    trace.record(1.0, -5.0)
    trace.record(2.0, -6.0)
    assert trace.times == [1.0, 2.0]
    assert trace.values == [-5.0, -6.0]
    with pytest.raises(NonMonotonicTime):
        trace.record(1.0, -7.0)


def test_trace_rejects_unknown_channel():
    with pytest.raises(ValueError):
        Trace("x/vibes", "vibes")


def test_recorder_register_idempotent():
    rec = TraceRecorder()
    a = rec.register("r1/mx", "mx")
    b = rec.register("r1/mx", "mx")
    assert a is b


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
    world.platforms["robot1"].slip_offset = 0.005
    moved = world.true_position("robot1")
    assert (moved - start).dot(world.site.wall.normal) == pytest.approx(0.005)
    assert arm.position == world.arm("robot1").position  # commanded unchanged


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
