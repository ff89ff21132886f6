from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorsim.errors import OutOfReach, WrongPose
from anchorsim.geometry import Point3
from anchorsim.robot import ArmState, Motion, PlatformState, ToolId, attach_tool, detach_tool
from anchorsim.scenario import RobotSection


def make_arm(**robot):
    return ArmState(name="robot1", base=Point3(0, -0.3, 0.75), position=Point3(0.3, -0.3, 1.0),
                    cfg=RobotSection(**robot))


def test_move_duration_is_distance_over_speed():
    arm = make_arm()
    arm.position = Point3(0.0, 0.0, 1.0)
    arm.base = Point3(0.0, 0.0, 0.8)
    arm.start_move(Point3(0.08, 0.0, 1.0), speed=0.00225)
    duration = 0.0
    while arm.motion is not None:
        arm.advance(0.01)
        duration += 0.01
    assert duration == pytest.approx(0.08 / 0.00225, abs=0.011)
    assert duration == pytest.approx(35.6, abs=0.1)
    assert arm.position.distance_to(Point3(0.08, 0.0, 1.0)) < 1e-12


def test_move_rejects_out_of_reach():
    arm = make_arm()
    with pytest.raises(OutOfReach):
        arm.start_move(arm.base + Point3(1.5, 0, 0), speed=0.05)


def test_attach_detach_roundtrip():
    arm = make_arm()
    stand = Point3(0.15, -0.7, 0.8)
    arm.position = stand
    attach_tool(arm, ToolId.DRILL, stand)
    assert arm.attached_tool is ToolId.DRILL
    detach_tool(arm, stand)
    assert arm.attached_tool is None


def test_attach_requires_stand_pose():
    arm = make_arm()
    with pytest.raises(WrongPose):
        attach_tool(arm, ToolId.DRILL, Point3(0.15, -0.7, 0.8))


def test_slip_examples():
    p = PlatformState(RobotSection(slip_coefficient=2e-7))
    p.step(300.0, 35.0)
    assert p.slip_offset == pytest.approx(0.0021, abs=1e-12)

    q = PlatformState(RobotSection(slip_coefficient=2e-7))
    q.step(0.0, 35.0)
    assert q.slip_offset == 0.0


def test_tension_does_not_slip():
    p = PlatformState(RobotSection(slip_coefficient=2e-7))
    p.step(-500.0, 100.0)
    assert p.slip_offset == 0.0


def test_slip_accumulates_monotonically():
    p = PlatformState(RobotSection(slip_coefficient=2e-7))
    last = 0.0
    for force in (100.0, 0.0, 50.0, -20.0, 400.0):
        p.step(force, 1.0)
        assert p.slip_offset >= last
        last = p.slip_offset


def test_open_feed_trims_at_reach():
    arm = make_arm()
    arm.start_feed(Point3(1, 0, 0), speed=1.0)
    for _ in range(5000):
        arm.advance(0.01)
        if arm.motion is None:
            break
    assert arm.base.distance_to(arm.position) <= arm.cfg.reach + 1e-9


def test_halt_freezes_motion_and_records_travel():
    arm = make_arm()
    arm.start_feed(Point3(1, 0, 0), speed=0.1)
    for _ in range(10):
        arm.advance(0.01)
    arm.halt("mx")
    assert arm.halted and arm.halt_axis == "mx"
    assert arm.halt_travelled == pytest.approx(0.01, abs=1e-12)
    p = arm.position
    arm.advance(0.01)
    assert arm.position == p


def test_position_round_trips_through_the_floats():
    arm = make_arm()
    assert arm.position == Point3(0.3, -0.3, 1.0)
    p = Point3(0.1 + 0.2, -1e-300, 5e-324)
    arm.position = p
    assert (arm.x, arm.y, arm.z) == p.as_tuple()
    assert arm.position == p
    arm.x = 0.7
    assert arm.position == Point3(0.7, -1e-300, 5e-324)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_advance_with_a_non_finite_direction_raises(bad):
    arm = make_arm()
    start = arm.position
    arm.motion = Motion(None, (0.0, bad, 0.0), 0.1)
    with pytest.raises(ValueError, match="non-finite components"):
        arm.advance(0.01)
    assert arm.position == start


@example(offset=(0.2, -0.1, 0.05), speed=0.1, target=True, reach=1.298, ticks=300)  # arrives on tick 229
@example(offset=(1.0, 0.0, 0.0), speed=1.0, target=False, reach=1.298, ticks=300)  # the reach trims the feed
@example(offset=(0.0, 0.0, 0.0115), speed=0.1, target=True, reach=1.298, ticks=12)  # arrives on the last tick
@example(offset=(0.0, 0.2, 0.0), speed=0.1, target=True, reach=0.42, ticks=300)  # trimmed short of the target
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    offset=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    speed=st.floats(0.001, 2.0),
    target=st.booleans(),
    reach=st.sampled_from([1.298, 0.42, 0.36]),
    ticks=st.integers(1, 400),
)
def test_free_path_matches_advance_tick_by_tick(offset, speed, target, reach, ticks):
    # ``free_path`` takes the ticks of a motion in bulk, through the one that
    # ends it by an arrival or a reach trim; ``advance`` takes one tick.
    bulk, ticked = make_arm(reach=reach), make_arm(reach=reach)
    goal = bulk.position + Point3(*offset)
    if goal.distance_to(bulk.position) < 1e-9:
        return
    for arm in (bulk, ticked):
        if target:
            arm.motion = Motion(goal.as_tuple(), (goal - arm.position).normalized().as_tuple(), speed)
        else:
            arm.start_feed(goal - arm.position, speed)
    path, ended = bulk.free_path(ticks, 0.01)
    for j in range(1, path.shape[1]):
        assert ticked.motion is not None
        ticked.advance(0.01)
        assert [ticked.x, ticked.y, ticked.z] == path[:3, j].tolist()
        if ticked.motion is not None:
            assert ticked.motion.travelled == path[3, j]
    assert (ticked.motion is None) == ended
    assert ended or path.shape[1] == ticks + 1
