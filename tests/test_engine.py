from __future__ import annotations

import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorsim.engine import MAX_SIM_TIME, TRACE_CHUNK, Form, RandomStreams, SimClock, TraceRecorder, World, run
from anchorsim.errors import NonMonotonicTime, WrongPose
from anchorsim.geometry import Point3
from anchorsim.procedure import (
    Drilling,
    Entering,
    Fitting,
    FixationStep,
    Hammering,
    Holding,
    MissionContext,
    Pressing,
    Probing,
    Pulsing,
    RunDown,
    Timed,
    Wedging,
)
from anchorsim.robot import Motion
from anchorsim.scenario import Scenario
from anchorsim.sensors import NOISE_BLOCK, ZERO_WRENCH, Wrench
from anchorsim.worksite import AnchorBolt, AnchorState, DrilledHole, wall_frame_from_angles


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
    assert all(trace.row is row for trace in traces)
    assert row.column(None).tolist() == [0.01, 0.02]
    for k, trace in enumerate(traces):
        assert trace.values.tolist() == [k + 1.0, -(k + 1.0)]
    assert len(recorder.traces["robot1/laser_depth"]) == 0
    with pytest.raises(NonMonotonicTime):
        recorder.record(row, 0.02, ZERO_WRENCH)
    assert [len(trace) for trace in traces] == [2] * 6


#: Values that keep a sealed column of otherwise +0.0 values, each by its bits.
SPECIALS = [1.5, -0.0, 5e-324, math.nan]

#: One run of samples, as ``(kind, count, special, at, channel)``: ``record``
#: rows of +0.0 but for ``special`` (None: none) at row ``at % count`` in
#: ``channel``, ``mixed`` rows of non-zero values, or a ``zeros`` stretch
#: through ``record_rows``.
RUN = st.one_of(
    st.tuples(st.just("record"), st.integers(1, 5000), st.none() | st.sampled_from(SPECIALS),
              st.integers(0, 10**6), st.integers(0, 5)),
    st.tuples(st.sampled_from(["mixed", "zeros"]), st.integers(1, 3 * TRACE_CHUNK + 5),
              st.none(), st.just(0), st.just(0)),
)


@example(runs=[("record", TRACE_CHUNK - 1, None, 0, 0)])  # one before a chunk boundary
@example(runs=[("record", TRACE_CHUNK, None, 0, 0)])  # on it
@example(runs=[("record", TRACE_CHUNK + 1, 1.5, TRACE_CHUNK, 3)])  # one after it
@example(runs=[("zeros", 3 * TRACE_CHUNK, None, 0, 0)])  # whole zero chunks only
@example(runs=[("mixed", 5, None, 0, 0), ("zeros", 3 * TRACE_CHUNK, None, 0, 0), ("record", 1, None, 0, 0)])
@example(runs=[("zeros", TRACE_CHUNK - 2, None, 0, 0), ("record", 3, -0.0, 1, 4)])
@example(runs=[("record", 2 * TRACE_CHUNK, 5e-324, 2 * TRACE_CHUNK - 1, 1)])
@example(runs=[("zeros", 7, None, 0, 0), ("record", TRACE_CHUNK, math.nan, 100, 5)])
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(runs=st.lists(RUN, min_size=1, max_size=5))
def test_trace_chunks_match_a_flat_reference(runs):
    dt = 0.01
    recorder = TraceRecorder()
    row = recorder.register_row("robot1", Wrench._fields)
    times, columns = [], [[] for _ in Wrench._fields]
    k = 0
    for kind, count, special, at, channel in runs:
        if kind == "zeros":
            recorder.record_rows(row, range(k + 1, k + count + 1), dt)
        for j in range(count):
            k += 1
            sample = [0.0] * 6
            if kind == "mixed":
                sample = [k * 0.37 - c - 0.5 for c in range(6)]
            elif special is not None and j == at % count:
                sample[channel] = special
            if kind != "zeros":
                recorder.record(row, k * dt, sample)
            times.append(k * dt)
            for column, value in zip(columns, sample):
                column.append(value)
    assert len(row) == len(times) and all(len(chunk) == TRACE_CHUNK for chunk, _ in row.sealed)
    starts = {0, TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1, len(times) // 2, len(times)}
    for index, channel in enumerate(Wrench._fields):
        trace = recorder.traces[f"robot1/{channel}"]
        assert trace.times.tobytes() == array("d", times).tobytes()
        assert trace.values.tobytes() == array("d", columns[index]).tobytes()
        for start in sorted(s for s in starts if s <= len(times)):
            assert row.column(index, start).tobytes() == array("d", columns[index][start:]).tobytes()
        for n, (_, sealed) in enumerate(row.sealed):
            chunk = array("d", columns[index][n * TRACE_CHUNK : (n + 1) * TRACE_CHUNK]).tobytes()
            assert (sealed[index] is None) == (chunk.count(0) == len(chunk))
    with pytest.raises(NonMonotonicTime):
        recorder.record(row, k * dt, ZERO_WRENCH)
    with pytest.raises(NonMonotonicTime):
        recorder.record_rows(row, range(k, k + 2), dt)


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
    tips=st.lists(
        st.tuples(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), st.floats(0.0, 0.02)),
        min_size=1, max_size=4,
    ),
)
def test_radial_offset_matches_the_point3_expression(wall, axis_tilt, hole, tips):
    # The engine's float copy and its array form give the Point3
    # expression's value bit for bit, at each tip point and slip, also for a
    # hole drilled along an estimated normal off the true one.
    scenario = Scenario()
    scenario.wall.yaw_deg, scenario.wall.pitch_deg = wall
    world = World(scenario, seed=0)
    frame = world.site.wall.frame
    axis = -wall_frame_from_angles(frame.origin, wall[0] + axis_tilt[0], wall[1] + axis_tilt[1]).z_axis
    drilled = DrilledHole(frame.to_world(Point3(hole[0], hole[1], 0.0)), axis, 0.05)
    arm = world.arm("robot1")
    points, expected = [], []
    for tip, slip in tips:
        arm.position = frame.origin + Point3(*tip)
        world.runtime("robot1").platform.slip_offset = slip
        tip_on_wall = world.site.wall.project(world.true_position("robot1"))
        expected.append((tip_on_wall - drilled.position).cross(drilled.axis).norm())
        assert world.radial_offset("robot1", drilled) == expected[-1]
        points.append(arm.position.as_tuple())
    slips = np.array([slip for _, slip in tips])
    assert world.radial_offsets(drilled, np.array(points).T, slips).tolist() == expected


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


class Scripted(Form):
    """A contact form whose true wrench on the tick that makes the clock's
    tick count ``ticks`` is ``wrench(ticks)``, and whose ``watch`` may end
    the wait on any tick, so that each of its stretches is one tick long."""

    def __init__(self, world, wrench=lambda ticks: ZERO_WRENCH, watch=None):
        self.world, self.wrench, self.watch = world, wrench, watch

    def ahead(self, m):
        ticks = self.world.clock.ticks
        return m, np.array([self.wrench(ticks + j) for j in range(1, m + 1)], dtype=float).reshape(m, 6)

    def stops(self, slips, readings):
        return 0


def test_run_stops_after_the_tick_the_guard_halts():
    world = World(Scenario(), seed=0)
    arm = world.arm("robot1")
    pressed = Scripted(world, lambda ticks: Wrench(mx=100.0 if ticks * world.dt > 0.2 else 0.0))
    world.runtime("robot1").contact = pressed
    # Robot 2's watch runs on every tick but the one robot 1 halts on.
    watched = []
    world.runtime("robot2").contact = Scripted(world, watch=lambda: watched.append(world.clock.ticks))
    world.run(math.inf)
    assert world.event and arm.halted and arm.halt_axis == "mx"
    assert world.runtime("robot1").guard_fired_t == world.t
    assert world.clock.ticks > 21
    assert watched == list(range(1, world.clock.ticks))


def test_run_stops_after_the_tick_a_watcher_fires():
    world = World(Scenario(), seed=0)
    runtime = world.runtime("robot2")
    runtime.contact = Scripted(world, watch=lambda: world.clock.ticks == 4)
    world.run(math.inf)
    assert world.clock.ticks == 4 and world.event and runtime.watched is True


def test_a_watcher_error_is_kept_and_no_later_watcher_runs():
    world = World(Scenario(), seed=0)
    error = WrongPose("stop")

    def raising():
        if world.clock.ticks == 3:
            raise error

    world.runtime("robot1").contact = Scripted(world, watch=raising)
    watched = []
    world.runtime("robot2").contact = Scripted(world, watch=lambda: watched.append(world.clock.ticks))
    world.run(math.inf)
    assert world.clock.ticks == 3 and world.event and world.runtime("robot1").watched is error
    assert watched == [1, 2]


def test_run_stops_after_the_tick_time_passes_the_ceiling():
    world = World(Scenario(), seed=0)
    world.clock.ticks = round(MAX_SIM_TIME / world.dt) - 2
    watched = []
    world.runtime("robot1").contact = Scripted(world, watch=lambda: watched.append(world.t))
    world.run(math.inf)
    assert world.clock.ticks == round(MAX_SIM_TIME / world.dt) + 1
    assert world.event and world.t > MAX_SIM_TIME
    # No watch runs on the tick past the ceiling.
    assert len(watched) == 2 and max(watched) <= MAX_SIM_TIME


def test_nan_slip_raises_in_distance_reads():
    world = World(Scenario(), seed=0)
    world.runtime("robot1").platform.slip_offset = float("nan")
    with pytest.raises(ValueError):
        world.surface_distance("robot1")
    with pytest.raises(ValueError):
        world.laser_distance("robot1")


# --- free stretches ------------------------------------------------------------------

#: An arm's setup for a free stretch: None (idle), or a move by ``offset``
#: metres at ``speed`` m/s; ``overreach`` aims it past the reach sphere
#: instead, as only an open-ended feed could go.
MOVE = st.none() | st.fixed_dictionaries({
    "offset": st.tuples(*[st.floats(-0.25, 0.25)] * 3),
    "speed": st.floats(0.02, 0.3),
    "overreach": st.booleans(),
})


def free_world(seed, moves, sigmas, force_limit, filled, skipped, start_tick):
    scenario = Scenario()
    scenario.sensors.ft_sigma_force, scenario.sensors.ft_sigma_moment = sigmas
    scenario.sensors.force_limit = force_limit
    world = World(scenario, seed)
    world.clock.ticks = start_tick
    for runtime, move, fill, skip in zip(world.arms.values(), moves, filled, skipped):
        for _ in range(skip):
            next(runtime.ft_noise)
        # Readings of an earlier contact, inside the limits; ``reset``
        # empties the filter, as the drill does before it feeds.
        for k in range(fill):
            runtime.guard_filter.push(Wrench(fz=0.5 * force_limit * (-1) ** k, mx=0.1 * k))
        if fill == 0:
            runtime.guard_filter.reset()
        start_move(runtime.state, move)
    return world


def start_move(arm, move):
    """Start the ``MOVE`` ``move`` from the arm's point; None leaves it idle."""
    if move is None:
        return
    if move["overreach"]:
        out = (arm.position - arm.base).normalized()
        arm.start_move(arm.position, move["speed"])
        arm.motion = Motion((arm.base + out.scaled(1.5)).as_tuple(), out.as_tuple(), move["speed"])
    else:
        arm.start_move(arm.position + Point3(*move["offset"]), move["speed"])


def world_state(world) -> list[str]:
    """Everything a tick may change, each item ``repr``'d so a -0.0 shows and
    a failure names the first item that differs. Reading the noise cursors
    hands out one row, alike in the two worlds compared."""
    state = [world.clock.ticks, world.clock.t, world.event]
    for runtime in world.arms.values():
        arm, guard = runtime.state, runtime.guard_filter
        state += [
            arm.x, arm.y, arm.z, arm.motion and arm.motion.travelled,
            arm.halted, arm.halt_axis, arm.halt_travelled, runtime.guard_fired_t,
            runtime.reading, runtime.true_wrench, runtime.press_force, runtime.active,
            list(guard._buf), guard._sums, next(runtime.ft_noise),
            *(runtime.wrench_row.column(index).tobytes() for index in (None, *range(6))),
        ]
    return list(map(repr, state))


FREE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    moves=st.tuples(MOVE, MOVE),
    same_move=st.booleans(),
    sigmas=st.sampled_from([(2.0, 0.2), (0.0, 0.0), (500.0, 0.2), (0.0, 0.2)]),
    force_limit=st.sampled_from([1000.0, 150.0, 1.0]),
    filled=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    skipped=st.tuples(st.integers(0, 2100), st.integers(0, 2100)),
    before_max=st.none() | st.integers(0, 1500),
    horizons=st.lists(st.integers(1, 2500), min_size=1, max_size=3),
)


def _example(**changes):
    case = dict(seed=7, moves=({"offset": (0.2, -0.1, 0.05), "speed": 0.1, "overreach": False}, None),
                same_move=False, sigmas=(2.0, 0.2), force_limit=1000.0, filled=(0, 0), skipped=(0, 0),
                before_max=None, horizons=[2500])
    case.update(changes)
    return example(**case)


@_example()  # one arm idle
@_example(moves=({"offset": (0.2, -0.1, 0.05), "speed": 0.1, "overreach": False},) * 2)  # same arrival
@_example(moves=({"offset": (0.2, -0.1, 0.05), "speed": 0.1, "overreach": False},
                 {"offset": (-0.1, 0.2, 0.0), "speed": 0.05, "overreach": False}))  # different arrivals
@_example(horizons=[40, 7, 300])  # horizons that cut the move
@_example(sigmas=(0.0, 0.0), filled=(30, 0))
@_example(skipped=(1000, 1020))  # crossing a NOISE_BLOCK boundary
@_example(before_max=100)
@_example(sigmas=(500.0, 0.2), seed=3)  # a noise trip while the filter fills
@_example(force_limit=1.0, filled=(40, 40))  # and with the window full
@_example(moves=({"offset": (0.0, 0.0, 0.0), "speed": 0.3, "overreach": True}, None))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(**FREE_CASES)
def test_free_stretch_in_bulk_matches_tick_by_tick(
    seed, moves, same_move, sigmas, force_limit, filled, skipped, before_max, horizons
):
    # ``run`` computes a free stretch in bulk; ``run(1)`` takes each tick as
    # a stretch of its own. Both must leave every byte the same.
    if same_move:
        moves = (moves[0], moves[0])
    start = 0 if before_max is None else round(MAX_SIM_TIME / 0.01) - before_max
    bulk, ticked = (free_world(seed, moves, sigmas, force_limit, filled, skipped, start) for _ in range(2))
    for horizon in horizons:
        bulk.run(horizon)
        for _ in range(horizon):
            ticked.run(1)
            if ticked.event:
                break
        assert world_state(bulk) == world_state(ticked)


def counted_stretches(monkeypatch) -> list[int]:
    """The length of each stretch ``World._stretch`` applies from now on."""
    lengths, stretch = [], World._stretch

    def counted(world, *args):
        start = world.clock.ticks
        stretch(world, *args)
        lengths.append(world._stretch_end - start)

    monkeypatch.setattr(World, "_stretch", counted)
    return lengths


def test_a_noisy_free_move_runs_in_one_stretch_per_noise_block(monkeypatch):
    # Both FT cursors start 1,000 rows into a block. The stretches read the
    # noise on across the ends of blocks, so only their ``NOISE_BLOCK`` ticks
    # cut the move before its arrival, which ends the last stretch.
    moves = ({"offset": (0.2, -0.1, 0.05), "speed": 0.01, "overreach": False},
             {"offset": (-0.1, 0.2, 0.0), "speed": 0.009, "overreach": False})
    world = free_world(7, moves, (2.0, 0.2), 1000.0, (0, 0), (1000, 1000), 0)
    lengths = counted_stretches(monkeypatch)
    world.run(math.inf)
    arrival = world.clock.ticks
    assert world.arm("robot1").motion is None and world.arm("robot2").motion is not None
    assert arrival > 2 * NOISE_BLOCK
    assert len(lengths) == math.ceil(arrival / NOISE_BLOCK) and sum(lengths) == arrival


def test_a_stretch_ends_at_the_horizon_or_through_an_event_however_short(monkeypatch):
    lengths = counted_stretches(monkeypatch)
    far = {"offset": (0.2, -0.1, 0.05), "speed": 0.1, "overreach": False}
    world = free_world(7, (far, None), (2.0, 0.2), 1000.0, (0, 0), (0, 0), 0)
    world.run(7)
    assert lengths == [7] and world.clock.ticks == 7
    lengths.clear()
    near = {"offset": (0.0195, 0.0, 0.0), "speed": 0.1, "overreach": False}  # arrives on tick 20
    world = free_world(7, (near, None), (2.0, 0.2), 1000.0, (0, 0), (0, 0), 0)
    world.run(math.inf)
    assert lengths == [20] and world.clock.ticks == 20 and world.arm("robot1").motion is None


# --- hammer stretches ----------------------------------------------------------------


#: Where the other arm holds its form: this far along the wall's x axis
#: from its origin, where the first arm works.
OTHER_SPOT = 0.05

#: The other arm's setup beside a held form: a ``MOVE``, or a form of its
#: own at ``OTHER_SPOT``, ``(kind, gap, max_travel)``: ``"press"`` and
#: ``"drill"`` feed into the wall from ``gap`` metres before its surface
#: (``max_travel`` is the feed's limit), ``"hammer"`` hammers an anchor
#: ``gap`` metres short of the bottom of an 80 mm hole, and the nut
#: runner's ``"fit"``, ``"run"`` and ``"pulse"`` and the drill's
#: ``"spinup"`` hold their phase (see ``start_phase``) with the point
#: ``gap`` metres inside the wall.
OTHER = MOVE | st.tuples(
    st.sampled_from(["press", "drill", "hammer", "fit", "run", "pulse", "spinup"]),
    st.sampled_from([0.0012, 0.002, 0.005]), st.sampled_from([0.2, 0.003]),
)


def wall_point(ctx, lateral, gap):
    """The point ``gap`` metres out from the wall, ``lateral`` metres along
    its x axis from its origin."""
    frame = ctx.world.site.wall.frame
    return frame.origin + frame.x_axis.scaled(lateral) + ctx.out_normal.scaled(gap)


def start_hammer(ctx, arm, hole_depth, gap, lateral):
    """Make ``arm`` hammer an anchor ``gap`` metres short of the bottom of a
    ``hole_depth`` hole at ``wall_point(ctx, lateral, 0)``, the tip at the
    anchor, and install the hammer as the arm's contact form."""
    site, runtime = ctx.world.site, ctx.world.runtime(arm)
    hole = site.register_drilled_hole(wall_point(ctx, lateral, 0.0), -site.wall.normal, hole_depth)
    anchor = AnchorBolt()
    anchor.set_state(AnchorState.GRASPED)
    site.place_anchor_in_hole(anchor, hole, hole_depth - gap)
    runtime.state.position = hole.position - site.wall.normal.scaled(anchor.depth)
    hammer = Hammering(ctx, arm, anchor, stuck_measured=anchor.depth)
    runtime.contact = hammer
    return hammer


def start_feed(ctx, arm, law, max_travel):
    """Start ``arm``'s guarded feed from its point under the contact ``law``
    (``"press"`` and ``"spring"`` stop on fz, ``"drill"`` drills to the
    depth target from that point) with ``MissionContext.feed``, which
    installs it as the arm's contact form."""
    world = ctx.world
    runtime = world.runtime(arm)
    state = runtime.state
    if law == "drill":
        laser_zero = 0.0 if math.isnan(runtime.platform.slip_offset) else world.laser_distance(arm)
        feed = Drilling(ctx, arm, (state.x, state.y, state.z), laser_zero)
        speed = world.scenario.tools.feed_speed
    else:
        feed = Pressing(ctx, arm, contact_law(law), 50.0 if law == "spring" else 20.0, max_travel)
        speed = world.scenario.robot.approach_speed
    feed.max_travel = max_travel
    # Start the feed and install it; no tick yet. The suspended generator
    # must outlive the call, or closing it clears the contact form.
    feed.feeding = ctx.feed(arm, feed, speed)
    next(feed.feeding)
    return feed


def contact_law(kind):
    """The contact law of a ``"press"`` (the drill's touch) or a ``"spring"``
    (the nut runner's approach) feed."""
    stiffness, reach = (200000.0, 0.0) if kind == "press" else (10000.0, 0.002)

    def law(distances, *_):
        pens = reach - distances
        return np.where(pens > 0, stiffness * pens, 0.0), np.zeros(len(pens))

    return law


def start_phase(ctx, arm, phase, hold, anchor_present=True, duration=3.0):
    """Install ``arm``'s contact form for ``phase``, as ``tighten_nut`` and
    ``drill_hole`` do: the nut runner's ``"fit"`` (``anchor_present`` or
    not), ``"run"`` (for ``duration`` s) or ``"pulse"``, or the drill's
    ``"spinup"``, the touch law held at the arm's point. The approach
    before it ended on a true fz of ``hold``."""
    runtime = ctx.world.runtime(arm)
    runtime.true_wrench = Wrench(fz=hold)
    if phase == "fit":
        form = Fitting(ctx, arm, anchor_present)
    elif phase == "run":
        form = RunDown(ctx, arm, duration)
    elif phase == "pulse":
        form = Pulsing(ctx, arm)
    else:
        form = Holding(Pressing(ctx, arm, contact_law("press"), 20.0, 0.2))
    runtime.contact = form
    return form


def start_other(ctx, arm, other, filled):
    """Start ``arm`` on the ``OTHER`` setup ``other`` and return its form,
    or None for a ``MOVE``. If ``filled``, both guard filters hold a full
    window of zero readings, as after a quiet move; otherwise they are
    empty."""
    if not isinstance(other, tuple):
        start_move(ctx.world.arm(arm), other)
        form = None
    elif other[0] == "hammer":
        form = start_hammer(ctx, arm, 0.08, other[1], OTHER_SPOT)
    elif other[0] in ("fit", "run", "pulse", "spinup"):
        ctx.world.arm(arm).position = wall_point(ctx, OTHER_SPOT, -other[1])
        form = start_phase(ctx, arm, other[0], 0.0)
    else:
        ctx.world.arm(arm).position = wall_point(ctx, OTHER_SPOT, other[1])
        form = start_feed(ctx, arm, other[0], other[2])
    for runtime in ctx.world.arms.values() if filled else ():
        for _ in range(runtime.guard_filter.window):
            runtime.guard_filter.push(ZERO_WRENCH)
    return form


def held_state(world, forms) -> list[str]:
    """``world_state`` plus what held forms change besides: slips, the
    watches' outcomes, laser noise cursors and depth rows, a timed phase's
    elapsed time, the impulses a hammer or a nut runner struck, the anchor's
    depth, a drill's measured depth, a search's probes, the ticks left of its
    probe and whether it engaged, and whether a push entered the hole. The
    moments the drill reports come from the wrench rows. Each item is
    ``repr``'d, so a failure names the first that differs."""
    state = []
    for form in forms:
        if isinstance(form, Timed):
            state += [form.elapsed, getattr(form, "struck", None)]
        if isinstance(form, Hammering):
            state.append(form.anchor.depth)
        elif isinstance(form, Drilling):
            state.append(form.measured)
        elif isinstance(form, Probing):
            state += [form.probes, form.left, form.engaged]
        elif isinstance(form, Entering):
            state.append(form.entered)
    for runtime in world.arms.values():
        state += [
            runtime.platform.slip_offset, runtime.watched, next(runtime.laser_noise),
            *(runtime.depth_row.column(index).tobytes() for index in (None, 0, 1, 2)),
        ]
    return world_state(world) + list(map(repr, state))


def bulk_matches_ticked(worlds, horizons) -> list[str]:
    """Take each of ``horizons`` in turn on two worlds built alike, given as
    ``(world, forms)``: with ``run`` on the first, which computes stretches
    as long as they may be, and with ``run(1)`` on the second, which takes
    each tick as a stretch of its own, stopping after an event. After each,
    both must hold every byte the same (``held_state``). A ``ValueError``
    ends the horizons, and both must raise the same; return the ``repr`` of
    each, in turn. An arm whose wait has ended, failed or halted then holds
    no contact form, as ``MissionContext.until`` leaves it."""
    (bulk, bulk_forms), (ticked, ticked_forms) = worlds
    errors = []
    for horizon in horizons:
        try:
            bulk.run(horizon)
        except ValueError as exc:
            errors.append(repr(exc))
        try:
            for _ in range(horizon):
                ticked.run(1)
                if ticked.event:
                    break
        except ValueError as exc:
            errors.append(repr(exc))
        assert held_state(bulk, bulk_forms) == held_state(ticked, ticked_forms)
        for world in (bulk, ticked):
            for runtime in world.arms.values():
                if runtime.watched or runtime.state.halted or getattr(runtime.contact, "outcome", False):
                    runtime.contact = None
        if errors:
            break
    assert errors[::2] == errors[1::2]
    return errors


def hammer_world(seed, arm, sigmas, laser_sigma, rate_dt, press, force_limit, end_moment, hole_depth, gap,
                 pressed, skipped, other, filled, start_tick):
    """A world in which ``arm`` hammers an anchor ``gap`` metres short of the
    bottom of a ``hole_depth`` hole, the tip at the anchor, and the other arm
    takes the ``OTHER`` setup ``other``; ``pressed`` is the press force of
    the tick before. Returns the world and both arms' forms."""
    scenario = Scenario()
    sensors = scenario.sensors
    sensors.ft_sigma_force, sensors.ft_sigma_moment = sigmas
    sensors.laser_sigma, sensors.force_limit = laser_sigma, force_limit
    scenario.tools.blow_rate, scenario.procedure.timestep = rate_dt
    scenario.tools.hammer_press_force = press
    scenario.procedure.hammering_end_moment = end_moment
    world = World(scenario, seed)
    world.clock.ticks = start_tick
    ctx = MissionContext(world)
    runtime = world.runtime(arm)
    runtime.press_force = pressed
    for noise, skip in zip((runtime.ft_noise, runtime.laser_noise), skipped):
        for _ in range(skip):
            next(noise)
    hammer = start_hammer(ctx, arm, hole_depth, gap, 0.0)
    other_arm = next(name for name in world.arms if name != arm)
    return world, [hammer, start_other(ctx, other_arm, other, filled)]


HAMMER_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["robot1", "robot2"]),
    sigmas=st.sampled_from([(2.0, 0.2), (0.0, 0.0), (0.0, 0.2), (100.0, 3.0)]),
    laser_sigma=st.sampled_from([0.0001, 0.0, 0.002]),
    rate_dt=st.sampled_from([(3.0, 0.01), (4.0, 0.01), (12.0, 0.005), (7.0, 0.025), (40.0, 0.025), (10.0, 0.002)]),
    press=st.sampled_from([150.0, 950.0, 0.0, -50.0]),
    force_limit=st.sampled_from([1000.0, 160.0, 1.0]),
    end_moment=st.sampled_from([27.0, 22.0]),
    hole_depth=st.sampled_from([0.08, 0.04]),
    gap=st.sampled_from([0.0008, 0.0012, 0.002, 0.005]),
    pressed=st.sampled_from([0.0, 150.0]),
    skipped=st.tuples(st.integers(0, 1100), st.integers(0, 1100)),
    other=OTHER,
    filled=st.booleans(),
    before_max=st.none() | st.integers(0, 1500),
    horizons=st.lists(st.integers(1, 1500), min_size=1, max_size=3),
)


#: A move of the other arm that arrives after 229 ticks at 0.01 s.
ARRIVING = {"offset": (0.2, -0.1, 0.05), "speed": 0.1, "overreach": False}


def _hammer_example(**changes):
    case = dict(seed=7, arm="robot1", sigmas=(2.0, 0.2), laser_sigma=0.0001, rate_dt=(3.0, 0.01), press=150.0,
                force_limit=1000.0, end_moment=27.0, hole_depth=0.08, gap=0.0012, pressed=0.0, skipped=(0, 0),
                other=None, filled=False, before_max=None, horizons=[1500])
    case.update(changes)
    return example(**case)


@_hammer_example()  # bottoms out past the success depth
@_hammer_example(arm="robot2", pressed=150.0)  # the other arm first; the first tick slips
@_hammer_example(hole_depth=0.04)  # bottom contact short of the success depth raises
@_hammer_example(sigmas=(0.0, 0.0), laser_sigma=0.0)  # no noise drawn
@_hammer_example(rate_dt=(4.0, 0.01), gap=0.005)  # blows due on a whole tick, within 1e-12
@_hammer_example(rate_dt=(40.0, 0.025))  # a blow on every tick
@_hammer_example(horizons=[40, 7, 300, 1100])  # horizons that cut the stretch
@_hammer_example(skipped=(1000, 1010))  # both noise blocks end within the first stretch
@_hammer_example(before_max=100, gap=0.005)  # the time ceiling
@_hammer_example(sigmas=(100.0, 3.0), press=950.0, gap=0.005)  # a guard trip while the filter fills
@_hammer_example(force_limit=1.0)  # a trip on the first tick
@_hammer_example(press=0.0, pressed=150.0)  # no press force: only the first tick slips
@_hammer_example(sigmas=(2.0, 0.0), end_moment=22.0)  # a blow's peak exactly at the end moment
@_hammer_example(other=ARRIVING)  # the other arm's move arrives inside the stretch
@_hammer_example(other={"offset": (0.0, 0.0, 0.0), "speed": 0.3, "overreach": True})  # reach trims it
@_hammer_example(other=ARRIVING, press=0.0, force_limit=1.0, filled=True)  # noise trips the moving arm
@_hammer_example(other=("press", 0.002, 0.2))  # beside a feed that touches inside the stretch
@_hammer_example(other=("drill", 0.0012, 0.2), arm="robot2", horizons=[40, 7, 300, 1100])  # cut by horizons
@_hammer_example(other=("press", 0.005, 0.003))  # the feed passes its travel limit
@_hammer_example(other=("hammer", 0.005, 0.2), gap=0.0008)  # two hammers, one bottoming first
@_hammer_example(other=("press", 0.0012, 0.2), sigmas=(0.0, 0.0), press=0.0, force_limit=2.0)  # trips the feed
@_hammer_example(other=("drill", 0.005, 0.2), sigmas=(100.0, 3.0), press=950.0, gap=0.005)  # trips the hammer
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(**HAMMER_CASES)
def test_hammer_stretch_in_bulk_matches_tick_by_tick(
    seed, arm, sigmas, laser_sigma, rate_dt, press, force_limit, end_moment, hole_depth, gap, pressed,
    skipped, other, filled, before_max, horizons,
):
    # ``run`` computes a hammer stretch, beside an idle or a moving arm or
    # the other arm's held form, in bulk through the first tick that may be
    # an event; ``run(1)`` takes each tick as a stretch of its own. Both
    # must leave every byte the same.
    start = 0 if before_max is None else round(MAX_SIM_TIME / rate_dt[1]) - before_max
    worlds = [
        hammer_world(seed, arm, sigmas, laser_sigma, rate_dt, press, force_limit, end_moment, hole_depth, gap,
                     pressed, skipped, other, filled, start)
        for _ in range(2)
    ]
    assert not bulk_matches_ticked(worlds, horizons)


def four_point() -> Scenario:
    """The four-point scenario of ``demos/dual_arm_parallel.py``, in which one
    arm hammers while the other moves."""
    scenario = Scenario()
    scenario.part.holes, scenario.part.hole_spacing = 4, 0.05
    scenario.robot.tool_change_time = 5.0
    scenario.tools.blow_advance, scenario.tools.blow_rate = 0.004, 12.0
    return scenario


@pytest.mark.parametrize("scenario, mission, blows, bound", [
    (Scenario(), "hammer", 300, 40),
    (four_point(), "full", 4 * 80, 40),
], ids=["hammer", "full_4pt"])
def test_hammer_phase_runs_in_bulk(monkeypatch, scenario, mission, blows, bound):
    # Per tick, ``Hammering.watch`` reads the laser once. In bulk, a hammer
    # phase reads it per tick only for the start and stop depths and the
    # ticks that may end the wait, also while the other arm moves or holds a
    # form of its own. At seed 7, the ``hammer`` mission read it 11,502
    # times tick by tick. The four-point ``full`` mission read it 1,260
    # times when a hammer beside a free move ran tick by tick (527 of them
    # at point 1), 737 times when a hammer beside the other arm's contact
    # model did, 607 times when one beside the nut runner's fitting and
    # pulse phases did (597 of them at point 2), and reads it 13 times now
    # that those phases run in bulk too. Each bound is the count now plus 27
    # reads.
    reads, marks = {"robot1": 0, "robot2": 0}, {}
    laser_distance, begin, end = World.laser_distance, MissionContext.begin, MissionContext.end

    def counted_read(world, arm, ray=None):
        reads[arm] += 1
        return laser_distance(world, arm, ray)

    def marked_begin(ctx, step, point, arm):
        marks[step, point] = reads[arm]
        return begin(ctx, step, point, arm)

    def marked_end(ctx, arm, **diag):
        record = ctx._open[arm]
        marks[record.step, record.point_index] = reads[arm] - marks[record.step, record.point_index]
        return end(ctx, arm, **diag)

    monkeypatch.setattr(World, "laser_distance", counted_read)
    monkeypatch.setattr(MissionContext, "begin", marked_begin)
    monkeypatch.setattr(MissionContext, "end", marked_end)
    report, _ = run(scenario, 7, mission)
    assert report.success
    hammered = [record for record in report.steps if record.step is FixationStep.HAMMER_ANCHOR]
    assert sum(record.diagnostics["blows"] for record in hammered) > blows
    assert sum(marks[record.step, record.point_index] for record in hammered) <= bound


# --- guarded feeds ---------------------------------------------------------------------


def feed_world(seed, arm, law, variant, depth_source, sigmas, laser_sigma, dt, slip, tilt, gap, target,
               max_travel, trim, pressed, skipped, other, filled, start_tick):
    """A world in which ``arm`` feeds into the wall from ``gap`` metres
    before its surface (negative: inside it) under the contact ``law`` (see
    ``start_feed``; the drill's depth target is ``target``), and the other
    arm takes the ``OTHER`` setup ``other``. ``trim`` shrinks the reach to
    that many metres past the start; ``pressed`` is the press force of the
    tick before; ``slip`` is the slip coefficient, or NaN for a NaN slip.
    Returns the world and both arms' forms."""
    scenario = Scenario()
    sensors, tools, procedure = scenario.sensors, scenario.tools, scenario.procedure
    sensors.ft_sigma_force, sensors.ft_sigma_moment = sigmas
    sensors.laser_sigma, procedure.timestep = laser_sigma, dt
    scenario.wall.yaw_deg, scenario.wall.pitch_deg = tilt
    tools.variant, procedure.depth_source = variant, depth_source
    if not math.isnan(slip):
        scenario.robot.slip_coefficient = slip
    world = World(scenario, seed)
    world.clock.ticks = start_tick
    procedure.drill_depth_target = target
    ctx = MissionContext(world)
    runtime = world.runtime(arm)
    state = runtime.state
    state.position = wall_point(ctx, 0.0, gap)
    if trim is not None:
        scenario.robot.reach = state.base.distance_to(state.position) + trim
    runtime.press_force = pressed
    runtime.platform.slip_offset = math.nan if math.isnan(slip) else 0.0
    for noise, skip in zip((runtime.ft_noise, runtime.laser_noise), skipped):
        for _ in range(skip):
            next(noise)
    feed = start_feed(ctx, arm, law, max_travel)
    other_arm = next(name for name in world.arms if name != arm)
    return world, [feed, start_other(ctx, other_arm, other, filled)]


FEED_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["robot1", "robot2"]),
    law=st.sampled_from(["press", "spring", "drill"]),
    variant=st.sampled_from(["constant_load_spring", "offset_uncompensated", "regular_spring", "aligned_axis"]),
    depth_source=st.sampled_from(["laser", "commanded"]),
    sigmas=st.sampled_from([(2.0, 0.2), (0.0, 0.0), (100.0, 3.0)]),
    laser_sigma=st.sampled_from([0.0001, 0.0, 0.002]),
    dt=st.sampled_from([0.01, 0.005, 0.025]),
    slip=st.sampled_from([2e-7, 1e-5, 0.0, 1e-4]),
    tilt=st.sampled_from([(0.0, 0.0), (3.0, -2.0)]),
    gap=st.sampled_from([0.002, 0.0005, 0.0, -0.005, -0.05]),
    target=st.sampled_from([0.08, 0.003]),
    max_travel=st.sampled_from([0.2, 0.12, 0.003]),
    trim=st.none() | st.sampled_from([0.0015, 0.004]),
    pressed=st.sampled_from([0.0, 150.0]),
    skipped=st.tuples(st.integers(0, 1100), st.integers(0, 1100)),
    other=OTHER,
    filled=st.booleans(),
    before_max=st.none() | st.integers(0, 1500),
    horizons=st.lists(st.integers(1, 2500), min_size=1, max_size=3),
)


def _feed_example(**changes):
    case = dict(seed=7, arm="robot1", law="drill", variant="constant_load_spring", depth_source="laser",
                sigmas=(2.0, 0.2), laser_sigma=0.0001, dt=0.01, slip=2e-7, tilt=(0.0, 0.0), gap=0.0,
                target=0.08, max_travel=0.12, trim=None, pressed=0.0, skipped=(0, 0), other=None,
                filled=False, before_max=None, horizons=[2500])
    case.update(changes)
    return example(**case)


@_feed_example(variant="offset_uncompensated")  # the uncompensated drill trips the guard near 10 mm
@_feed_example(target=0.003)  # the depth target reached inside a stretch
@_feed_example(target=0.003, depth_source="commanded", arm="robot2", pressed=150.0)  # commanded depth
@_feed_example(gap=-0.076, horizons=[40, 7, 300, 1100])  # the hole bottom, horizons that cut the feed
@_feed_example(law="press", gap=0.002)  # fz contact starting mid-stretch
@_feed_example(law="spring", gap=0.002, tilt=(3.0, -2.0), pressed=150.0)  # the nut runner's spring law
@_feed_example(law="press", gap=0.01, max_travel=0.003)  # the feed passes its travel limit
@_feed_example(law="press", gap=0.01, trim=0.0015)  # the reach trims the feed
@_feed_example(law="press", gap=0.002, trim=0.0015, horizons=[82, 32])  # and a horizon after the trim
@_feed_example(skipped=(1000, 1010))  # both noise blocks end within the first stretch
@_feed_example(sigmas=(0.0, 0.0), laser_sigma=0.0)  # no noise drawn
@_feed_example(slip=math.nan)  # a NaN slip raises ValueError on the first tick
@_feed_example(slip=1e-5, gap=-0.01)  # slip feeds back into the penetration
@_feed_example(slip=1e-4, law="press", gap=-0.001, pressed=150.0)  # and takes many passes of the solve
@_feed_example(before_max=100)  # the time ceiling
@_feed_example(other=ARRIVING)  # the other arm's move arrives inside the stretch
@_feed_example(law="press", gap=0.006, other=ARRIVING, filled=True)  # and then the feed touches
@_feed_example(law="press", gap=0.002, sigmas=(100.0, 3.0))  # force noise alone ends the feed
@_feed_example(other=("press", 0.002, 0.2))  # two feeds: the other touches inside the drill's stretch
@_feed_example(law="press", gap=0.006, other=("drill", 0.0, 0.2), target=0.003)  # the drill reaches its target
@_feed_example(law="spring", gap=0.01, other=("press", 0.005, 0.003), arm="robot2")  # the other's travel limit
@_feed_example(other=("hammer", 0.0012, 0.2), horizons=[40, 7, 300, 1100])  # beside a hammer, cut by horizons
@_feed_example(law="press", gap=0.05, max_travel=0.2, variant="offset_uncompensated",
               other=("drill", 0.0, 0.12))  # the guard trips the other arm's drill
@_feed_example(variant="offset_uncompensated", other=("drill", 0.005, 0.12))  # and this arm's drill
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(**FEED_CASES)
def test_feed_stretch_in_bulk_matches_tick_by_tick(
    seed, arm, law, variant, depth_source, sigmas, laser_sigma, dt, slip, tilt, gap, target, max_travel, trim,
    pressed, skipped, other, filled, before_max, horizons,
):
    # ``run`` computes a guarded feed, beside an idle or a moving arm or the
    # other arm's held form, in bulk through the first tick that may be an
    # event; ``run(1)`` takes each tick as a stretch of its own. Both must
    # leave every byte the same, and raise the same error.
    start = 0 if before_max is None else round(MAX_SIM_TIME / dt) - before_max
    case = (seed, arm, law, variant, depth_source, sigmas, laser_sigma, dt, slip, tilt, gap, target, max_travel,
            trim, pressed, skipped, other, filled, start)
    errors = bulk_matches_ticked((feed_world(*case), feed_world(*case)), horizons)
    assert bool(errors) == math.isnan(slip)


# --- the nut runner's timed phases and the drill spin-up ---------------------------------


def phase_world(seed, arm, phase, sigmas, rate_dt, hold, fit, anchor_present, duration, torque, gap, slip,
                force_limit, skipped, other, filled, start_tick):
    """A world in which ``arm`` holds ``phase`` (see ``start_phase``) with the
    point ``gap`` metres inside the wall, pressed with ``hold`` on the tick
    before, and the other arm takes the ``OTHER`` setup ``other``. ``fit``
    is the socket fit time and timeout, ``torque`` the target torque and
    pulse step; ``slip`` is the slip coefficient, or NaN for a NaN slip.
    Returns the world and both arms' forms."""
    scenario = Scenario()
    sensors, tools, procedure = scenario.sensors, scenario.tools, scenario.procedure
    sensors.ft_sigma_force, sensors.ft_sigma_moment = sigmas
    sensors.force_limit = force_limit
    tools.pulse_rate, procedure.timestep = rate_dt
    tools.socket_fit_time, procedure.socket_fit_timeout = fit
    tools.target_torque, tools.pulse_torque_step = torque
    if not math.isnan(slip):
        scenario.robot.slip_coefficient = slip
    world = World(scenario, seed)
    world.clock.ticks = start_tick
    ctx = MissionContext(world)
    runtime = world.runtime(arm)
    runtime.state.position = wall_point(ctx, 0.0, -gap)
    runtime.press_force = hold
    runtime.platform.slip_offset = math.nan if math.isnan(slip) else 0.0
    for _ in range(skipped[0]):
        next(runtime.ft_noise)
    form = start_phase(ctx, arm, phase, hold, anchor_present, duration)
    other_arm = next(name for name in world.arms if name != arm)
    return world, [form, start_other(ctx, other_arm, other, filled)]


PHASE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["robot1", "robot2"]),
    phase=st.sampled_from(["fit", "run", "pulse", "spinup"]),
    sigmas=st.sampled_from([(2.0, 0.2), (0.0, 0.0), (0.0, 0.2), (100.0, 3.0)]),
    rate_dt=st.sampled_from([(10.0, 0.01), (7.0, 0.01), (30.0, 0.01), (4.0, 0.01), (12.0, 0.005), (40.0, 0.025)]),
    hold=st.sampled_from([55.0, 0.0, 1200.0]),
    fit=st.sampled_from([(3.0, 10.0), (0.0, 10.0), (10.0, 10.0), (0.37, 0.5), (3.0, 3.005)]),
    anchor_present=st.booleans(),
    duration=st.sampled_from([3.0, 0.5, 40.0]),
    torque=st.sampled_from([(50.0, 1.0), (1.0, 1.0), (3.5, 0.3)]),
    gap=st.sampled_from([0.0001, 0.0, 0.003]),
    slip=st.sampled_from([2e-7, 1e-5, math.nan]),
    force_limit=st.sampled_from([1000.0, 160.0, 1.0]),
    skipped=st.tuples(st.integers(0, 1100)),
    other=OTHER,
    filled=st.booleans(),
    before_max=st.none() | st.integers(0, 1500),
    horizons=st.lists(st.integers(1, 1500), min_size=1, max_size=3),
)


def _phase_example(**changes):
    case = dict(seed=7, arm="robot1", phase="pulse", sigmas=(2.0, 0.2), rate_dt=(10.0, 0.01), hold=55.0,
                fit=(3.0, 10.0), anchor_present=True, duration=3.0, torque=(50.0, 1.0), gap=0.0001, slip=2e-7,
                force_limit=1000.0, skipped=(0,), other=None, filled=False, before_max=None, horizons=[1500])
    case.update(changes)
    return example(**case)


@_phase_example()  # the target torque reached inside the first stretch
@_phase_example(torque=(1.0, 1.0), horizons=[1500, 40])  # on the first pulse, then on every tick
@_phase_example(torque=(3.5, 0.3), rate_dt=(4.0, 0.01))  # pulses due on a whole tick, within 1e-12
@_phase_example(rate_dt=(40.0, 0.025), sigmas=(0.0, 0.0))  # a pulse on every tick, no noise drawn
@_phase_example(rate_dt=(7.0, 0.01), horizons=[40, 7, 300, 1100])  # off the tick, cut by horizons
@_phase_example(phase="fit")  # the socket slots on inside the first stretch
@_phase_example(phase="fit", fit=(0.0, 10.0), arm="robot2")  # on the first tick
@_phase_example(phase="fit", fit=(10.0, 10.0), horizons=[1200, 40])  # at the timeout
@_phase_example(phase="fit", anchor_present=False, fit=(3.0, 3.005))  # the timeout raises inside a stretch
@_phase_example(phase="fit", anchor_present=False, sigmas=(0.0, 0.0), fit=(0.37, 0.5))  # and with no noise
@_phase_example(phase="fit", sigmas=(100.0, 3.0), fit=(0.37, 0.5))  # noise keeps the reading over 10 N
@_phase_example(phase="fit", hold=1200.0, filled=True)  # the guard trips as the press fills its window
@_phase_example(phase="run", horizons=[300, 1500])  # the run down ends at a horizon
@_phase_example(phase="run", duration=0.5, sigmas=(0.0, 0.0), slip=1e-5)  # run past its duration
@_phase_example(phase="run", before_max=100)  # the time ceiling
@_phase_example(phase="spinup", horizons=[100])  # the drill spins up against the wall
@_phase_example(phase="spinup", gap=0.003, slip=1e-5)  # slip moves the surface distance
@_phase_example(phase="spinup", gap=0.0, sigmas=(0.0, 0.0))  # no contact, no noise drawn
@_phase_example(phase="spinup", slip=math.nan)  # a NaN slip raises ValueError on the first tick
@_phase_example(skipped=(1000,))  # the noise block ends within the first stretch
@_phase_example(other=ARRIVING)  # the other arm's move arrives inside the stretch
@_phase_example(phase="fit", other=("press", 0.002, 0.2))  # beside a feed that touches
@_phase_example(phase="run", other=("hammer", 0.005, 0.2), horizons=[40, 7, 300, 1100])  # beside a hammer
@_phase_example(phase="spinup", other=("pulse", 0.0012, 0.2))  # beside the pulse phase
@_phase_example(other=("fit", 0.0012, 0.2), force_limit=1.0)  # both trip at once
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(**PHASE_CASES)
def test_timed_phase_in_bulk_matches_tick_by_tick(
    seed, arm, phase, sigmas, rate_dt, hold, fit, anchor_present, duration, torque, gap, slip, force_limit,
    skipped, other, filled, before_max, horizons,
):
    # ``run`` computes the nut runner's fit, run-down and pulse phases and
    # the drill's spin-up, beside an idle or a moving arm or the other arm's
    # held form, in bulk through the first tick that may be an event;
    # ``run(1)`` takes each tick as a stretch of its own. Both must leave
    # every byte the same, and raise the same error.
    start = 0 if before_max is None else round(MAX_SIM_TIME / rate_dt[1]) - before_max
    case = (seed, arm, phase, sigmas, rate_dt, hold, fit, anchor_present, duration, torque, gap, slip,
            force_limit, skipped, other, filled, start)
    errors = bulk_matches_ticked((phase_world(*case), phase_world(*case)), horizons)
    assert bool(errors) == (math.isnan(slip) and phase == "spinup")


# --- the spiral search -------------------------------------------------------------------


def probe_world(seed, arm, sigmas, dt_ticks, hole, clearance, max_probes, force_limit, pressed, skipped, other,
                filled, start_tick):
    """A world in which ``arm`` runs the spiral search, from 0.3 mm out of the
    wall at its origin, for the hole whose mouth lies ``hole`` metres from it
    along the wall's x and y axes; the other arm takes the ``OTHER`` setup
    ``other``. ``dt_ticks`` is the tick and the ticks of a probe, and
    ``pressed`` the press force of the tick before. Returns the world and
    both arms' forms."""
    scenario = Scenario()
    sensors = scenario.sensors
    sensors.ft_sigma_force, sensors.ft_sigma_moment = sigmas
    sensors.force_limit = force_limit
    scenario.procedure.timestep, ticks = dt_ticks
    scenario.procedure.engagement_clearance = clearance
    world = World(scenario, seed)
    world.clock.ticks = start_tick
    ctx = MissionContext(world)
    runtime = world.runtime(arm)
    runtime.state.position = wall_point(ctx, 0.0, 0.0003)
    runtime.press_force = pressed
    for _ in range(skipped[0]):
        next(runtime.ft_noise)
    frame = world.site.wall.frame
    mouth = frame.origin + frame.x_axis.scaled(hole[0]) + frame.y_axis.scaled(hole[1])
    search = Probing(ctx, arm, DrilledHole(mouth, -frame.z_axis, 0.08), ticks, max_probes)
    runtime.contact = search
    other_arm = next(name for name in world.arms if name != arm)
    return world, [search, start_other(ctx, other_arm, other, filled)]


PROBE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["robot1", "robot2"]),
    sigmas=st.sampled_from([(2.0, 0.2), (0.0, 0.0), (100.0, 3.0)]),
    dt_ticks=st.sampled_from([(0.01, 5), (0.01, 1), (0.01, 20), (0.005, 10), (0.025, 2)]),
    # Engaged on the first probe, on the 31st and on the 121st at 5 ticks a
    # probe, and never.
    hole=st.sampled_from([(0.0, 0.0), (0.0004, -0.0003), (0.0012, 0.0009), (0.05, 0.0)]),
    clearance=st.sampled_from([0.0002, 0.00005]),
    max_probes=st.sampled_from([1200, 40, 1]),
    force_limit=st.sampled_from([1000.0, 21.0, 1.0]),
    pressed=st.sampled_from([20.0, 0.0]),
    skipped=st.tuples(st.integers(0, 1100)),
    other=OTHER,
    filled=st.booleans(),
    before_max=st.none() | st.integers(0, 1500),
    horizons=st.lists(st.integers(1, 1500), min_size=1, max_size=3),
)


def _probe_example(**changes):
    case = dict(seed=7, arm="robot1", sigmas=(2.0, 0.2), dt_ticks=(0.01, 5), hole=(0.0012, 0.0009), clearance=0.0002,
                max_probes=1200, force_limit=1000.0, pressed=20.0, skipped=(0,), other=None, filled=False,
                before_max=None, horizons=[1500])
    case.update(changes)
    return example(**case)


@_probe_example()  # engaged at a probe end inside the first stretch
@_probe_example(horizons=[40, 7, 300, 1100])  # a probe end at the horizon of 40 ticks, the others cut probes
@_probe_example(hole=(0.0, 0.0), arm="robot2", pressed=0.0)  # engaged on the first probe
@_probe_example(max_probes=40, hole=(0.05, 0.0))  # the exhausting probe ends the wait
@_probe_example(max_probes=1, hole=(0.05, 0.0), dt_ticks=(0.01, 1))  # a spiral of one one-tick probe
@_probe_example(dt_ticks=(0.01, 1), hole=(0.0004, -0.0003))  # a probe end on every tick
@_probe_example(dt_ticks=(0.005, 10), clearance=0.00005, hole=(0.05, 0.0))  # a long search over many stretches
@_probe_example(sigmas=(0.0, 0.0))  # no noise drawn
@_probe_example(force_limit=21.0, filled=True, hole=(0.05, 0.0))  # the guard trips during the slide
@_probe_example(before_max=100, hole=(0.05, 0.0))  # the time ceiling
@_probe_example(skipped=(1000,))  # the noise block ends within the first stretch
@_probe_example(other=ARRIVING)  # the other arm's move arrives inside the stretch
@_probe_example(other={"offset": (0.0, 0.0, 0.0), "speed": 0.3, "overreach": True})  # reach trims it
@_probe_example(other=("press", 0.002, 0.2))  # beside a feed that touches
@_probe_example(other=("drill", 0.0012, 0.2), horizons=[40, 7, 300, 1100])  # beside the drill, cut by horizons
@_probe_example(other=("hammer", 0.005, 0.2), arm="robot2")  # beside a hammer
@_probe_example(other=("fit", 0.0012, 0.2))  # beside the nut runner's fitting
@_probe_example(other=("run", 0.0012, 0.2))  # its run-down
@_probe_example(other=("pulse", 0.0012, 0.2))  # its pulses
@_probe_example(other=("spinup", 0.0012, 0.2), hole=(0.05, 0.0))  # beside the drill's spin-up
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(**PROBE_CASES)
def test_probe_search_in_bulk_matches_tick_by_tick(
    seed, arm, sigmas, dt_ticks, hole, clearance, max_probes, force_limit, pressed, skipped, other, filled,
    before_max, horizons,
):
    # ``run`` computes the spiral search, beside an idle or a moving arm or
    # the other arm's held form, in bulk through the first tick that may be
    # an event; ``run(1)`` takes each tick as a stretch of its own. Both
    # must leave every byte the same.
    start = 0 if before_max is None else round(MAX_SIM_TIME / dt_ticks[0]) - before_max
    case = (seed, arm, sigmas, dt_ticks, hole, clearance, max_probes, force_limit, pressed, skipped, other,
            filled, start)
    assert not bulk_matches_ticked((probe_world(*case), probe_world(*case)), horizons)


# --- the insertion push ------------------------------------------------------------------


def push_world(seed, arm, stop, sigmas, laser_sigma, dt, slip, tilt, hole, gap, wedge, force_limit, pressed,
               skipped, other, filled, start_tick):
    """A world in which ``arm`` pushes an anchor into the wall at the approach
    speed, from ``gap`` metres before its surface at its origin (negative:
    inside it), until the tip enters (``stop`` ``"enter"``, ``Entering``) or
    the wedge stops it (``"wedge"``, ``Wedging``), for the hole whose mouth
    lies ``hole`` metres from the origin along the wall's x and y axes; the
    other arm takes the ``OTHER`` setup ``other``. ``wedge`` is the wedge
    moment rate and the insertion end moment, ``slip`` the slip coefficient
    or NaN for a NaN slip, and ``pressed`` the press force of the tick
    before. Returns the world and both arms' forms."""
    scenario = Scenario()
    sensors, procedure = scenario.sensors, scenario.procedure
    sensors.ft_sigma_force, sensors.ft_sigma_moment = sigmas
    sensors.laser_sigma, sensors.force_limit, procedure.timestep = laser_sigma, force_limit, dt
    scenario.wall.yaw_deg, scenario.wall.pitch_deg = tilt
    procedure.wedge_moment_rate, procedure.insertion_end_moment = wedge
    if not math.isnan(slip):
        scenario.robot.slip_coefficient = slip
    world = World(scenario, seed)
    world.clock.ticks = start_tick
    ctx = MissionContext(world)
    runtime = world.runtime(arm)
    runtime.state.position = wall_point(ctx, 0.0, gap)
    runtime.press_force = pressed
    runtime.platform.slip_offset = math.nan if math.isnan(slip) else 0.0
    for noise, skip in zip((runtime.ft_noise, runtime.laser_noise), skipped):
        for _ in range(skip):
            next(noise)
    frame = world.site.wall.frame
    mouth = frame.origin + frame.x_axis.scaled(hole[0]) + frame.y_axis.scaled(hole[1])
    push = (Entering if stop == "enter" else Wedging)(ctx, arm, DrilledHole(mouth, -frame.z_axis, 0.08))
    # Start the push and install it; no tick yet. The suspended generator
    # must outlive the call, or closing it clears the contact form.
    push.feeding = ctx.feed(arm, push, scenario.robot.approach_speed)
    next(push.feeding)
    other_arm = next(name for name in world.arms if name != arm)
    return world, [push, start_other(ctx, other_arm, other, filled)]


PUSH_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["robot1", "robot2"]),
    stop=st.sampled_from(["enter", "wedge"]),
    sigmas=st.sampled_from([(2.0, 0.2), (0.0, 0.0), (100.0, 3.0)]),
    laser_sigma=st.sampled_from([0.0001, 0.0, 0.002]),
    dt=st.sampled_from([0.01, 0.005, 0.025]),
    slip=st.sampled_from([2e-7, 1e-5, 0.0, 1e-4]),
    tilt=st.sampled_from([(0.0, 0.0), (3.0, -2.0)]),
    # Engaged at the axis and off it, on the rim just outside the 0.2 mm
    # clearance, and on the surface.
    hole=st.sampled_from([(0.0, 0.0), (0.0001, -0.00005), (0.00021, 0.0), (0.003, 0.0)]),
    gap=st.sampled_from([0.0003, 0.002, 0.0, -0.003]),
    # The default wedge, a steep one with a low end moment, and a shallow
    # one that pushes past the wedging push's 30 mm travel limit.
    wedge=st.sampled_from([(3571.4, 25.0), (20000.0, 10.0), (700.0, 25.0)]),
    force_limit=st.sampled_from([1000.0, 100.0, 1.0]),
    pressed=st.sampled_from([0.0, 20.0, 150.0]),
    skipped=st.tuples(st.integers(0, 1100), st.integers(0, 1100)),
    other=OTHER,
    filled=st.booleans(),
    before_max=st.none() | st.integers(0, 1500),
    horizons=st.lists(st.integers(1, 2500), min_size=1, max_size=3),
)


def _push_example(**changes):
    case = dict(seed=7, arm="robot1", stop="enter", sigmas=(2.0, 0.2), laser_sigma=0.0001, dt=0.01, slip=2e-7,
                tilt=(0.0, 0.0), hole=(0.0, 0.0), gap=0.0003, wedge=(3571.4, 25.0), force_limit=1000.0,
                pressed=0.0, skipped=(0, 0), other=None, filled=False, before_max=None, horizons=[2500])
    case.update(changes)
    return example(**case)


@_push_example()  # the tip enters engaged inside the first stretch
@_push_example(hole=(0.00021, 0.0))  # it lands on the rim: fz ends the entry
@_push_example(hole=(0.003, 0.0), arm="robot2", pressed=20.0)  # it lands on the surface
@_push_example(stop="wedge", gap=-0.0005, pressed=20.0)  # the wedge reaches the insertion end moment
@_push_example(stop="wedge", tilt=(3.0, -2.0), hole=(0.0001, -0.00005))  # drifts out of the clearance: the guard
@_push_example(stop="wedge", hole=(0.00021, 0.0))  # pushes on the rim until the guard trips
@_push_example(stop="wedge", gap=-0.0005, horizons=[40, 7, 300, 1100])  # horizons that cut the push
@_push_example(hole=(0.003, 0.0), gap=0.002, horizons=[40, 7, 300])  # and the entry
@_push_example(stop="wedge", wedge=(700.0, 25.0))  # the push passes its travel limit
@_push_example(stop="wedge", wedge=(20000.0, 10.0), dt=0.005)  # a steep wedge, a finer tick
@_push_example(stop="wedge", sigmas=(0.0, 0.0), laser_sigma=0.0)  # no noise drawn
@_push_example(stop="wedge", slip=1e-5, pressed=150.0)  # the slip moves the tip back as it pushes
@_push_example(stop="wedge", slip=1e-4, gap=-0.0005, pressed=150.0)  # over many passes of the solve
@_push_example(slip=math.nan)  # a NaN slip raises ValueError on the first tick
@_push_example(stop="wedge", force_limit=100.0, filled=True)  # the wedge's fz trips the guard
@_push_example(stop="wedge", before_max=100)  # the time ceiling
@_push_example(stop="wedge", skipped=(1000, 1010), laser_sigma=0.002)  # both noise blocks end in a stretch
@_push_example(other=ARRIVING, stop="wedge")  # the other arm's move arrives inside the stretch
@_push_example(other=("press", 0.002, 0.2), stop="wedge")  # beside a feed that touches
@_push_example(other=("drill", 0.0012, 0.2), stop="wedge", horizons=[40, 7, 300, 1100])  # the drill, cut
@_push_example(other=("hammer", 0.005, 0.2), stop="wedge", arm="robot2")  # beside a hammer
@_push_example(other=("hammer", 0.0008, 0.2), hole=(0.00021, 0.0))  # a hammer bottoming beside the rim
@_push_example(other=("fit", 0.0012, 0.2), stop="wedge")  # beside the nut runner's fitting
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(**PUSH_CASES)
def test_push_in_bulk_matches_tick_by_tick(
    seed, arm, stop, sigmas, laser_sigma, dt, slip, tilt, hole, gap, wedge, force_limit, pressed, skipped, other,
    filled, before_max, horizons,
):
    # ``run`` computes the insertion push, beside an idle or a moving arm or
    # the other arm's held form, in bulk through the first tick that may be
    # an event; ``run(1)`` takes each tick as a stretch of its own. Both
    # must leave every byte the same, and raise the same error.
    start = 0 if before_max is None else round(MAX_SIM_TIME / dt) - before_max
    case = (seed, arm, stop, sigmas, laser_sigma, dt, slip, tilt, hole, gap, wedge, force_limit, pressed, skipped,
            other, filled, start)
    errors = bulk_matches_ticked((push_world(*case), push_world(*case)), horizons)
    assert bool(errors) == math.isnan(slip)


# --- the timed laws, tick by tick ---------------------------------------------------------
#
# The bulk tests above compare a stretch with the same ticks one at a time,
# so these pin each law to the values it states.


def timed_context(**tools) -> MissionContext:
    """A seed-7 world at 0.01 s ticks with the given ``[tools]`` values."""
    scenario = Scenario()
    for key, value in tools.items():
        setattr(scenario.tools, key, value)
    return MissionContext(World(scenario, 7))


def ticked(form, ticks):
    """``(elapsed, true wrench, impulses struck or None)`` after each of
    ``ticks`` ticks, each run as a stretch of its own."""
    world, rows = form.world, []
    for _ in range(ticks):
        world.run(1)
        rows.append((form.elapsed, form.runtime.true_wrench, getattr(form, "struck", None)))
    return rows


def test_fitting_alternates_then_slots_on():
    ctx = timed_context(socket_fit_time=0.5)
    rows = ticked(start_phase(ctx, "robot1", "fit", 55.0), 60)
    bands = {}  # the wrenches of the ticks whose elapsed time is under each bound
    for elapsed, wrench, _ in rows:
        band = 0.2 if elapsed < 0.2 else 0.4 if elapsed < 0.4 else 0.5 if elapsed < 0.5 else math.inf
        bands.setdefault(band, set()).add(wrench)
    assert bands == {
        0.2: {Wrench(fz=55.0, mx=1.2)},
        0.4: {Wrench(fz=55.0, mx=-1.2)},
        0.5: {Wrench(fz=55.0, mx=1.2)},
        math.inf: {Wrench(fz=5.0)},
    }
    assert rows[-1][0] == pytest.approx(0.6)


def test_run_down_eases_the_press():
    ctx = timed_context(pulse_attenuation=0.5, free_run_torque=2.0)
    rows = ticked(start_phase(ctx, "robot1", "run", 0.0, duration=0.5), 60)
    assert {wrench.mx for _, wrench, _ in rows} == {1.0}
    fz = [wrench.fz for _, wrench, _ in rows]
    assert fz[0] == pytest.approx(49.4) and fz[24] == pytest.approx(35.0)
    assert fz[49] == pytest.approx(20.0) and fz[50:] == [20.0] * 10
    for elapsed, wrench, _ in rows[:49]:
        assert wrench.fz == pytest.approx(50.0 - 60.0 * elapsed)


def test_pulses_add_the_torque_step_up_to_the_target():
    ctx = timed_context(pulse_rate=10.0, pulse_torque_step=1.0, target_torque=3.5, pulse_attenuation=0.4)
    rows = ticked(start_phase(ctx, "robot1", "pulse", 0.0), 40)
    assert {wrench.fz for _, wrench, _ in rows} == {50.0}
    torques = [pulses.torque for _, _, pulses in rows]
    moments = [wrench.mx for _, wrench, _ in rows]
    # A pulse every 0.1 s: on ticks 10, 20, 30 and 40, the final one.
    assert torques == [0.0] * 9 + [1.0] * 10 + [2.0] * 10 + [3.0] * 10 + [3.5]
    assert moments == pytest.approx([0.0] * 9 + [0.4] * 10 + [0.8] * 10 + [1.2] * 10 + [1.4])


def test_hammer_moment_is_the_blow_peak_on_a_blow_tick():
    # An anchor 0.8 mm short of the bottom rings from its first blow: the
    # peaks ramp 8 + 7, + 14, + 21 to the 29 N m cap, 10 blows a second.
    ctx = timed_context(blow_rate=10.0)
    hammer = start_hammer(ctx, "robot1", 0.08, 0.0008, 0.0)
    rows = ticked(hammer, 35)
    assert {wrench.fz for _, wrench, _ in rows} == {150.0}
    assert [wrench.mx for _, wrench, _ in rows] == (
        [1.5] * 9 + [15.0] + [1.5] * 9 + [22.0] + [1.5] * 9 + [29.0] + [1.5] * 5
    )
    assert [blows.count for _, _, blows in rows] == [0] * 9 + [1] * 10 + [2] * 10 + [3] * 6
    assert hammer.anchor.depth == hammer.struck.depth


def per_tick_while_open(monkeypatch, scenario, mission, steps) -> int:
    """Run ``mission`` at seed 7, which must succeed, and count the
    ``World.step`` calls that tick outside a stretch while a step of
    ``steps`` is open."""
    per_tick, marks = [0], {}
    step, begin, end = World.step, MissionContext.begin, MissionContext.end

    def counted_step(world):
        per_tick[0] += world.clock.ticks >= world._stretch_end
        return step(world)

    def marked_begin(ctx, step_, point, arm):
        marks[step_, point] = per_tick[0]
        return begin(ctx, step_, point, arm)

    def marked_end(ctx, arm, **diag):
        record = ctx._open[arm]
        marks[record.step, record.point_index] = per_tick[0] - marks[record.step, record.point_index]
        return end(ctx, arm, **diag)

    monkeypatch.setattr(World, "step", counted_step)
    monkeypatch.setattr(MissionContext, "begin", marked_begin)
    monkeypatch.setattr(MissionContext, "end", marked_end)
    report, _ = run(scenario, 7, mission)
    assert report.success
    records = [r for r in report.steps if r.step in steps]
    assert records
    return sum(marks[record.step, record.point_index] for record in records)


@pytest.mark.parametrize("scenario, mission", [
    (Scenario(), "drill"),
    (Scenario(), "full"),
    (four_point(), "full"),
], ids=["drill", "full", "full_4pt"])
def test_guarded_feeds_run_in_bulk(monkeypatch, scenario, mission):
    # Count the ``World.step`` calls that tick outside a stretch while a
    # ``drill_hole`` or ``tighten_nut`` step is open. At seed 7 they were
    # 5,282 (``drill``), 8,514 (``full``) and 41,803 (the four-point
    # ``full``) while the feeds ran tick by tick, and 7, 17 and 108, the
    # event ticks, once every contact form ran in bulk. Every tick now runs
    # in a stretch, the event ticks included.
    steps = (FixationStep.DRILL_HOLE, FixationStep.TIGHTEN_NUT)
    assert per_tick_while_open(monkeypatch, scenario, mission, steps) == 0


@pytest.mark.parametrize("scenario, mission", [
    (Scenario(), "insert"),
    (Scenario(), "full"),
    (four_point(), "full"),
], ids=["insert", "full", "full_4pt"])
def test_spiral_search_runs_in_bulk(monkeypatch, scenario, mission):
    # Count the ``World.step`` calls that tick outside a stretch while an
    # ``insert_anchor`` step is open. At seed 7 they were 1,192 (``insert``),
    # 1,797 (``full``) and 9,470 (the four-point ``full``) while the spiral
    # search ran tick by tick, and 5, 5 and 29, the event ticks and the
    # one-tick move back to the surface before the search, once the push ran
    # in bulk too. Every tick now runs in a stretch.
    assert per_tick_while_open(monkeypatch, scenario, mission, (FixationStep.INSERT_ANCHOR,)) == 0
