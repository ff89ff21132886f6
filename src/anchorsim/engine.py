"""Fixed-timestep simulation core: clock, random streams, traces, world.

Everything that happens in a run is a function of (scenario, seed, dt): the
clock never reads wall time, every sensor draws from its own seeded stream
in blocks, and the per-tick order is fixed (one pass over the arms, then the
watchers; see ``World.step``), so identical inputs give identical outputs.
The tick works on floats; a ``Point3`` is built where the executive reads one.

A free stretch is computed in bulk. While no arm has a contact model, a
watcher or a press force, and each arm is idle or on a targeted move, the
ticks depend only on the arms' motion and FT noise, and only an event can
end that state: an arrival, a guard trip or the tick past
``MAX_SIM_TIME``. ``World.run`` then computes the ticks up to the event or
the horizon with numpy, with the same operations in the same order, so the
outputs are the bytes the per-tick pass would give (see ``World.run``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonMonotonicTime, SimulationError
from .geometry import Point3
from .robot import ArmState, PlatformState
from .scenario import Scenario, scenario_hash
from .sensors import (
    NOISE_BLOCK,
    ZERO_WRENCH,
    GuardFilter,
    NormalBlocks,
    Wrench,
    first_overload,
    overload_guard,
    read_ft,
    read_laser,
)
from .worksite import DrilledHole, StructuralPart, Wall, Worksite, default_hole_pattern, wall_frame_from_angles

DEPTH_CHANNELS = ("laser_depth", "commanded_depth", "slip")
TRACE_CHANNELS = Wrench._fields + DEPTH_CHANNELS

#: Ceiling on simulated time; the executive's tick loop fails the open step
#: with ``SimTimeExceeded`` once it is passed.
MAX_SIM_TIME = 7200.0

#: Shortest free stretch ``World.run`` computes in bulk; a shorter one runs
#: tick by tick, which costs less than setting up the arrays.
MIN_FREE_STRETCH = 32


@dataclass
class SimClock:
    dt: float
    t: float = 0.0
    ticks: int = 0

    def tick(self) -> float:
        self.ticks += 1
        self.t = self.ticks * self.dt
        return self.t


class TraceRow(NamedTuple):
    """Channels that are only ever recorded together, as traces
    ``prefix/<channel>``: one times column and their values interleaved in
    channel order, one row per sample."""

    prefix: str
    channels: tuple[str, ...]
    times: array
    data: array


class Trace:
    """One recorded channel: its row's times column (strictly increasing) and
    a read-only strided view of its own values in the row's data.

    The row cannot grow while a ``values`` view is alive, so take views once
    recording has ended (a finished run), or copy them with ``tolist()``.
    """

    def __init__(self, trace_id: str, channel: str, row: TraceRow):
        if channel not in TRACE_CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        self.id = trace_id
        self.channel = channel
        self.row = row
        self.times = row.times
        self._index = row.channels.index(channel)

    @property
    def values(self) -> memoryview:
        row = self.row
        return memoryview(row.data).toreadonly()[self._index :: len(row.channels)]

    def __len__(self):
        return len(self.times)


class TraceRecorder:
    def __init__(self):
        self.traces: dict[str, Trace] = {}

    def register_row(self, prefix: str, channels: tuple[str, ...]) -> TraceRow:
        """A new row of traces ``prefix/<channel>``."""
        row = TraceRow(prefix, tuple(channels), array("d"), array("d"))
        for channel in row.channels:
            self.traces[f"{prefix}/{channel}"] = Trace(f"{prefix}/{channel}", channel, row)
        return row

    def record(self, row: TraceRow, t: float, values):
        """Append one sample at time ``t`` to every channel of ``row``, with
        one monotonic check for them all."""
        _, _, times, data = row
        if times and t <= times[-1]:
            raise NonMonotonicTime(f"{row.prefix}/{row.channels[0]}: {t} after {times[-1]}")
        times.append(t)
        data.extend(values)

    def record_zeros(self, row: TraceRow, ticks: range, dt: float):
        """Append an all-``+0.0`` sample to ``row`` at ``k * dt`` for each
        tick count ``k`` in ``ticks``, as ``record`` on those ticks would.

        The columns grow one value at a time, as under ``record``: appending
        a stretch in one block moves the large columns more often, which
        raised peak RSS by several MB over a benchmark run.
        """
        _, _, times, data = row
        first = ticks[0] * dt
        if times and first <= times[-1]:
            raise NonMonotonicTime(f"{row.prefix}/{row.channels[0]}: {first} after {times[-1]}")
        times.extend(map(dt.__rmul__, ticks))  # ``k * dt``, as ``SimClock.tick``
        data.extend(repeat(0.0, len(row.channels) * len(ticks)))


class RandomStreams:
    """One independent generator per sensor, all derived from one seed.

    Streams are spawned in a fixed order so determinism does not depend on
    which sensor happens to be read first.
    """

    NAMES = (
        "ft.robot1",
        "ft.robot2",
        "laser.robot1",
        "laser.robot2",
        "camera.robot1",
        "camera.robot2",
        "placement",
    )

    def __init__(self, seed: int):
        self.seed = int(seed)
        children = np.random.SeedSequence(self.seed).spawn(len(self.NAMES))
        self._streams = {
            name: np.random.default_rng(child) for name, child in zip(self.NAMES, children)
        }

    def get(self, name: str) -> np.random.Generator:
        return self._streams[name]


@dataclass
class ArmRuntime:
    """Per-arm simulation state beyond the kinematic ArmState, plus the
    handles the tick uses: the platform, the arm's FT and laser noise (each
    drawn in blocks from the arm's own stream), and its trace rows (the six
    wrench channels and the three depth channels).

    ``contact_model`` is called once per tick, with no arguments, for the
    true wrench at the tool; ``MissionContext.contact`` installs it. So does
    ``MissionContext.until`` with ``watcher``, called at the end of the tick;
    ``watched`` is true once it returned true, or the error it raised.
    """

    state: ArmState
    guard_filter: GuardFilter
    platform: PlatformState
    ft_noise: NormalBlocks
    laser_noise: NormalBlocks
    wrench_row: TraceRow
    depth_row: TraceRow
    true_wrench: Wrench = ZERO_WRENCH
    reading: Wrench | None = None
    guard_fired_t: float | None = None
    contact_model: Callable[[], Wrench] | None = None
    watcher: Callable[[], bool | None] | None = None
    watched: bool | SimulationError = False
    active: bool = False
    press_force: float = 0.0  # wall-normal force driving platform slip


class World:
    """All mutable simulation state for one run.

    ``event`` is true after a tick on which a motion ended, the guard halted
    an arm, a watcher returned true or raised, or simulated time passed
    ``MAX_SIM_TIME``. ``run`` stops after such a tick, because the executive
    has to act on it, and on no other tick but the end of a wait.
    """

    def __init__(self, scenario: Scenario, seed: int):
        scenario.validate()
        self.scenario = scenario
        self.seed = int(seed)
        self.scenario_hash = scenario_hash(scenario)
        self.clock = SimClock(dt=scenario.procedure.timestep)
        self.recorder = TraceRecorder()
        self.streams = RandomStreams(seed)
        self.event = False
        # The planned free stretch: ``step`` only ticks the clock until its
        # last tick, whose ``_land`` applies the stretch (see ``run``).
        self._stretch_end = 0
        self._land: Callable[[], None] | None = None

        w = scenario.wall
        frame = wall_frame_from_angles(Point3(w.distance, w.center_y, w.center_z), w.yaw_deg, w.pitch_deg)
        holes = default_hole_pattern(scenario.part.holes, scenario.part.hole_spacing)
        self.site = Worksite(wall=Wall(frame, w), part=StructuralPart(holes))
        self._normal = frame.z_axis.as_tuple()
        self._origin = frame.origin.as_tuple()
        self._laser_ray = (-frame.z_axis).normalized()

        # One arm and platform per module. The tools have no state of their
        # own: their models read ``scenario.tools`` directly.
        window = max(1, round(scenario.sensors.guard_filter_window / self.clock.dt))
        self.arms: dict[str, ArmRuntime] = {}
        for name, n in (("robot1", "1"), ("robot2", "2")):
            arm = ArmState(name, scenario.station(f"base{n}"), scenario.station(f"home{n}"), scenario.robot)
            self.arms[name] = ArmRuntime(
                state=arm,
                guard_filter=GuardFilter(window),
                platform=PlatformState(scenario.robot),
                ft_noise=NormalBlocks(self.streams.get(f"ft.{name}"), (NOISE_BLOCK, 6)),
                laser_noise=NormalBlocks(self.streams.get(f"laser.{name}"), NOISE_BLOCK),
                wrench_row=self.recorder.register_row(name, Wrench._fields),
                depth_row=self.recorder.register_row(name, DEPTH_CHANNELS),
            )

    # -- kinematic helpers ----------------------------------------------------

    @property
    def t(self) -> float:
        return self.clock.t

    @property
    def dt(self) -> float:
        return self.clock.dt

    def arm(self, name: str) -> ArmState:
        return self.arms[name].state

    def runtime(self, name: str) -> ArmRuntime:
        return self.arms[name]

    def slip(self, arm_name: str) -> float:
        return self.arms[arm_name].platform.slip_offset

    def true_position(self, arm_name: str) -> Point3:
        """Commanded tool point pushed back by the accumulated platform slip."""
        arm = self.arm(arm_name)
        return arm.position + self.site.wall.normal.scaled(self.slip(arm_name))

    def surface_distance(self, arm_name: str) -> float:
        """True signed distance of the tool point from the wall surface.

        Contact models call this every tick, so it works on the floats of
        ``Wall.signed_distance(true_position(...))`` in the same order.
        """
        runtime = self.arms[arm_name]
        p = runtime.state
        slip = runtime.platform.slip_offset
        nx, ny, nz = self._normal
        ox, oy, oz = self._origin
        d = (p.x + nx * slip - ox) * nx + (p.y + ny * slip - oy) * ny + (p.z + nz * slip - oz) * nz
        if not math.isfinite(d):
            raise ValueError(f"{arm_name}: non-finite surface distance {d!r}")
        return d

    def laser_distance(self, arm_name: str, ray: Point3 | None = None) -> float:
        """Noisy laser range from the true tool point to the wall along ``ray``
        (default: into the wall along its normal).

        The ray origin is backed off half a metre along the ray so the
        measurement stays defined while the tool point is inside the hole;
        the constant offset cancels out of every depth computed by
        difference, which mirrors a laser mounted beside the bit.
        """
        ray = self._laser_ray if ray is None else ray.normalized()
        runtime = self.arms[arm_name]
        p = runtime.state
        slip = runtime.platform.slip_offset
        nx, ny, nz = self._normal
        origin = (
            p.x + nx * slip - ray.x * 0.5,
            p.y + ny * slip - ray.y * 0.5,
            p.z + nz * slip - ray.z * 0.5,
        )
        distance = read_laser(origin, ray, self.site, runtime.laser_noise, sigma=self.scenario.sensors.laser_sigma)
        return distance - 0.5

    def radial_offset(self, arm_name: str, hole: DrilledHole) -> float:
        """Distance of the true tool point, projected onto the wall, from the
        axis of ``hole``: ``(wall.project(true_position(...)) - hole.position)
        .cross(hole.axis).norm()`` on floats, in the same order."""
        runtime = self.arms[arm_name]
        p = runtime.state
        slip = runtime.platform.slip_offset
        nx, ny, nz = self._normal
        ox, oy, oz = self._origin
        tx, ty, tz = p.x + nx * slip, p.y + ny * slip, p.z + nz * slip
        d = (tx - ox) * nx + (ty - oy) * ny + (tz - oz) * nz
        h, a = hole.position, hole.axis
        ex, ey, ez = tx - nx * d - h.x, ty - ny * d - h.y, tz - nz * d - h.z
        cx, cy, cz = ey * a.z - ez * a.y, ez * a.x - ex * a.z, ex * a.y - ey * a.x
        return math.sqrt(cx * cx + cy * cy + cz * cz)

    # -- tick -------------------------------------------------------------------

    def step(self):
        """One tick: one pass over the arms, then the watchers.

        For each arm in turn the pass does slip, motion advance, contact
        model (none: ``ZERO_WRENCH`` and no press force), FT sample, guard and
        wrench record; no arm's work reads the other arm, because each contact
        model is a closure over its own arm.

        Slip integrates at the start of the arm's turn from the previous
        tick's press force, so the slip an executive reads after the step is
        exactly the slip the contact model saw; a zero press force adds no
        slip, so the platform is not stepped. Watchers run in arm order, the
        order the executive resumes the arms in: none past ``MAX_SIM_TIME``,
        and none from the first arm that is halted, or whose watcher raised,
        on. Sets ``event`` for this tick.

        Inside a free stretch that ``run`` planned, the tick only advances the
        clock and the ``active`` flags hold for it; its last tick applies the
        whole stretch, so the arms read as the ticks above would leave them.
        """
        clock = self.clock
        if clock.ticks < self._stretch_end:
            clock.tick()
            if clock.ticks == self._stretch_end:
                land, self._land = self._land, None
                land()
            return
        t = clock.tick()
        dt = clock.dt
        sensors = self.scenario.sensors
        record = self.recorder.record
        event = t > MAX_SIM_TIME
        for runtime in self.arms.values():
            if runtime.press_force != 0.0:
                runtime.platform.step(runtime.press_force, dt)
            arm = runtime.state
            if arm.motion is not None:
                arm.advance(dt)
                event = event or arm.motion is None
            model = runtime.contact_model
            if model is None:
                wrench, runtime.press_force = ZERO_WRENCH, 0.0
            else:
                wrench = model()
                runtime.press_force = max(wrench.fz, 0.0)
            runtime.true_wrench = wrench
            runtime.active = model is not None or arm.motion is not None
            if not runtime.active:
                runtime.reading = None
                continue
            reading = read_ft(wrench, sensors, runtime.ft_noise)
            runtime.reading = reading
            axis = overload_guard(runtime.guard_filter.push(reading), sensors)
            if axis is not None and not arm.halted:
                arm.halt(axis)
                runtime.guard_fired_t = t
                event = True
            record(runtime.wrench_row, t, wrench)
        if t <= MAX_SIM_TIME:
            for runtime in self.arms.values():
                if runtime.state.halted:
                    break
                watcher = runtime.watcher
                if watcher is None:
                    continue
                try:
                    if watcher():
                        runtime.watched = event = True
                except SimulationError as exc:
                    runtime.watched = exc
                    event = True
                    break
        self.event = event

    def run(self, horizon: float):
        """Step up to ``horizon`` ticks (``math.inf`` for no bound), stopping
        after the first event tick.

        A free stretch is computed in bulk: while no arm has a contact model,
        a watcher or a press force, and each arm is idle or on a targeted
        move, a tick has no input but the arms' own motion and FT noise, and
        the executive, suspended until ``run`` returns, cannot change that.
        The stretch ends at the horizon, an arrival, a guard trip or the tick
        past ``MAX_SIM_TIME``, and is planned ``NOISE_BLOCK`` ticks at a time;
        ``step`` is still called once per tick. Every other tick runs the
        per-tick pass.
        """
        clock = self.clock
        end = clock.ticks + horizon
        replan = clock.ticks
        while clock.ticks < end:
            if clock.ticks >= replan:
                replan = self._plan(end)
            self.step()
            if self.event:
                break

    def _plan(self, end: float) -> float:
        """Plan the free stretch that starts with the next tick, if one does,
        up to tick count ``end``; return the tick count at which to plan again.

        The arithmetic is the per-tick pass's, in the same order: the arm
        advance in ``ArmState.free_path``, FT readings ``0.0 + sigma * noise``
        from the arm's own noise rows (``ZERO_WRENCH`` and no draw when both
        sigmas are zero), the guard in ``GuardFilter.averages`` and
        ``first_overload``, and an all-zero wrench record per active tick.
        An arm's arrival tick is inactive: it reads and records nothing.
        """
        clock = self.clock
        now = clock.ticks
        runtimes = tuple(self.arms.values())
        for runtime in runtimes:
            motion = runtime.state.motion
            if runtime.contact_model is not None or runtime.watcher is not None:
                return math.inf
            if motion is not None and (motion.target is None or runtime.state.halted):
                return math.inf
        if any(runtime.press_force != 0.0 for runtime in runtimes):
            return now + 1  # the next tick still integrates slip
        sensors = self.scenario.sensors
        noisy = sensors.ft_sigma_force != 0.0 or sensors.ft_sigma_moment != 0.0
        dt = clock.dt
        left = end - now
        n = NOISE_BLOCK if left >= NOISE_BLOCK else math.ceil(left)
        moving = [runtime for runtime in runtimes if runtime.state.motion is not None]
        for runtime in moving:
            arm = runtime.state
            ticks = math.dist((arm.x, arm.y, arm.z), arm.motion.target) / (arm.motion.speed * dt)
            if ticks < n:
                n = int(ticks) + 2  # the move arrives on or before this tick
            if noisy:
                n = min(n, len(runtime.ft_noise.ahead()))
        times = np.arange(now + 1, now + n + 1) * dt
        late = np.flatnonzero(times > MAX_SIM_TIME)
        if late.size:
            n = int(late[0]) + 1
        if n < MIN_FREE_STRETCH:
            return now + n

        n, landings = self._stretch(moving, n, noisy)
        if n == 0:
            return now + 1  # an arm leaves its reach sphere on the next tick

        def land():
            t = clock.t
            event = t > MAX_SIM_TIME
            for runtime in runtimes:
                runtime.true_wrench, runtime.reading, runtime.active = ZERO_WRENCH, None, False
            for runtime, point, sampled, rows, sums, reading, axis in landings:
                arm = runtime.state
                arm.x, arm.y, arm.z, arm.motion.travelled = point
                if sampled:
                    self.recorder.record_zeros(runtime.wrench_row, range(now + 1, now + sampled + 1), dt)
                    runtime.guard_filter.extend(rows, sums)
                    if noisy:
                        runtime.ft_noise.skip(sampled)
                if sampled < n:  # the arrival tick
                    arm.motion = None
                    event = True
                    continue
                runtime.reading, runtime.active = reading, True
                if axis is not None:
                    arm.halt(axis)
                    runtime.guard_fired_t = t
                    event = True
            self.event = event

        self.event = False
        for runtime in runtimes:
            runtime.active = runtime.state.motion is not None
        self._stretch_end, self._land = now + n, land
        return now + n

    def _stretch(self, moving: list[ArmRuntime], n: int, noisy: bool):
        """Compute the next ``n`` free ticks of the ``moving`` arms; return
        the ticks until the first event (arrival, guard trip, or a tick the
        per-tick pass must take) and, per arm, what the stretch leaves: its
        point and ``travelled``, the ticks it sampled, the guard's last rows
        and sums, its last reading and the axis of a trip on the last tick.

        Only these small values outlive the call, so the stretch's last tick
        holds no arrays while it grows the trace columns.
        """
        sensors = self.scenario.sensors
        dt = self.clock.dt
        paths = []
        for runtime in moving:
            path, arrival = runtime.state.free_path(n, dt)
            n = min(n, path.shape[1] - 1, arrival or n)
            paths.append((runtime, path, arrival))
        sigmas = (sensors.ft_sigma_force,) * 3 + (sensors.ft_sigma_moment,) * 3
        guards = []
        for runtime, path, arrival in paths:
            active = n - 1 if arrival == n else n
            samples = sums = trip = None
            if active:
                if noisy:
                    samples = runtime.ft_noise.ahead()[:active] * sigmas
                    samples += 0.0  # the reading is ``0.0 + sigma * noise``
                else:
                    samples = np.zeros((active, 6))
                filtered, sums = runtime.guard_filter.averages(samples)
                trip = first_overload(filtered, sensors)
                if trip is not None:
                    n = min(n, trip[0] + 1)
            guards.append((samples, sums, trip))
        landings = []
        for (runtime, path, arrival), (samples, sums, trip) in zip(paths, guards):
            sampled = n - 1 if arrival == n else n
            rows, last_sums, reading = [], None, None
            if sampled:
                window = runtime.guard_filter.window
                rows = list(map(Wrench._make, samples[max(0, sampled - window) : sampled].tolist()))
                last_sums = tuple(sums[sampled - 1].tolist())
                reading = rows[-1] if noisy else ZERO_WRENCH
            axis = trip[1] if trip is not None and trip[0] + 1 == n else None
            landings.append((runtime, path[:, n].tolist(), sampled, rows, last_sums, reading, axis))
        return n, landings

    def record_depthset(self, arm_name: str, laser_depth: float, commanded_depth: float):
        runtime = self.arms[arm_name]
        self.recorder.record(
            runtime.depth_row, self.clock.t, (laser_depth, commanded_depth, runtime.platform.slip_offset)
        )


def run(scenario: Scenario, seed: int, mission: str):
    """Build a world, drive the requested mission to completion, and return
    ``(FixationReport, traces)``."""
    from .procedure import drive_mission

    world = World(scenario, seed)
    return drive_mission(world, mission)
