"""Fixed-timestep simulation core: clock, random streams, traces, world.

Everything that happens in a run is a function of (scenario, seed, dt): the
clock never reads wall time, every sensor draws from its own seeded stream
in blocks, and the order within a tick is fixed (each arm's slip, motion,
contact law, FT sample and guard, then the watches in arm order; see
``World._stretch``), so identical inputs give identical outputs. The tick
works on floats; a ``Point3`` is built where the executive reads one.

Each contact phase of an arm is one ``Form``, held in ``ArmRuntime.contact``
for the wait it belongs to: ``ahead``, ``stops`` and ``apply`` compute a
stretch of ticks at once, ``stops`` finds the tick on which the wait ends or
fails, and its ``watch`` (or None) ends the wait there, or raises. A motion
with no contact form is a ``Move``. The forms are the guarded feeds
whose contact law reads the true surface distance, the commanded point and
the slip (the drill's touch and drilling feed, the nut runner's approaches,
the insertion's push), the drill's spin-up (the touch law held where the
feed stopped), the phases whose wrench is a function of their own elapsed
time (the hammer, and the nut runner's fitting, run-down and pulse phases),
the slide back to the surface before the spiral search, and the search
itself, a constant press whose watch reads the radial offset at probe ends
only. A tick then depends only on the arms' own state and noise.

``World.run`` computes every tick in such a stretch with numpy, a feed's
presses as the fixed point of its slip recurrence (see
``World.feed_wrenches``). A stretch ends at the horizon, after
``NOISE_BLOCK`` ticks, or on the first tick that may be an event on either
arm (an arrival, a reach trim, a guard trip, the tick on which a wait ends
or fails, the tick past ``MAX_SIM_TIME``). It is applied as soon as it is
computed, the watches run once on the state it left, and ``World.step``
ticks the clock through it.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NonMonotonicTime, SimulationError
from .geometry import Point3
from .robot import ArmState, PlatformState
from .scenario import MAX_SIM_TIME, Scenario, scenario_hash
# No tick calls ``read_ft`` or ``overload_guard``: they are the one-sample
# references the tests compare ``World._sense`` with, and
# ``perfbench/tracing.py`` looks them up here by name.
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
    read_lasers,
)
from .worksite import DrilledHole, StructuralPart, Wall, Worksite, default_hole_pattern, wall_frame_from_angles

DEPTH_CHANNELS = ("laser_depth", "commanded_depth", "slip")
TRACE_CHANNELS = Wrench._fields + DEPTH_CHANNELS


@dataclass
class SimClock:
    dt: float
    t: float = 0.0
    ticks: int = 0

    def tick(self) -> float:
        self.ticks += 1
        self.t = self.ticks * self.dt
        return self.t


#: Rows per trace chunk. A full chunk is sealed: its values are split into
#: one column per channel, and a channel whose values are all ``+0.0`` keeps
#: no column.
TRACE_CHUNK = 4096


class TraceRow:
    """Channels that are only ever recorded together, as traces
    ``prefix/<channel>``, stored in chunks of ``TRACE_CHUNK`` rows.

    ``sealed`` holds the full chunks as ``(times, columns)``: the chunk's
    times and one ``array('d')`` per channel, or ``None`` for a channel whose
    values are all ``+0.0`` by their bits. The open chunk is the first
    ``count`` rows of ``times`` and of ``data``, which holds the values
    interleaved in channel order. Both are allocated once at full size, so
    recording moves no memory. ``last`` is the time of the last row
    (``-inf`` before the first), so the monotonic check spans chunks.
    """

    __slots__ = ("prefix", "channels", "sealed", "times", "data", "count", "last", "pack", "stride")

    def __init__(self, prefix: str, channels: tuple[str, ...]):
        packer = struct.Struct(f"{len(channels)}d")  # one row of ``data``
        self.prefix = prefix
        self.channels = channels
        self.sealed: list[tuple[array, tuple[array | None, ...]]] = []
        self.times = array("d", [0.0]) * TRACE_CHUNK
        self.data = array("d", [0.0]) * (len(channels) * TRACE_CHUNK)
        self.count = 0
        self.last = -math.inf
        self.pack, self.stride = packer.pack_into, packer.size

    def __len__(self):
        return TRACE_CHUNK * len(self.sealed) + self.count

    def chunks(self):
        """Every chunk as ``(times, columns)``, the open one last if it has rows."""
        yield from self.sealed
        if self.count:
            yield self._split()

    def seal(self):
        """Seal the full open chunk and open an empty one."""
        self.sealed.append(self._split())
        self.count = 0

    def _split(self):
        """The open chunk's rows as a sealed chunk: ``(times, columns)``."""
        count = self.count
        values = np.frombuffer(self.data)[: count * len(self.channels)].reshape(count, -1)
        return self.times[:count], _columns(values)

    def column(self, index: int | None, start: int = 0) -> array:
        """A copy of rows ``start`` on of channel ``index``'s values, or of
        the times for ``None``."""
        out = array("d")
        first, skip = divmod(start, TRACE_CHUNK)
        for times, columns in islice(self.chunks(), first, None):
            column = times if index is None else columns[index]
            if column is None:
                out.frombytes(bytes(8 * (len(times) - skip)))
            else:
                out.extend(column[skip:])
            skip = 0
        return out


def _columns(values: np.ndarray) -> tuple[array | None, ...]:
    """One ``array('d')`` per column of the ``(rows, channels)`` array
    ``values``, or None for a column whose values are all ``+0.0`` by their
    bits, so ``-0.0``, NaN and subnormals keep their column."""
    return tuple(array("d", c.tobytes()) if c.view(np.uint64).any() else None for c in values.T)


class Trace:
    """One recorded channel of a ``TraceRow``: its times (strictly
    increasing) and its values, each returned as an ``array('d')`` copy
    built from the row's chunks."""

    def __init__(self, trace_id: str, channel: str, row: TraceRow):
        if channel not in TRACE_CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        self.id = trace_id
        self.channel = channel
        self.row = row
        self.index = row.channels.index(channel)

    @property
    def times(self) -> array:
        return self.row.column(None)

    @property
    def values(self) -> array:
        return self.row.column(self.index)

    def __len__(self):
        return len(self.row)


class TraceRecorder:
    def __init__(self):
        self.traces: dict[str, Trace] = {}

    def register_row(self, prefix: str, channels: tuple[str, ...]) -> TraceRow:
        """A new row of traces ``prefix/<channel>``."""
        row = TraceRow(prefix, tuple(channels))
        for channel in row.channels:
            self.traces[f"{prefix}/{channel}"] = Trace(f"{prefix}/{channel}", channel, row)
        return row

    def record(self, row: TraceRow, t: float, values):
        """Append one sample at time ``t`` to every channel of ``row``, with
        one monotonic check for them all."""
        if t <= row.last:
            raise NonMonotonicTime(f"{row.prefix}/{row.channels[0]}: {t} after {row.last}")
        row.last = t
        n = row.count
        row.times[n] = t
        row.pack(row.data, n * row.stride, *values)
        row.count = n = n + 1
        if n == TRACE_CHUNK:
            row.seal()

    def record_rows(self, row: TraceRow, ticks: range, dt: float, values: np.ndarray | None = None):
        """Append a sample to ``row`` at ``k * dt`` for each tick count ``k``
        in ``ticks`` (a step-1 range), as ``record`` on those ticks would:
        row ``i`` of the ``(len(ticks), channels)`` array ``values``, or
        ``+0.0`` in every channel for None. The times are ``np.arange(...) *
        dt``, the same doubles as ``k * dt``: a tick count converts to float
        exactly. A whole chunk keeps no column for an all-``+0.0`` channel."""
        first = ticks[0] * dt
        if first <= row.last:
            raise NonMonotonicTime(f"{row.prefix}/{row.channels[0]}: {first} after {row.last}")
        times, data = np.frombuffer(row.times), np.frombuffer(row.data).reshape(TRACE_CHUNK, -1)
        k, stop = ticks.start, ticks.stop
        while k < stop:
            count = row.count
            n = min(TRACE_CHUNK - count, stop - k)
            np.multiply(np.arange(k, k + n), dt, out=times[count : count + n])
            data[count : count + n] = 0.0 if values is None else values[k - ticks.start : k - ticks.start + n]
            row.count = count + n
            if row.count == TRACE_CHUNK:
                row.seal()
            k += n
        row.last = (stop - 1) * dt


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

    ``contact`` is the arm's contact phase, a ``Form``, or None for no
    contact: ``MissionContext.until`` installs it for one wait and clears it
    when the wait ends, normally or by an exception. ``watched`` is true
    once its ``watch`` returned true, or the error it raised. ``active`` is
    true on a tick on which the arm holds a contact form or a motion; no
    part of the simulation reads it, and perfbench counts idle and
    dual-active ticks from it.
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
    contact: Form | None = None
    watched: bool | SimulationError = False
    active: bool = False
    press_force: float = 0.0  # wall-normal force driving platform slip


class Form:
    """One phase of an arm in a stretch (see ``World._stretch``).

    ``ahead(m)`` returns ``(ticks, rows)``: how many of the next ``m`` ticks
    it computed, through the first on which its motion ends or up to one it
    cannot compute (a point or surface distance that is not finite), and
    their true-wrench rows (None: zero). The pure ``stops(slips, readings)``
    returns how many come before the first on which ``watch`` does end the
    wait or raise, from the slip and FT reading after each (``readings``
    is None for a move that reads no sample); a form may return fewer, to
    end a stretch on a tick on which its watch does neither. ``apply(n)``
    applies the first ``n``. A contact phase, held in
    ``ArmRuntime.contact``, also gives ``watch``: None, or called on the
    state the last tick of a stretch left, to end the wait by returning
    true, or to raise. The defaults suit a form with no watch and no state
    to apply.
    """

    watch = None

    def stops(self, slips: np.ndarray, readings: np.ndarray) -> int:
        return len(slips)

    def apply(self, n: int):
        pass


class Move(Form):
    """The form of a motion with no contact form: a zero wrench, no watch,
    and its arrival or a reach trim as events. ``procedure.Sliding`` and
    ``procedure.Feed`` extend it for a motion under a contact law."""

    def __init__(self, state: ArmState, dt: float):
        self.state, self.dt = state, dt
        self.path = None  # what ``ahead`` computed, for ``apply``
        self.ends = math.inf  # the tick of the stretch that ends the motion

    def ahead(self, m: int):
        self.path, ended = self.state.free_path(m, self.dt)
        k = self.path.shape[1] - 1
        self.ends = k if ended else math.inf
        return k, None

    def apply(self, n: int):
        state = self.state
        state.x, state.y, state.z, travelled = self.path[:, n].tolist()
        if state.motion is not None:
            state.motion.travelled = travelled
        if n == self.ends:
            state.motion = None


class World:
    """All mutable simulation state for one run.

    ``event`` is true after a tick on which a motion ended, the guard halted
    an arm, a watch returned true or raised, or simulated time passed
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
        # The tick count at which the applied stretch ends, each arm's
        # ``active`` flag on its last tick, and the depth rows of that tick
        # held back for the watches (see ``run``).
        self._stretch_end, self._last_active, self._due = 0, [], {}

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
        """True signed distance of the tool point from the wall surface;
        raises ValueError when it is not finite."""
        runtime = self.arms[arm_name]
        p = runtime.state
        d = self.surface_at(p.x, p.y, p.z, runtime.platform.slip_offset)
        if not math.isfinite(d):
            raise ValueError(f"{arm_name}: non-finite surface distance {d!r}")
        return d

    def surface_at(self, x: float, y: float, z: float, slip: float) -> float:
        """Signed distance from the wall surface of the commanded point
        ``(x, y, z)`` pushed back by ``slip``. Contact models read it every
        tick, so it works on the floats of
        ``Wall.signed_distance(true_position(...))`` in the same order; given
        arrays of them, it gives an array of distances."""
        nx, ny, nz = self._normal
        ox, oy, oz = self._origin
        return (x + nx * slip - ox) * nx + (y + ny * slip - oy) * ny + (z + nz * slip - oz) * nz

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
        return math.sqrt(self._radial_squared(hole, p.x, p.y, p.z, runtime.platform.slip_offset))

    def radial_offsets(self, hole: DrilledHole, points, slips: np.ndarray) -> np.ndarray:
        """``radial_offset`` on ticks of a stretch, from the commanded points
        ``points`` (three arrays of x, y and z) at the platform slips
        ``slips`` of those ticks."""
        return np.sqrt(self._radial_squared(hole, *points, slips))

    def _radial_squared(self, hole: DrilledHole, x, y, z, slip):
        """The square of the radial offset from the axis of ``hole`` of the
        commanded point ``(x, y, z)`` pushed back by ``slip``: floats, or
        arrays of them. Both square roots are correctly rounded, so the float
        and the array forms give the same bits."""
        nx, ny, nz = self._normal
        ox, oy, oz = self._origin
        tx, ty, tz = x + nx * slip, y + ny * slip, z + nz * slip
        d = (tx - ox) * nx + (ty - oy) * ny + (tz - oz) * nz
        h, a = hole.position, hole.axis
        ex, ey, ez = tx - nx * d - h.x, ty - ny * d - h.y, tz - nz * d - h.z
        cx, cy, cz = ey * a.z - ez * a.y, ez * a.x - ex * a.z, ex * a.y - ey * a.x
        return cx * cx + cy * cy + cz * cz

    # -- tick -------------------------------------------------------------------

    def step(self):
        """One tick of the clock through the stretch ``run`` applied. On the
        stretch's last tick it sets each arm's ``active`` flag to whether the
        arm still held a contact form or a motion after that tick's motion,
        so an arm whose move arrives is idle on it."""
        clock = self.clock
        clock.tick()
        if clock.ticks == self._stretch_end:
            for runtime, active in zip(self.arms.values(), self._last_active):
                runtime.active = active

    def run(self, horizon: float):
        """Tick up to ``horizon`` ticks (``math.inf`` for no bound), stopping
        after the first event tick.

        Every tick is computed in a stretch (see ``_stretch``), in bulk, and
        applied when it is planned, because in it a tick has no input but
        the arms' own state and noise, and the executive, suspended until
        ``run`` returns, can neither change that nor read the world before
        the stretch ends. ``step`` then ticks the clock once per tick of the
        stretch, and the watches run once, on the state it left (see
        ``_watch``). Like the float arithmetic it follows, a stretch
        overflows to ``inf`` and ``nan`` without a warning.
        """
        clock = self.clock
        end = clock.ticks + horizon
        with np.errstate(over="ignore", invalid="ignore"):
            while clock.ticks < end:
                self._stretch(end)
                while clock.ticks < self._stretch_end:
                    self.step()
                self._watch()
                if self.event:
                    break

    def _stretch(self, end: float):
        """Compute and apply the stretch that starts with the next tick, up
        to tick count ``end`` and ``NOISE_BLOCK`` ticks at most, and set
        ``_stretch_end`` to the tick count at which it ends.

        Each active arm takes part through its form: its contact form, or a
        ``Move`` for a motion with no contact form. A targeted motion's form
        computes first, so that its arrival bounds what the other forms
        compute. Each tick of an arm takes, in this order, the slip from the
        press force of the tick before (``PlatformState.slips``), the motion
        and true wrench (the form's ``ahead``), the FT reading and the guard
        (``_sense``). An arm with no contact form presses with no force, so
        a press force left from the tick before slips it on the first tick
        only; an arm whose motion ends on a tick and that holds no contact
        form takes no FT reading on it. No arm's tick reads the other arm.

        A stretch runs through the first tick that may be an event on either
        arm, and every arm applies it: an arrival or a reach trim, a guard
        trip, a tick on which a watch ends its wait or raises (the form's
        ``stops``), or the tick past ``MAX_SIM_TIME``. A guard trip halts
        its arm. ``event`` is set for an arrival, a trim, a halt or the tick
        past the ceiling; ``_watch`` adds the watches' events.
        """
        clock = self.clock
        now, dt = clock.ticks, clock.dt
        runtimes = tuple(self.arms.values())
        forms = [r.contact or (Move(r.state, dt) if r.state.motion else None) for r in runtimes]
        n = NOISE_BLOCK if end - now >= NOISE_BLOCK else math.ceil(end - now)
        if (now + n) * dt > MAX_SIM_TIME:  # ``k * dt`` grows with ``k``, so no tick before is late
            n = int(np.flatnonzero(np.arange(now + 1, now + n + 1) * dt > MAX_SIM_TIME)[0]) + 1
        wrenches = [None] * len(forms)  # each form's true-wrench rows; None: all zero
        targeted = [r.state.motion is not None and r.state.motion.target is not None for r in runtimes]
        for i in sorted(range(len(forms)), key=targeted.__getitem__, reverse=True):
            if forms[i] is not None:
                n, wrenches[i] = forms[i].ahead(n)
        sensors = self.scenario.sensors
        noisy = sensors.ft_sigma_force != 0.0 or sensors.ft_sigma_moment != 0.0
        counts, sensed, slips = [], [], []  # per arm: ticks sensed, ``_sense``'s outcome, slips or None
        for runtime, form, wrench in zip(runtimes, forms, wrenches):
            count = 0 if form is None else n - (runtime.contact is None and form.ends == n)
            counts.append(count)
            sensed.append(self._sense(runtime, count, noisy, wrench) if count else (None, None, None))
            if form is None and runtime.press_force == 0.0:
                slips.append(None)
                continue
            presses = np.zeros(n)  # the press force that drives each tick's slip
            presses[0] = runtime.press_force
            if wrench is not None:
                presses[1:] = wrench[: n - 1, 2]
            slips.append(runtime.platform.slips(presses, dt))
        for runtime, (_, _, trip) in zip(runtimes, sensed):
            if trip is not None and not runtime.state.halted:
                n = min(n, trip[0] + 1)
        for form, (readings, _, _), slip in zip(forms, sensed, slips):
            if form is not None:
                n = min(n, form.stops(slip[:n], None if readings is None else readings[:n]) + 1)
        self._stretch_end, self._due, self._last_active = now + n, {}, []
        t = (now + n) * dt
        event = t > MAX_SIM_TIME
        for runtime, form, count, (readings, sums, trip), slip, wrench in zip(
            runtimes, forms, counts, sensed, slips, wrenches
        ):
            state = runtime.state
            runtime.true_wrench, runtime.reading, runtime.active = ZERO_WRENCH, None, form is not None
            if form is not None:
                moving = state.motion is not None
                form.apply(n)
                event = event or (moving and state.motion is None)
            count = min(n, count)
            if count:
                guard = runtime.guard_filter
                pushed = list(map(Wrench._make, readings[max(0, count - guard.window) : count].tolist()))
                guard.extend(pushed, tuple(sums[count - 1].tolist()))
                if noisy:
                    runtime.ft_noise.skip(count)
                self.recorder.record_rows(runtime.wrench_row, range(now + 1, now + count + 1), dt, wrench)
                if count == n:
                    runtime.reading = pushed[-1]
            if slip is not None:
                runtime.platform.slip_offset = float(slip[n - 1])
                runtime.press_force = 0.0
            if runtime.contact is not None:
                runtime.true_wrench = last = Wrench._make(wrench[n - 1].tolist())
                runtime.press_force = max(last.fz, 0.0)
            self._last_active.append(runtime.contact is not None or state.motion is not None)
        for runtime, (_, _, trip) in zip(runtimes, sensed):
            if trip is not None and trip[0] == n - 1 and not runtime.state.halted:
                runtime.state.halt(trip[1])
                runtime.guard_fired_t = t
                event = True
        self.event = event

    def _watch(self):
        """Run the contact forms' watches on the state the stretch left, in
        arm order, the order the executive resumes the arms in: none past
        ``MAX_SIM_TIME``, and none from the first arm that is halted, or
        whose watch raised, on. Before an arm's watch, the depth row of the
        stretch's last tick that ``record_depths`` held back is recorded, or
        the laser read that failed on that tick raises its error, as a watch
        that read the laser would. A watch that returns true or raises sets
        ``event``."""
        if self.clock.t > MAX_SIM_TIME:
            return
        for name, runtime in self.arms.items():
            if runtime.state.halted:
                break
            try:
                if name in self._due:
                    row = self._due[name]
                    if row is None:
                        self.laser_distance(name)  # raises the failed read's error
                    ticks = self.clock.ticks
                    self.recorder.record_rows(runtime.depth_row, range(ticks, ticks + 1), self.clock.dt, row)
                watch = None if runtime.contact is None else runtime.contact.watch
                if watch is not None and watch():
                    runtime.watched = self.event = True
            except SimulationError as exc:
                runtime.watched = exc
                self.event = True
                break

    def _sense(self, runtime: ArmRuntime, count: int, noisy: bool, wrench: np.ndarray | None = None):
        """The FT readings of the arm's next ``count`` ticks, as ``read_ft``
        gives them from the true-wrench rows ``wrench`` (None:
        ``ZERO_WRENCH`` on every tick), with the guard's sums after each
        push and its first trip: ``(readings, sums, trip)``.

        The noise is ``ft_noise.ahead(count)``, which draws as many blocks
        as it needs, and the sums come from ``GuardFilter.averages``; nothing
        is pushed or handed out until ``_stretch`` applies the ticks it keeps.
        """
        sensors = self.scenario.sensors
        wrench = None if wrench is None else wrench[:count]
        if noisy:
            sigmas = (sensors.ft_sigma_force,) * 3 + (sensors.ft_sigma_moment,) * 3
            readings = runtime.ft_noise.ahead(count) * sigmas
            readings += 0.0 if wrench is None else wrench  # the reading is ``true + sigma * noise``
        else:
            readings = np.zeros((count, 6)) if wrench is None else wrench
        filtered, sums = runtime.guard_filter.averages(readings)
        return readings, sums, first_overload(filtered, sensors)

    def feed_wrenches(self, arm_name: str, points: np.ndarray, law) -> np.ndarray:
        """The true wrench of each tick of a stretch in which the arm's
        commanded points are ``points`` (a ``(3, m)`` array of x, y and z)
        and its contact model is ``law(distances, x, y, z, slips)`` of the
        surface distances, the commanded points and the slips, which gives
        arrays of the wrench's fz and mx: ``(k, 6)`` rows. The rows stop
        before the first tick whose distance is not finite, and if that is
        the first, it raises ValueError, as ``surface_distance`` does.

        A tick's slip comes from the press force of the tick before
        (``max(fz, 0)``), so the presses solve a recurrence. They are found
        as its fixed point: guess them (the arm's ``press_force``, then
        zeros), take the slips (``PlatformState.slips``), distances and law
        on arrays, press with the law's fz, and repeat until the presses
        repeat bit for bit. Tick ``j`` is exact after ``j + 1`` passes
        whatever the guess, so the solve ends, and the fixed point is the
        one the ticks in turn give."""
        runtime = self.arms[arm_name]
        presses = np.zeros(points.shape[1])  # the press force that drives each tick's slip
        presses[0] = runtime.press_force
        while True:
            slips = runtime.platform.slips(presses, self.clock.dt)
            distances = self.surface_at(*points, slips)
            finite = np.isfinite(distances)
            k = len(finite) if finite.all() else int(finite.argmin())
            if k == 0:
                raise ValueError(f"{arm_name}: non-finite surface distance {float(distances[0])!r}")
            fz, mx = law(distances[:k], *points[:, :k], slips[:k])
            pressed = presses.copy()
            pressed[1 : k + 1] = np.where(fz > 0.0, fz, 0.0)[: len(presses) - 1]
            if pressed.tobytes() == presses.tobytes():
                break
            presses = pressed
        wrench = np.zeros((k, 6))
        wrench[:, 2], wrench[:, 3] = fz, mx
        return wrench

    def laser_distances(self, arm_name: str, points, slips: np.ndarray) -> np.ndarray:
        """``laser_distance(arm_name)`` on each tick of a stretch, from the
        commanded points ``points`` (three arrays of x, y and z) at the
        platform slips ``slips``, up to the first read that would raise.
        ``record_depths`` hands out the noise of the reads it keeps."""
        ray = self._laser_ray
        runtime = self.arms[arm_name]
        nx, ny, nz = self._normal
        x, y, z = points
        origins = (x + nx * slips - ray.x * 0.5, y + ny * slips - ray.y * 0.5, z + nz * slips - ray.z * 0.5)
        distances = read_lasers(origins, ray, self.site, runtime.laser_noise, self.scenario.sensors.laser_sigma)
        distances -= 0.5
        return distances

    def record_depths(self, arm_name: str, n: int, laser_depths, commanded_depths, slips, lasered: bool = True):
        """Record the depth rows of the ``n`` ticks of the stretch being
        applied, from arrays of the laser depth, the commanded depth and the
        slip after each; the laser depths stop short of tick ``n`` if its
        laser read failed. The row of the last tick is held back for
        ``_watch``, which records it if the arm's watch runs on that tick. If
        ``lasered``, ``laser_distances`` read one laser range per tick, and
        the noise of the reads kept is handed out. No watch runs from a
        halted arm on, so no row is recorded there."""
        runtime = self.arms[arm_name]
        for other in self.arms.values():
            if other.state.halted:
                return
            if other is runtime:
                break
        kept = min(n, len(laser_depths))
        if lasered and self.scenario.sensors.laser_sigma > 0.0:
            runtime.laser_noise.skip(kept)
        rows = np.column_stack((laser_depths[:kept], commanded_depths[:kept], slips[:kept]))
        self._due[arm_name] = rows[n - 1 :] if kept == n else None
        if n > 1:
            ticks = self.clock.ticks
            self.recorder.record_rows(runtime.depth_row, range(ticks + 1, ticks + n), self.clock.dt, rows[: n - 1])


def run(scenario: Scenario, seed: int, mission: str):
    """Build a world, drive the requested mission to completion, and return
    ``(FixationReport, traces)``."""
    from .procedure import drive_mission

    world = World(scenario, seed)
    return drive_mission(world, mission)
