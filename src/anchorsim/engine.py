"""Fixed-timestep simulation core: clock, random streams, traces, world.

Everything that happens in a run is a function of (scenario, seed, dt): the
clock never reads wall time, every sensor draws from its own seeded stream
in blocks, and the per-tick order is fixed (one pass over the arms, then the
watchers; see ``World.step``), so identical inputs give identical outputs.
The tick works on floats; a ``Point3`` is built where the executive reads one.

Each contact phase of an arm is one ``Form``, held in ``ArmRuntime.contact``
for the wait it belongs to: its ``model`` gives the true wrench of a tick,
its ``watch`` (or None) may end the wait, and ``ahead``, ``stops`` and
``apply`` compute a stretch of ticks at once. A stretch of ticks is computed
in bulk when each arm is idle, on a targeted move (a ``Move``), or holds a
form with an ``ahead``: a guarded feed whose contact law reads the true
surface distance, the commanded point and the slip (the drill's touch and
drilling feed, the nut runner's approaches, the insertion's push), the
drill's spin-up (the touch law held where the feed stopped), a phase whose
wrench is a function of its own elapsed time (the hammer, and the nut
runner's fitting, run-down and pulse phases), whose per-tick ``model`` is
its ``ahead`` on one tick, or the spiral search, a constant press whose
watch reads the radial offset at probe ends only. Both arms may hold one.
Its ticks then depend only on the arms' own state and noise. ``World.run``
computes such a stretch with numpy, and a feed's slip, surface distance,
law and press force in one float loop, with the same operations in the
same order, and applies it as soon as it is planned, so the arms hold the
bytes the per-tick pass would leave; ``World.step`` then only ticks the
clock through it. A stretch ends at the horizon, after
``NOISE_BLOCK`` ticks, or before the first tick that may be an event on
either arm (an arrival, a reach trim, a guard trip, a watch ending its wait
or raising, a non-finite distance, the tick past ``MAX_SIM_TIME``), and the
per-tick pass takes that tick. Only ``procedure.Sliding``, the targeted
move back to the surface before the spiral search, has no ``ahead`` and
runs per tick.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable

import numpy as np

from .errors import NonMonotonicTime, SimulationError
from .geometry import Point3
from .robot import ArmState, PlatformState
from .scenario import MAX_SIM_TIME, Scenario, scenario_hash
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
        self.times = array("d", bytes(8 * TRACE_CHUNK))
        self.data = array("d", bytes(packer.size * TRACE_CHUNK))
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
        width = len(row.channels)
        k, stop = ticks.start, ticks.stop
        while k < stop:
            count = row.count
            n = min(TRACE_CHUNK - count, stop - k)
            times = array("d", (np.arange(k, k + n) * dt).tobytes())
            block = None if values is None else values[k - ticks.start : k - ticks.start + n]
            row.times[count : count + n] = times
            data = bytes(8 * width * n) if block is None else block.tobytes()
            row.data[count * width : (count + n) * width] = array("d", data)
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
    once its ``watch`` returned true, or the error it raised. Every form
    but the move back to the surface before the search,
    ``procedure.Sliding``, which runs only per tick, also computes its ticks
    in a stretch.
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
    """One phase of an arm, per tick and in a stretch (see ``World._stretch``).

    A contact phase, held in ``ArmRuntime.contact``, gives ``model()``,
    called once per tick for the true wrench at the tool, and ``watch``:
    None, or called at the end of the tick to end the wait by returning
    true, or to raise.

    In a stretch, ``ahead(m)`` returns ``(ticks, rows)``, how many of the
    next ``m`` ticks it computed, up to one that may be an event, and their
    true-wrench rows (None: zero); the pure ``stops(slips, readings)``
    returns how many come before the first on which ``watch`` may end the
    wait or raise, from the slip and FT reading after each; ``apply(n)``
    applies the first ``n`` as the per-tick pass would. A form whose
    ``ahead`` is None runs only per tick: the move back to the surface
    before the spiral search. A timed phase (``procedure.Timed``) states its
    law once, in ``ahead``: its ``model`` is a stretch of one tick. The
    defaults suit a form with no watch, whose stretch the horizon ends, and
    no state to apply.
    """

    watch = None
    ahead = None

    def stops(self, slips: np.ndarray, readings: np.ndarray) -> int:
        return len(slips)

    def apply(self, n: int):
        pass


class Move(Form):
    """The form in a stretch of a motion with no contact form: a zero
    wrench, no watch, and its arrival or a reach trim as events."""

    def __init__(self, state: ArmState, dt: float):
        self.state, self.dt = state, dt
        self.path = None  # what ``ahead`` computed, for ``apply``

    def ahead(self, m: int):
        self.path = self.state.free_path(m, self.dt)
        return self.path.shape[1] - 1, None

    def apply(self, n: int):
        state = self.state
        state.x, state.y, state.z, state.motion.travelled = self.path[:, n].tolist()


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
        # The tick count at which the applied stretch ends: ``step`` only
        # ticks the clock up to it (see ``run``).
        self._stretch_end = 0

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
        return self.radial_at(hole, p.x, p.y, p.z, runtime.platform.slip_offset)

    def radial_at(self, hole: DrilledHole, x: float, y: float, z: float, slip: float) -> float:
        """``radial_offset`` of the commanded point ``(x, y, z)`` pushed back
        by ``slip``."""
        return math.sqrt(self._radial_squared(hole, x, y, z, slip))

    def radial_offsets(self, hole: DrilledHole, points, slips: np.ndarray) -> np.ndarray:
        """``radial_offset`` on ticks of a stretch, from the commanded points
        ``points`` (three arrays of x, y and z) at the platform slips
        ``slips`` of those ticks. Like the float form, it overflows to
        ``inf`` without a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
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
        """One tick: one pass over the arms, then the watches.

        For each arm in turn the pass does slip, motion advance, contact
        model (no contact: ``ZERO_WRENCH`` and no press force), FT sample,
        guard and wrench record; no arm's work reads the other arm, because
        each contact form holds its own arm.

        Slip integrates at the start of the arm's turn from the previous
        tick's press force, so the slip an executive reads after the step is
        exactly the slip the contact model saw; a zero press force adds no
        slip, so the platform is not stepped. The contact forms' watches run
        in arm order, the order the executive resumes the arms in: none past
        ``MAX_SIM_TIME``, and none from the first arm that is halted, or whose
        watch raised, on. Sets ``event`` for this tick.

        Inside a stretch, which ``run`` applied when it planned it, the tick
        only advances the clock, and the ``active`` flags hold for it. A
        stretch holds no event tick: the tick after it that may be one runs
        the pass above.
        """
        clock = self.clock
        if clock.ticks < self._stretch_end:
            clock.tick()
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
            contact = runtime.contact
            if contact is None:
                wrench, runtime.press_force = ZERO_WRENCH, 0.0
            else:
                wrench = contact.model()
                runtime.press_force = max(wrench.fz, 0.0)
            runtime.true_wrench = wrench
            runtime.active = contact is not None or arm.motion is not None
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
                contact = runtime.contact
                watch = None if contact is None else contact.watch
                if watch is None:
                    continue
                try:
                    if watch():
                        runtime.watched = event = True
                except SimulationError as exc:
                    runtime.watched = exc
                    event = True
                    break
        self.event = event

    def run(self, horizon: float):
        """Step up to ``horizon`` ticks (``math.inf`` for no bound), stopping
        after the first event tick.

        A stretch of ticks is computed in bulk and applied when it is
        planned, because in it a tick has no input but the arms' own state
        and noise, and the executive, suspended until ``run`` returns, can
        neither change that nor read the world before the stretch ends. In a
        stretch each arm is idle, on a targeted move, or holds a contact form
        with an ``ahead`` (a guarded feed, the insertion's push among them,
        the drill's spin-up, the hammer, the nut runner's fitting, run-down
        or pulse phase, or the spiral search), and only an arm that holds one
        has a press force. A stretch ends only at the horizon, after
        ``NOISE_BLOCK`` ticks, or before the first tick that may be an event
        on either arm: an arrival, a reach trim, a guard trip, a watch ending
        its wait or raising (a laser read that fails, a feed past its travel
        limit, a push tip that enters the hole and a probe end that engages
        or ends the spiral included), a non-finite
        surface distance, or the tick past ``MAX_SIM_TIME``. The per-tick
        pass takes that tick.

        ``step`` is still called once per tick; in a stretch it only ticks
        the clock. Every other tick runs the per-tick pass.
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
        """Plan and apply the stretch that starts with the next tick, if one
        does, up to tick count ``end`` and ``NOISE_BLOCK`` ticks at most;
        return the tick count at which to plan again.

        Each active arm takes part through its form: a ``Move`` for a
        motion with no contact form, or its contact form, which may advance
        a feed, a motion with no target. The moves come first, so
        that an arrival bounds what the other forms compute. A stretch stops
        before the first tick that may be an event, and the per-tick pass
        takes that tick without planning again.
        """
        clock = self.clock
        now = clock.ticks
        runtimes = tuple(self.arms.values())
        forms = []  # ``(runtime, form)`` for each active arm
        for runtime in runtimes:
            motion, contact = runtime.state.motion, runtime.contact
            if contact is not None:
                if contact.ahead is None:
                    return math.inf
                if motion is not None and motion.target is not None:
                    return math.inf
                forms.append((runtime, contact))
            elif motion is not None:
                forms.insert(0, (runtime, Move(runtime.state, clock.dt)))
        if any(runtime.press_force != 0.0 for runtime in runtimes if runtime.contact is None):
            return now + 1  # the next tick still integrates slip
        if any(r.state.halted for r in runtimes) and any(r.contact and r.contact.watch for r in runtimes):
            return math.inf  # the watches stop at a halted arm
        sensors = self.scenario.sensors
        noisy = sensors.ft_sigma_force != 0.0 or sensors.ft_sigma_moment != 0.0
        planned = n = NOISE_BLOCK if end - now >= NOISE_BLOCK else math.ceil(end - now)
        late = np.flatnonzero(np.arange(now + 1, now + n + 1) * clock.dt > MAX_SIM_TIME)
        if late.size:
            n = int(late[0])
        n = self._stretch(forms, n, noisy)
        return now + n + (n < planned)  # a stretch cut short stops before a tick that may be an event

    def _stretch(self, forms: list, n: int, noisy: bool) -> int:
        """Compute the next ``n`` ticks of each ``(runtime, form)`` pair in
        ``forms``, or fewer: those before the first tick that may be an
        event on any arm. The arithmetic is the per-tick pass's, in the same
        order: the motion and model in each form's ``ahead``, the slip in
        ``PlatformState.slips``, the FT readings and the guard in ``_sense``,
        the watch in ``stops``. Every form then applies the shared count,
        which leaves the arms as the per-tick pass would after the last
        tick, with the wrench rows recorded; ``step`` then only ticks the
        clock through them. Return how many.
        """
        clock = self.clock
        now, dt = clock.ticks, clock.dt
        wrenches = []  # each form's true-wrench rows; None: all zero
        for _, form in forms:
            n, wrench = form.ahead(n)
            wrenches.append(wrench)
        if n == 0:
            return 0
        wrenches = [None if wrench is None else wrench[:n] for wrench in wrenches]
        sensed, slips = [], []
        for (runtime, _), wrench in zip(forms, wrenches):
            sensed.append(self._sense(runtime, n, noisy, wrench))
            presses = np.zeros(n)  # the press force that drives each tick's slip
            presses[0] = runtime.press_force
            if wrench is not None:
                presses[1:] = wrench[:-1, 2]
            slips.append(runtime.platform.slips(presses, dt))
        for _, _, trip in sensed:
            if trip is not None:
                n = min(n, trip[0])
        for (_, form), (readings, _, _), slip in zip(forms, sensed, slips):
            n = min(n, form.stops(slip[:n], readings[:n]))
        if n == 0:
            return 0
        for runtime in self.arms.values():
            runtime.true_wrench, runtime.reading, runtime.active = ZERO_WRENCH, None, False
        for (runtime, form), (readings, sums, _), slip, wrench in zip(forms, sensed, slips, wrenches):
            form.apply(n)
            guard = runtime.guard_filter
            pushed = list(map(Wrench._make, readings[max(0, n - guard.window) : n].tolist()))
            guard.extend(pushed, tuple(sums[n - 1].tolist()))
            if noisy:
                runtime.ft_noise.skip(n)
            self.recorder.record_rows(runtime.wrench_row, range(now + 1, now + n + 1), dt, wrench)
            runtime.reading, runtime.active = pushed[-1], True
            runtime.platform.slip_offset = float(slip[n - 1])
            if wrench is not None:
                runtime.true_wrench = last = Wrench._make(wrench[n - 1].tolist())
                runtime.press_force = max(last.fz, 0.0)
        self.event = False
        self._stretch_end = now + n
        return n

    def _sense(self, runtime: ArmRuntime, count: int, noisy: bool, wrench: np.ndarray | None = None):
        """The FT readings of the arm's next ``count`` ticks, as ``read_ft``
        gives them from the ``(count, 6)`` true-wrench rows ``wrench``
        (None: ``ZERO_WRENCH`` on every tick), with the guard's sums after
        each push and its first trip: ``(readings, sums, trip)``.

        The noise is ``ft_noise.ahead(count)``, which draws as many blocks
        as it needs, and the sums come from ``GuardFilter.averages``; nothing
        is pushed or handed out until ``_stretch`` applies the ticks it keeps.
        """
        sensors = self.scenario.sensors
        if noisy:
            sigmas = (sensors.ft_sigma_force,) * 3 + (sensors.ft_sigma_moment,) * 3
            readings = runtime.ft_noise.ahead(count) * sigmas
            readings += 0.0 if wrench is None else wrench  # the reading is ``true + sigma * noise``
        else:
            readings = np.zeros((count, 6)) if wrench is None else wrench
        filtered, sums = runtime.guard_filter.averages(readings)
        return readings, sums, first_overload(filtered, sensors)

    def feed_wrenches(self, arm_name: str, points, law: Callable[..., tuple[float, float]]) -> np.ndarray:
        """The true wrench of each tick of a stretch in which the arm's
        commanded points are ``points`` (three lists of x, y and z) and its
        contact model is ``law(distance, x, y, z, slip)`` of the surface
        distance, the commanded point and the slip, which gives the wrench's
        ``(fz, mx)``: ``(k, 6)`` rows. One float loop does what the per-tick
        pass does in turn, slip from the previous press force, surface
        distance, law and press force; it stops before the first tick whose
        distance is not finite, on which ``surface_distance`` raises."""
        runtime = self.arms[arm_name]
        platform = replace(runtime.platform)  # a copy to step
        press, dt, surface = runtime.press_force, self.clock.dt, self.surface_at
        rows = []
        for x, y, z in zip(*points):
            if press != 0.0:
                platform.step(press, dt)
            slip = platform.slip_offset
            d = surface(x, y, z, slip)
            if not math.isfinite(d):
                break
            fz, mx = law(d, x, y, z, slip)
            rows.append((fz, mx))
            press = max(fz, 0.0)
        wrench = np.zeros((len(rows), 6))
        if rows:
            wrench[:, 2:4] = rows
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

    def record_depths(self, arm_name: str, laser_depths, commanded_depths, slips, lasered: bool = True):
        """``record_depthset`` on each of the next ``len(slips)`` ticks, from
        arrays of the laser depth, the commanded depth and the slip. If
        ``lasered``, ``laser_distances`` read one laser range per tick, and
        their laser noise is handed out."""
        runtime = self.arms[arm_name]
        n, ticks = len(slips), self.clock.ticks
        if lasered and self.scenario.sensors.laser_sigma > 0.0:
            runtime.laser_noise.skip(n)
        rows = np.column_stack((laser_depths, commanded_depths, slips))
        self.recorder.record_rows(runtime.depth_row, range(ticks + 1, ticks + n + 1), self.clock.dt, rows)

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
