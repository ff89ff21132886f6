"""Mission executive: the ten-step fixation procedure and its sub-protocols.

Steps are generators that tick through ``MissionContext.until``, which yields
the ticks left of a wait, or ``math.inf``, and holds the wait's contact phase,
an ``engine.Form``. A step's check is stated once, in the form's ``stops``
(see ``Ending``); its ``watch``, which ``World.run`` runs on the state each
stretch of ticks leaves, ends the wait on the outcome ``stops`` found.
``World.run`` stops after an event tick (a motion ended, the guard halted an
arm, a watch returned true or raised, or simulated time ran out), so a step
resumes only on an event or at the end of a wait. The dual-arm scheduler in
``mission_full`` resumes the per-arm pipelines in fixed arm order. A failed
step ends the run with a partial report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .engine import MAX_SIM_TIME, Form, Move, World
from .errors import (
    DetectionMissing,
    HaltedByGuard,
    SearchTimeout,
    SimTimeExceeded,
    SimulationError,
    SocketFitTimeout,
    StepFailed,
    WrongPose,
)
from .geometry import Frame, Point3, angle_between, estimate_wall_frame
from .robot import ToolId, attach_tool, detach_tool
from .sensors import DetectionKind, camera_detect
from .tools import BOTTOM_CONTACT_BAND, drill_reaction_moment, drill_thrust, hammer_blow, nutrunner_pulse
from .worksite import (
    MAX_HOLE_DEPTH,
    AnchorBolt,
    AnchorState,
    DrilledHole,
    PartState,
    anchor_engagement,
    engaged,
)


class FixationStep(Enum):
    ESTIMATE_ORIENTATION = "estimate_orientation"
    PICK_PLACE_PART = "pick_place_part"
    DETECT_PART_HOLE = "detect_part_hole"
    DRILL_HOLE = "drill_hole"
    DETECT_WALL_HOLE = "detect_wall_hole"
    PICK_ANCHOR = "pick_anchor"
    INSERT_ANCHOR = "insert_anchor"
    HAMMER_ANCHOR = "hammer_anchor"
    TIGHTEN_NUT = "tighten_nut"
    RELEASE_REPEAT = "release_repeat"


@dataclass
class StepRecord:
    step: FixationStep
    point_index: int
    arm: str
    t_start: float
    t_end: float = 0.0
    status: str = "running"
    error: str | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        return {
            "step": self.step.value,
            "point": self.point_index,
            "arm": self.arm,
            "t_start": round(self.t_start, 6),
            "t_end": round(self.t_end, 6),
            "duration": round(self.duration, 6),
            "status": self.status,
            "error": self.error,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Point3):
        return [value.x, value.y, value.z]
    if isinstance(value, float):
        return round(value, 9)
    return value


@dataclass
class FixationReport:
    steps: list[StepRecord]
    total_duration: float
    traces: list[str]
    seed: int
    scenario_hash: str
    success: bool
    failure: str | None = None

    def find(self, step: FixationStep, point_index: int = 0) -> StepRecord:
        for r in self.steps:
            if r.step is step and r.point_index == point_index:
                return r
        raise KeyError(f"no record of {step} for point {point_index}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "scenario_hash": self.scenario_hash,
            "success": self.success,
            "failure": self.failure,
            "total_duration": round(self.total_duration, 6),
            "steps": [r.to_dict() for r in self.steps],
            "traces": sorted(self.traces),
        }


# --- spiral search geometry ----------------------------------------------------


def spiral_offsets(pitch: float, spacing: float, max_probes: int):
    """Probe offsets (dx, dy) along an expanding spiral.

    Probe 0 sits at the centre; afterwards the polar angle grows so that
    successive probes are about ``spacing`` apart along the arc, with the
    angular step capped near the centre so the first winding is sampled
    densely enough for the insertion clearance.
    """
    yield 0.0, 0.0
    theta = 0.0
    two_pi = 2.0 * math.pi
    for _ in range(max_probes - 1):
        r_here = pitch * theta / two_pi
        # The floor on the divisor caps the angular step so the innermost
        # winding stays within the insertion clearance of some probe.
        theta += spacing / max(r_here, 2.0 * spacing)
        r = pitch * theta / two_pi
        yield r * math.cos(theta), r * math.sin(theta)


def outer_search_radius(pitch: float, spacing: float, period: float, timeout: float) -> float:
    """Radius of the outermost probe the time budget allows."""
    probes = int(timeout / period)
    dx = dy = 0.0
    for dx, dy in spiral_offsets(pitch, spacing, probes):
        pass
    return math.hypot(dx, dy)


def max_search_radius(pitch: float, spacing: float, period: float, timeout: float) -> float:
    """Largest offset the spiral is guaranteed to find before timing out.

    The last partial turn sweeps only part of the circle, so guaranteed
    coverage ends one pitch inside the outermost probe radius; offsets in
    that annulus may or may not be found depending on their angle.
    """
    return max(0.0, outer_search_radius(pitch, spacing, period, timeout) - pitch)


# --- dual-arm plan ----------------------------------------------------------------


@dataclass(frozen=True)
class PlanPhase:
    parallel: bool
    assignments: tuple[tuple[int, str], ...]  # (point index, arm name)


@dataclass(frozen=True)
class Plan:
    n_points: int
    phases: tuple[PlanPhase, ...]


def schedule_dual_arm(n: int) -> Plan:
    """Execution plan over fixation points.

    Point one is always fixed by robot 1 while robot 2 holds the part. With
    more than three points the remainder is split across both arms and run in
    parallel after the first point holds the part; with two or three points
    robot 1 finishes them sequentially after robot 2 releases.
    """
    if n < 1:
        raise ValueError("need at least one fixation point")
    phases = [PlanPhase(parallel=False, assignments=((0, "robot1"),))]
    rest = list(range(1, n))
    if rest:
        if n > 3:
            mixed = tuple(
                (p, "robot1" if i % 2 == 0 else "robot2") for i, p in enumerate(rest)
            )
            phases.append(PlanPhase(parallel=True, assignments=mixed))
        else:
            for p in rest:
                phases.append(PlanPhase(parallel=False, assignments=((p, "robot1"),)))
    return Plan(n_points=n, phases=tuple(phases))


def inward(start, normal, x, y, z):
    """How far the point ``(x, y, z)`` lies in from ``start`` against the
    outward normal ``normal``: ``(start - point).dot(normal)`` on floats, or
    on arrays of them."""
    (sx, sy, sz), (ox, oy, oz) = start, normal
    return (sx - x) * ox + (sy - y) * oy + (sz - z) * oz


# --- wait outcomes -------------------------------------------------------------------


class Ending:
    """A contact phase whose wait ends on a condition that only its ``stops``
    states: a mixin for an ``engine.Form``.

    A subclass gives ``ending(slips, readings)``, which returns ``(k,
    outcome)``: the tick of the stretch on which the wait ends, and true, or
    on which it fails, and the ``SimulationError`` to raise; or, if it does
    neither, how many ticks the form computed (all it was given, or fewer,
    up to a failed laser read), and false. ``stops`` returns that tick,
    ``apply`` keeps the outcome if the stretch ends on it, and ``watch``
    returns the outcome kept, or stops the arm's motion and raises it.
    """

    outcome = False

    def stops(self, slips: np.ndarray, readings: np.ndarray) -> int:
        self._ending = self.ending(slips, readings)
        return self._ending[0]

    def apply(self, n: int):
        super().apply(n)
        tick, outcome = self._ending
        self.outcome = outcome if tick == n - 1 else False

    def watch(self):
        if isinstance(self.outcome, SimulationError):
            self.world.arm(self.arm).stop()
            raise self.outcome
        return self.outcome


def pressing(m: int, force: float) -> np.ndarray:
    """The true wrench of ``m`` ticks of a constant press of ``force``."""
    wrench = np.zeros((m, 6))
    wrench[:, 2] = force
    return wrench


# --- timed contact phases ------------------------------------------------------------


class Timed(Form):
    """A contact phase whose true wrench is a function of its own elapsed
    time and of constants, stated once, in ``ahead``.

    ``times`` gives that time after each tick of a stretch with
    ``np.add.accumulate``, which adds one tick at a time.
    """

    def __init__(self, ctx: MissionContext, arm: str):
        self.world = ctx.world
        self.arm, self.runtime = arm, self.world.runtime(arm)
        self.elapsed = 0.0  # seconds of the phase, one tick added at a time
        self._elapsed = None  # what ``times`` computed, for ``apply``

    def times(self, m: int) -> np.ndarray:
        """The elapsed time after each of the next ``m`` ticks."""
        elapsed = np.empty(m + 1)
        elapsed[0] = self.elapsed
        elapsed[1:] = self.world.dt
        np.add.accumulate(elapsed, out=elapsed)  # sequential, as the ticks add
        self._elapsed = elapsed
        return elapsed[1:]

    def apply(self, n: int):
        self.elapsed = float(self._elapsed[n])


class Impulses(Ending, Timed):
    """A tool that strikes an impulse every ``interval`` seconds of its
    elapsed time: the cup hammer's blows and the nut runner's pulses.

    ``struck`` holds the impulses so far and ``next_due``, the elapsed time
    at which the next is due: it strikes on the first tick on which
    ``elapsed + 1e-12`` reaches that, one at most a tick. ``strike(struck)``
    gives ``struck`` after the next impulse, and ``final(struck)`` is true
    after one on which the wait may end: ``schedule``, and so ``ahead``,
    computes through the first final impulse and no further.
    """

    def __init__(self, ctx: MissionContext, arm: str, interval: float, struck):
        super().__init__(ctx, arm)
        self.interval, self.struck = interval, struck
        self._struck = None  # what ``schedule`` computed, for ``apply``
        self._final = None  # the tick of the first final impulse, or one past the schedule

    def schedule(self, m: int):
        """The impulses of the next ``m`` ticks, through the first final
        one: ``(struck, start, stop)`` for ``struck`` now and after each
        impulse in turn, which holds after ticks ``start`` to ``stop - 1``,
        the first of which strikes the impulse. The last ``stop`` is how
        many ticks the schedule covers."""
        due = self.times(m) + 1e-12
        struck = [(0, self.struck)]
        k = int(np.searchsorted(due, self.struck.next_due))
        while k < m:
            after = self.strike(struck[-1][1])
            struck.append((k, after))
            if self.final(after):
                m = k + 1
                break
            k = max(k + 1, int(np.searchsorted(due, after.next_due)))
        self._struck, self._final = struck, k
        return [(s, start, stop) for (start, s), (stop, _) in zip(struck, struck[1:] + [(m, None)])]

    def apply(self, n: int):
        super().apply(n)
        self.struck = [s for k, s in self._struck if k < n][-1]


class Blows(NamedTuple):
    """The cup hammer's blows so far: when the next is due (in seconds of
    hammering), the anchor depth they reached, the peak moment of the last,
    how many were struck, and how many of them in the bottom contact band."""

    next_due: float
    depth: float
    peak: float = 0.0
    count: int = 0
    bottom: int = 0


class Hammering(Impulses):
    """The cup hammer driving one anchor home from the commanded point at
    which hammering starts, a blow every ``1 / blow_rate`` s.

    ``ahead``, ``stops`` and ``apply`` take a stretch of ticks (see
    ``engine.Form``): ``stops`` reads the laser on each tick, and ``apply``
    places the arm through ``point`` and records the depth rows. The wait
    ends on the first moment reading that reaches ``hammering_end_moment``,
    the anchor bottoming out: it fails there if the laser depth of that tick
    is at or below ``hammer_success_depth``.
    """

    def __init__(self, ctx: MissionContext, arm: str, anchor: AnchorBolt, stuck_measured: float):
        interval = 1.0 / ctx.scenario.tools.blow_rate
        super().__init__(ctx, arm, interval, Blows(next_due=interval, depth=anchor.depth))
        world = self.world
        self.state = state = self.runtime.state
        self.tools, self.procedure = ctx.scenario.tools, ctx.scenario.procedure
        self.anchor, self.hole = anchor, anchor.hole
        # The tick works on the floats of ``start - out_normal.scaled(advance)``
        # and ``(start - state.position).dot(out_normal)``, in the same order.
        self.start = (state.x, state.y, state.z)
        self.normal = ctx.out_normal.as_tuple()
        self.depth0, self.slip0 = anchor.depth, world.slip(arm)
        self.stuck_measured = stuck_measured
        self.laser_zero = world.laser_distance(arm)
        self._depths = self._watched = None  # what ``ahead`` and ``stops`` computed for ``apply``

    def strike(self, blows: Blows) -> Blows:
        depth, peak, bottom = hammer_blow(self.tools, blows.depth, self.hole, blows.bottom)
        return Blows(blows.next_due + self.interval, depth, peak, blows.count + 1, bottom)

    def final(self, blows: Blows) -> bool:
        return abs(blows.peak) >= self.procedure.hammering_end_moment

    def point(self, depth, slip):
        """The commanded point with the anchor at ``depth`` and the platform
        at ``slip``: the start pushed in by both. Floats or arrays."""
        advance = (depth - self.depth0) + (slip - self.slip0)
        (sx, sy, sz), (ox, oy, oz) = self.start, self.normal
        return sx - ox * advance, sy - oy * advance, sz - oz * advance

    def commanded(self, x, y, z):
        """How far the commanded point ``(x, y, z)`` is in from the start."""
        return inward(self.start, self.normal, x, y, z)

    def measured(self, distance):
        """The anchor depth the laser reads at ``distance``."""
        return self.stuck_measured + (self.laser_zero - distance)

    def ahead(self, m: int):
        """The true wrench on each of the next ticks through the first final
        blow, ``m`` at most: the press force, and a moment of 1.5 N m
        between blows and the blow's peak on a blow's tick. The anchor
        depths after those ticks are kept for ``stops``."""
        spans = self.schedule(m)
        m = spans[-1][2]
        wrench = pressing(m, self.tools.hammer_press_force)
        wrench[:, 3] = 1.5
        self._depths = depths = np.empty(m)
        for blows, start, stop in spans:
            depths[start:stop] = blows.depth
        for blows, start, _ in spans[1:]:
            wrench[start, 3] = blows.peak
        return m, wrench

    def ending(self, slips: np.ndarray, readings: np.ndarray):
        p = self.procedure
        x, y, z = self.point(self._depths[: len(slips)], slips)
        depths = self.measured(self.world.laser_distances(self.arm, (x, y, z), slips))
        self._watched = slips, (x, y, z), depths
        ends = np.flatnonzero(np.abs(readings[: len(depths), 3]) >= p.hammering_end_moment)
        if not ends.size:
            return len(depths), False
        k = int(ends[0])
        depth = float(depths[k])
        if depth <= p.hammer_success_depth:
            return k, SimulationError(
                f"bottom contact at {depth * 1e3:.1f} mm, "
                f"below the {p.hammer_success_depth * 1e3:.0f} mm success depth"
            )
        return k, True

    def apply(self, n: int):
        super().apply(n)
        slips, (x, y, z), depths = self._watched
        # ``depths`` stops short of tick ``n`` if its laser read failed.
        self.world.record_depths(self.arm, n, depths, self.commanded(x[:n], y[:n], z[:n]), slips)
        self.anchor.depth = self.struck.depth
        self.state.x, self.state.y, self.state.z = float(x[n - 1]), float(y[n - 1]), float(z[n - 1])


# --- the nut runner's timed phases -----------------------------------------------------


class Fitting(Ending, Timed):
    """The nut runner's socket fit. The socket's rotation alternates every
    0.2 s, pressing with the fz the approach ended on, until
    ``socket_fit_time`` has passed with an anchor to slot onto; then the
    socket slots on, its spring extends and the press drops to 5 N. The
    wait ends on the first FT reading under 10 N once the socket has
    slotted on, and otherwise fails with ``SocketFitTimeout`` once the wait
    passes ``socket_fit_timeout``."""

    def __init__(self, ctx: MissionContext, arm: str, anchor_present: bool):
        super().__init__(ctx, arm)
        self.hold_fz = self.runtime.true_wrench.fz
        # With no anchor to slot onto, the socket never slots on.
        self.fit_time = ctx.scenario.tools.socket_fit_time if anchor_present else math.inf
        self.timeout = ctx.scenario.procedure.socket_fit_timeout

    def ahead(self, m: int):
        elapsed = self.times(m)
        slotted = elapsed >= self.fit_time
        wiggle = np.where(np.floor(elapsed / 0.2) % 2 == 0, 1.2, -1.2)
        wrench = np.zeros((m, 6))
        wrench[:, 2] = np.where(slotted, 5.0, self.hold_fz)
        wrench[:, 3] = np.where(slotted, 0.0, wiggle)
        return m, wrench

    def ending(self, slips: np.ndarray, readings: np.ndarray):
        elapsed = self._elapsed[1 : len(slips) + 1]
        slotted = (readings[:, 2] < 10.0) & (elapsed >= self.fit_time)
        ends = np.flatnonzero(slotted | (elapsed > self.timeout))
        if not ends.size:
            return len(slips), False
        k = int(ends[0])
        return k, True if slotted[k] else SocketFitTimeout(f"socket never slotted on within {self.timeout} s")


class RunDown(Timed):
    """The nut runner running the nut down the anchor for ``duration`` s: the
    press eases from 50 N to 20 N over the run, and the flange takes the
    attenuated free-run torque. A wait with no watch."""

    def __init__(self, ctx: MissionContext, arm: str, duration: float):
        super().__init__(ctx, arm)
        tools = ctx.scenario.tools
        self.duration, self.moment = duration, tools.pulse_attenuation * tools.free_run_torque

    def ahead(self, m: int):
        wrench = np.zeros((m, 6))
        wrench[:, 2] = 50.0 - 30.0 * np.minimum(1.0, self.times(m) / self.duration)
        wrench[:, 3] = self.moment
        return m, wrench


class Pulses(NamedTuple):
    """The nut runner's pulses so far: when the next is due (in seconds of
    pulsing), the fastener torque they reached and the flange moment it
    passes on."""

    next_due: float
    torque: float = 0.0
    moment: float = 0.0


class Pulsing(Impulses):
    """The nut runner's pulse tightening, pressing 50 N: ``pulse_rate``
    pulses a second, each adding ``pulse_torque_step`` to the fastener
    torque up to ``target_torque``. The wait ends on the tick of the pulse
    that reaches the target, the final one."""

    def __init__(self, ctx: MissionContext, arm: str):
        self.tools = ctx.scenario.tools
        interval = 1.0 / self.tools.pulse_rate
        super().__init__(ctx, arm, interval, Pulses(next_due=interval))

    def strike(self, pulses: Pulses) -> Pulses:
        torque, moment = nutrunner_pulse(self.tools, pulses.torque)
        return Pulses(pulses.next_due + self.interval, torque, moment)

    def final(self, pulses: Pulses) -> bool:
        return pulses.torque >= self.tools.target_torque

    def ahead(self, m: int):
        """The true wrench on each of the next ticks through the final
        pulse, ``m`` at most: a 50 N press and the flange moment of the last
        pulse struck."""
        spans = self.schedule(m)
        m = spans[-1][2]
        wrench = pressing(m, 50.0)
        for pulses, start, stop in spans:
            wrench[start:stop, 3] = pulses.moment
        return m, wrench

    def ending(self, slips: np.ndarray, readings: np.ndarray):
        k = min(len(slips), self._final)
        return k, k < len(slips)


# --- guarded feeds -------------------------------------------------------------------


class Feed(Ending, Move):
    """A guarded feed (``MissionContext.feed``) under a contact law of the
    true surface distance, the commanded point and the slip. A subclass
    gives the law, ``law(distances, x, y, z, slips)``, which gives arrays of
    the fz and mx of the true wrench on the ticks of a stretch, and its stop
    condition over a stretch, ``stopped(slips, readings)``: one boolean per
    tick, up to a tick it cannot compute (a failed laser read).

    The wait ends on the first tick on which the feed has stopped. It fails
    with ``WrongPose`` on the first on which the feed has travelled more
    than ``max_travel`` or the reach trims it (naming the reach if it does
    both), unless the feed stopped on that tick too. ``ahead``, ``stops``
    and ``apply``, extending ``engine.Move``'s, take a stretch of ticks (see
    ``engine.Form``): the path from ``ArmState.free_path``, the wrench from
    ``World.feed_wrenches``, which solves the slip's feedback through the
    law, and the rest with numpy.
    """

    def __init__(self, ctx: MissionContext, arm: str, max_travel: float):
        self.world = ctx.world
        self.arm, self.runtime = arm, self.world.runtime(arm)
        super().__init__(self.runtime.state, self.world.dt)
        self.max_travel = max_travel

    def ahead(self, m: int):
        """The true wrench under the law on each of the next ``m`` ticks of
        the feed, or on fewer: through a reach trim, or up to a non-finite
        surface distance."""
        super().ahead(m)
        wrench = self.world.feed_wrenches(self.arm, self.path[:3, 1:], self.law)
        return len(wrench), wrench

    def ending(self, slips: np.ndarray, readings: np.ndarray):
        over = np.flatnonzero(self.path[3, 1 : len(slips) + 1] > self.max_travel)
        limit = min(int(over[0]) if over.size else len(slips), self.ends - 1)
        stopped = self.stopped(slips[: limit + 1], readings[: limit + 1])
        hits = np.flatnonzero(stopped)
        if hits.size:
            return int(hits[0]), True
        if limit >= len(stopped):
            return len(stopped), False
        if limit == self.ends - 1:
            reach = self.state.cfg.reach
            return limit, WrongPose(f"{self.arm}: feed reached the {reach} m reach of its base without its stop condition")
        return limit, WrongPose(f"{self.arm}: feed exceeded {self.max_travel} m without its stop condition")


class Pressing(Feed):
    """A feed under the contact law ``law`` that stops on the first raw FT
    reading whose fz reaches ``threshold``: the drill's touch and the nut
    runner's approaches."""

    def __init__(self, ctx: MissionContext, arm: str, law, threshold: float, max_travel: float):
        super().__init__(ctx, arm, max_travel)
        self.law, self.threshold = law, threshold

    def stopped(self, slips, readings):
        return readings[:, 2] >= self.threshold


class Holding(Form):
    """A feed's contact law held at the commanded point where the feed
    stopped, through a wait with no watch: the drill spinning up against
    the wall while the slip moves the surface distance. In a stretch it
    computes its ticks with ``World.feed_wrenches`` at that point
    repeated."""

    def __init__(self, feed: Feed):
        self.feed = feed

    def ahead(self, m: int):
        feed, state = self.feed, self.feed.state
        points = np.repeat([[state.x], [state.y], [state.z]], m, axis=1)
        wrench = feed.world.feed_wrenches(feed.arm, points, feed.law)
        return len(wrench), wrench


class Drilling(Feed):
    """The drilling feed from the commanded contact point ``contact`` until
    the measured depth reaches the drill target: the laser's (``laser_zero``
    less the range) or, with ``depth_source = commanded``, the commanded
    depth. ``apply`` records both depths of each tick."""

    def __init__(self, ctx: MissionContext, arm: str, contact: tuple[float, float, float], laser_zero: float):
        p = ctx.scenario.procedure
        super().__init__(ctx, arm, max_travel=0.12)
        self.tools = ctx.scenario.tools
        self.contact, self.normal = contact, ctx.out_normal.as_tuple()
        self.laser_zero, self.target = laser_zero, p.drill_depth_target
        self.use_laser = p.depth_source == "laser"
        self.measured = 0.0

    def law(self, distances, *_):
        depths = np.where(-distances > MAX_HOLE_DEPTH, MAX_HOLE_DEPTH, -distances)
        depths = np.where(depths > 0.0, depths, 0.0)  # ``max(0.0, min(-distance, MAX_HOLE_DEPTH))``
        return drill_thrust(depths, self.tools), drill_reaction_moment(self.tools, depths)

    def stopped(self, slips, readings):
        x, y, z = self.path[:3, 1 : len(slips) + 1]
        commanded = inward(self.contact, self.normal, x, y, z)
        measured = commanded
        if self.use_laser:
            measured = self.laser_zero - self.world.laser_distances(self.arm, (x, y, z), slips)
        self._depths = measured, commanded, slips  # for ``apply`` to record
        return measured >= self.target

    def apply(self, n: int):
        super().apply(n)
        measured, commanded, slips = self._depths
        kept = measured[:n]  # short of tick ``n`` if its laser read failed
        if len(kept):
            self.measured = float(kept[-1])
        self.world.record_depths(self.arm, n, measured, commanded, slips, lasered=self.use_laser)


class Pushing(Feed):
    """The insertion's push into ``hole`` at the approach speed, under the
    wedge law ``law``, which reads the engagement at the tip. A subclass
    gives the stop: ``Entering`` or ``Wedging``. It runs as any ``Feed``,
    and ``tips`` gives its ``stopped`` the tip's points and surface
    distances in a stretch."""

    def __init__(self, ctx: MissionContext, arm: str, hole: DrilledHole, max_travel: float):
        super().__init__(ctx, arm, max_travel)
        p = ctx.scenario.procedure
        self.hole, self.clearance, self.rate = hole, p.engagement_clearance, p.wedge_moment_rate
        self.stiffness = ctx.scenario.robot.contact_stiffness

    def law(self, distances, x, y, z, slips):
        """The wedge law: the tip presses ``pens``, its penetration, into the
        wedge if it engages the hole, with an fz of six times the moment, and
        otherwise into the surface."""
        pens = np.where(-distances > 0.0, -distances, 0.0)  # ``max(0.0, -distance)``
        wedged = engaged(self.world.radial_offsets(self.hole, (x, y, z), slips), self.clearance)
        moments = np.where(wedged, self.rate * pens, 0.0)
        return np.where(wedged, 6.0 * moments, self.stiffness * pens), moments

    def tips(self, slips: np.ndarray):
        """The commanded points of the stretch's first ``len(slips)`` ticks,
        and the tip's true surface distances at ``slips``."""
        points = self.path[:3, 1 : len(slips) + 1]
        return points, self.world.surface_at(*points, slips)


class Entering(Pushing):
    """The push until the tip enters the hole, 0.5 mm deep and engaged
    (``entered``), or a raw FT reading's fz reaches 15 N, the tip on the
    surface or the rim. A tick on which both hold enters."""

    def __init__(self, ctx: MissionContext, arm: str, hole: DrilledHole):
        super().__init__(ctx, arm, hole, max_travel=0.05)
        self.entered = False

    def stopped(self, slips, readings):
        points, distances = self.tips(slips)
        offsets = self.world.radial_offsets(self.hole, points, slips)
        self._entries = (-distances >= 0.0005) & engaged(offsets, self.clearance)  # for ``apply``
        return self._entries | (readings[:, 2] >= 15.0)

    def apply(self, n: int):
        super().apply(n)
        if self.outcome is True and self._entries[n - 1]:
            self.entered = True


class Wedging(Pushing):
    """The push until the wedge stops it: a raw FT reading's |mx| reaching
    ``insertion_end_moment``. ``apply`` records the laser depth and the
    commanded depth, the penetration plus the slip, of each tick."""

    def __init__(self, ctx: MissionContext, arm: str, hole: DrilledHole):
        super().__init__(ctx, arm, hole, max_travel=0.03)
        self.end_moment = ctx.scenario.procedure.insertion_end_moment

    def stopped(self, slips, readings):
        points, distances = self.tips(slips)
        pens = np.where(-distances > 0.0, -distances, 0.0)  # ``max(0.0, -distance)``
        # The laser reads the signed distance to the surface plane, so tip
        # penetration is simply its negation.
        laser = -self.world.laser_distances(self.arm, points, slips)
        self._depths = laser, pens + slips, slips  # for ``apply`` to record
        return np.abs(readings[: len(laser), 3]) >= self.end_moment

    def apply(self, n: int):
        super().apply(n)
        laser, commanded, slips = self._depths
        self.world.record_depths(self.arm, n, laser, commanded, slips)


#: The light press (N) under which the anchor tip slides on the wall.
SLIDE_PRESS = 20.0


class Sliding(Move):
    """The anchor tip sliding on the wall under the light ``SLIDE_PRESS``:
    the targeted move back to the surface before the spiral search."""

    def ahead(self, m: int):
        k, _ = super().ahead(m)
        return k, pressing(k, SLIDE_PRESS)


class Probing(Ending, Form):
    """The spiral search for ``hole``: the commanded point steps through the
    probe points of ``spiral_offsets`` about the point it starts from,
    ``ticks`` ticks at each, drawn as the probes need them.

    In a stretch (see ``engine.Form``) every tick presses with the constant
    ``SLIDE_PRESS``. ``stops`` reads the radial offset at the probe ends
    only, each at its tick's slip, and finds the first that ends the search
    and the wait: the anchor engages (``engaged``) or the spiral is
    exhausted. ``apply`` counts a probe's ticks down and at its last
    commands the next probe, or at the end of the search stops.
    """

    def __init__(self, ctx: MissionContext, arm: str, hole: DrilledHole, ticks: int, max_probes: int):
        p, frame = ctx.scenario.procedure, ctx.work_frame
        self.world, self.arm, self.hole, self.ticks = ctx.world, arm, hole, ticks
        self.state = self.world.arm(arm)
        self.clearance = p.engagement_clearance
        (cx, cy, cz), ax, ay = self.state.position.as_tuple(), frame.x_axis, frame.y_axis
        offsets = spiral_offsets(p.spiral_pitch, p.spiral_probe_spacing, max_probes)
        # ``center + x_axis.scaled(dx) + y_axis.scaled(dy)`` on floats, in the same order.
        self.points = ((cx + ax.x * dx + ay.x * dy, cy + ax.y * dx + ay.y * dy, cz + ax.z * dx + ay.z * dy)
                       for dx, dy in offsets)
        self.drawn: list[tuple[float, float, float]] = []  # the points of the probes after the one that runs
        self.probes, self.left, self.engaged = 0, 0, False  # ``left``: the probe's ticks left, 0 once ended
        self._engages = None  # whether the anchor engages at the end ``stops`` found
        self.draw(1)
        self.start(1)

    def draw(self, count: int) -> list[tuple[float, float, float]]:
        """The points of the next ``count`` probes after the one that runs,
        or of as many as the spiral has left."""
        self.drawn.extend(islice(self.points, max(0, count - len(self.drawn))))
        return self.drawn[:count]

    def start(self, passed: int):
        """Start the ``passed``-th probe after the one that runs; the ones
        between are passed over."""
        state = self.state
        state.x, state.y, state.z = self.drawn[passed - 1]
        del self.drawn[:passed]
        self.probes += passed
        self.left = self.ticks

    def ahead(self, m: int):
        return m, pressing(m, SLIDE_PRESS)

    def ending(self, slips: np.ndarray, readings: np.ndarray):
        ends = np.arange(self.left - 1, len(slips), self.ticks)
        if not ends.size:
            return len(slips), False
        drawn = self.draw(len(ends))
        exhausted = len(drawn) < len(ends)
        ends = ends[: len(drawn) + 1]  # no probe runs after the spiral's last
        state = self.state
        points = np.array([(state.x, state.y, state.z)] + drawn[: len(ends) - 1])
        engages = engaged(self.world.radial_offsets(self.hole, points.T, slips[ends]), self.clearance)
        final = engages.copy()
        final[-1] |= exhausted
        hits = np.flatnonzero(final)
        if not hits.size:
            return len(slips), False
        self._engages = bool(engages[hits[0]])
        return int(ends[hits[0]]), True

    def apply(self, n: int):
        super().apply(n)
        if n < self.left:
            self.left -= n
            return
        passed, left = divmod(n - self.left, self.ticks)  # whole probes after the one that ran, and ticks
        if self.outcome:  # the search ends on the stretch's last tick
            if passed:
                self.start(passed)
            self.left, self.engaged = 0, self._engages
            return
        self.start(passed + 1)
        self.left -= left


# --- the executive ---------------------------------------------------------------


class MissionContext:
    """Shared state and tick-level primitives for one mission run."""

    def __init__(self, world: World):
        self.world = world
        self.scenario = world.scenario
        self.est_frame: Frame | None = None
        self.steps: list[StepRecord] = []
        self._open: dict[str, StepRecord] = {}
        self.failure: str | None = None
        self.nominal_frame = self.scenario.nominal_frame()

    # -- frames -----------------------------------------------------------------

    @property
    def work_frame(self) -> Frame:
        """Estimated wall frame if measured, else the nominal one."""
        return self.est_frame if self.est_frame is not None else self.nominal_frame

    @property
    def out_normal(self) -> Point3:
        return self.work_frame.z_axis

    # -- step bookkeeping ----------------------------------------------------------

    def begin(self, step: FixationStep, point: int, arm: str) -> StepRecord:
        rec = StepRecord(step=step, point_index=point, arm=arm, t_start=self.world.t)
        self.steps.append(rec)
        self._open[arm] = rec
        return rec

    def end(self, arm: str, **diag):
        rec = self._open.pop(arm)
        rec.t_end = self.world.t
        rec.status = "ok"
        rec.diagnostics.update(diag)

    def fail(self, arm: str, exc: Exception) -> StepFailed:
        rec = self._open.pop(arm)
        rec.t_end = self.world.t
        rec.status = "failed"
        rec.error = f"{type(exc).__name__}: {exc}"
        failed = StepFailed(rec.step, exc)
        if self.failure is None:
            self.failure = str(failed)
        return failed

    def guarded(self, step: FixationStep, point: int, arm: str, gen, **diag):
        """Run one step generator with record bookkeeping; ``diag`` joins the
        record's diagnostics when the step succeeds."""
        self.begin(step, point, arm)
        try:
            result = yield from gen
        except SimulationError as exc:
            raise self.fail(arm, exc) from exc
        self.end(arm, **diag)
        return result

    # -- primitives -------------------------------------------------------------

    def station(self, arm: str, kind: str) -> Point3:
        suffix = "1" if arm == "robot1" else "2"
        key = {"tool": f"tool_stand{suffix}", "anchor": f"anchor_stand{suffix}",
               "home": f"home{suffix}", "part": "part_stand"}[kind]
        return self.scenario.station(key)

    def until(self, arm: str, contact: Form | None = None, ticks: float = math.inf):
        """Tick until ``ticks`` ticks passed or the watch of ``contact`` ends
        the wait, or, given neither, until the arm's motion ends; raise on
        the tick the guard halts ``arm`` or simulated time passes
        ``MAX_SIM_TIME``, and re-raise a ``SimulationError`` that the watch
        raised.

        ``contact`` is the arm's contact phase for the wait (see
        ``ArmRuntime``), and the only way one is installed; the arm has none
        once the wait ends, normally or by an exception. ``World.run`` calls
        its ``watch`` on the state each stretch of ticks leaves. A motion's
        end is an event tick of its own, so waiting for it needs no watch. Each yield is the ticks left of the
        wait, which may be ``math.inf``.
        """
        runtime = self.world.runtime(arm)
        state = runtime.state
        clock = self.world.clock
        end = clock.ticks + ticks
        motion_wait = ticks == math.inf and (contact is None or contact.watch is None)
        runtime.contact, runtime.watched = contact, False
        try:
            while not runtime.watched and clock.ticks < end:
                yield end - clock.ticks
                if state.halted:
                    raise HaltedByGuard(state.halt_axis, state.halt_travelled)
                if clock.t > MAX_SIM_TIME:
                    raise SimTimeExceeded(f"simulated time passed the {MAX_SIM_TIME:.0f} s ceiling")
                if isinstance(runtime.watched, SimulationError):
                    raise runtime.watched
                if motion_wait and state.motion is None:
                    break
        finally:
            runtime.contact = None

    def ticks(self, seconds: float) -> int:
        """The ticks of a wait of ``seconds``, one at least. A wait that
        outlasts the ceiling ends in ``SimTimeExceeded`` however long it is,
        so its ticks are capped past the ceiling."""
        dt = self.world.dt
        return max(1, round(min(seconds / dt, MAX_SIM_TIME / dt + 2)))

    def wait(self, arm: str, seconds: float, contact: Form | None = None):
        yield from self.until(arm, contact, self.ticks(seconds))

    def move(self, arm: str, target: Point3, speed: float, contact: Form | None = None):
        state = self.world.arm(arm)
        state.start_move(target, speed)
        if state.motion is not None:
            yield from self.until(arm, contact)

    def feed(self, arm: str, feed: Feed, speed: float):
        """Open-ended guarded feed into the wall along the working normal at
        ``speed``, until ``feed.watch`` ends it (see ``Feed``)."""
        state = self.world.arm(arm)
        state.start_feed(-self.out_normal, speed)
        yield from self.until(arm, feed)
        state.stop()

    def press_until(self, arm: str, law, threshold: float, max_travel: float):
        """Feed at the approach speed under the contact law ``law`` (see
        ``Feed``) until a raw FT reading's fz reaches ``threshold``; return
        the feed, whose law may press on (``Holding``)."""
        feed = Pressing(self, arm, law, threshold, max_travel)
        yield from self.feed(arm, feed, self.scenario.robot.approach_speed)
        return feed

    def moments(self, arm: str):
        """A function that gives the true mx of each of the arm's ticks from
        now on, read from its trace."""
        trace = self.world.recorder.traces[f"{arm}/mx"]
        first = len(trace)
        return lambda: trace.row.column(trace.index, first)

    def ensure_tool(self, arm: str, tool: ToolId):
        """Swap the arm to ``tool`` at its tool stand, unless it holds it
        already. ``return_tool`` empties the flange and leaves the arm on the
        stand point, so after it the move to the stand is no motion."""
        state = self.world.arm(arm)
        if state.attached_tool == tool:
            return
        yield from self.return_tool(arm)
        stand = self.station(arm, "tool")
        yield from self.move(arm, stand, self.scenario.robot.gross_speed)
        yield from self.wait(arm, self.scenario.robot.tool_change_time)
        attach_tool(state, tool, stand)

    def return_tool(self, arm: str):
        state = self.world.arm(arm)
        if state.attached_tool is None:
            return
        stand = self.station(arm, "tool")
        yield from self.move(arm, stand, self.scenario.robot.gross_speed)
        yield from self.wait(arm, self.scenario.robot.tool_change_time)
        detach_tool(state, stand)

    def detect(self, arm: str, kind: DetectionKind, expected: Point3, true_pos: Point3):
        """Move the camera over ``expected`` and run one detection of the
        target at ``true_pos``. Records the detection's error and confidence
        in the open step's diagnostics and returns the detection."""
        view = expected + self.out_normal.scaled(0.25)
        yield from self.move(arm, view, self.scenario.robot.gross_speed)
        yield from self.wait(arm, self.scenario.sensors.detect_time)
        det = camera_detect(
            kind, true_pos, self.world.site.wall, self.world.streams.get(f"camera.{arm}"),
            self.scenario.sensors, expected,
        )
        if det is None:
            raise DetectionMissing(f"{kind.value} not found near {expected}")
        self._open[arm].diagnostics.update(
            detection_error=det.position.distance_to(true_pos), confidence=det.confidence
        )
        return det

    # -- step 1: orientation -------------------------------------------------------

    def estimate_orientation(self, arm: str):
        robot = self.scenario.robot
        points: list[Point3] = []
        ray = -self.nominal_frame.z_axis
        for point in self.scenario.laser_points():
            yield from self.move(arm, point, robot.gross_speed)
            yield from self.wait(arm, 0.5)
            distance = self.world.laser_distance(arm, ray)
            points.append(self.world.arm(arm).position + ray.scaled(distance))
        est = estimate_wall_frame(points[0], points[1], points[2])
        self.est_frame = est
        true_frame = self.world.site.wall.frame
        error = angle_between(est.z_axis, true_frame.z_axis)
        self._open[arm].diagnostics.update(
            angle_error_rad=error,
            measured_points=[pt for pt in points],
        )
        return est

    # -- step 2: pick and place ------------------------------------------------------

    def pick_place_part(self, arm: str):
        world = self.world
        part = world.site.part
        if part.state is not PartState.IN_STAND:
            raise WrongPose("part is already placed")
        robot = self.scenario.robot
        yield from self.ensure_tool(arm, ToolId.GRIPPER)
        yield from self.move(arm, self.station(arm, "part"), robot.gross_speed)
        yield from self.wait(arm, self.scenario.tools.magnet_switch_time)
        part.set_state(PartState.GRASPED)

        frame = self.work_frame
        target_local = Point3(self.scenario.part.target_x, self.scenario.part.target_y, 0.0)
        place_point = (
            self.nominal_frame.origin
            + frame.x_axis.scaled(target_local.x)
            + frame.y_axis.scaled(target_local.y)
        )
        approach = place_point + self.out_normal.scaled(0.05)
        yield from self.move(arm, approach, robot.gross_speed)
        yield from self.move(arm, place_point, robot.retract_speed)
        yield from self.wait(arm, 1.0)

        rng = world.streams.get("placement")
        sigma = self.scenario.part.placement_sigma
        dx = rng.normal(0.0, sigma) if sigma > 0 else 0.0
        dy = rng.normal(0.0, sigma) if sigma > 0 else 0.0
        wall = world.site.wall
        placed = place_point + frame.x_axis.scaled(dx) + frame.y_axis.scaled(dy)
        # The part sits flush on the true wall surface.
        part.pose = wall.frame.with_origin(wall.project(placed))
        part.set_state(PartState.HELD_ON_WALL)
        self._open[arm].diagnostics.update(placement_error=math.hypot(dx, dy))

    def release_part(self, arm: str):
        yield from self.wait(arm, self.scenario.tools.magnet_switch_time)
        back = self.world.arm(arm).position + self.out_normal.scaled(0.10)
        yield from self.move(arm, back, self.scenario.robot.retract_speed)
        yield from self.move(arm, self.station(arm, "home"), self.scenario.robot.gross_speed)

    # -- steps 3..9 ------------------------------------------------------------------

    def detect_part_hole(self, arm: str, point: int):
        frame = self.work_frame
        local = self.world.site.part.hole_positions[point]
        expected = (
            self.nominal_frame.origin
            + frame.x_axis.scaled(self.scenario.part.target_x + local.x)
            + frame.y_axis.scaled(self.scenario.part.target_y + local.y)
        )
        true_pos = self.world.site.part.hole_world(point)
        return (yield from self.detect(arm, DetectionKind.PART_HOLE, expected, true_pos))

    def drill_hole(self, arm: str, target: Point3):
        """Steps 3-4 core: approach through the part hole, drill to depth."""
        world = self.world
        robot = self.scenario.robot
        cfg = self.scenario.tools
        state = world.arm(arm)

        yield from self.ensure_tool(arm, ToolId.DRILL)
        standoff = target + self.out_normal.scaled(robot.approach_standoff + 0.02)
        yield from self.move(arm, standoff, robot.gross_speed)

        def press_law(distances, *_):
            # Rigid surface contact: force grows with commanded penetration.
            pens = -distances
            return np.where(pens > 0, robot.contact_stiffness * pens, 0.0), np.zeros(len(pens))

        # Guarded approach until the bit touches the wall; the bit spins up
        # while it presses.
        touch = yield from self.press_until(arm, press_law, self.scenario.procedure.contact_force, max_travel=0.2)
        drilling = Drilling(self, arm, (state.x, state.y, state.z), world.laser_distance(arm))
        slip_zero = world.slip(arm)
        yield from self.wait(arm, cfg.drill_spinup_time, Holding(touch))

        world.runtime(arm).guard_filter.reset()
        moments = self.moments(arm)

        def moment_range():  # the drilling ticks' true mx, widened to take in 0
            seen = moments()
            return {"max_mx": max(0.0, max(seen)), "min_mx": min(0.0, min(seen)), "variant": cfg.variant}

        try:
            yield from self.feed(arm, drilling, cfg.feed_speed)
        except HaltedByGuard as exc:
            depth_at_halt = max(0.0, -world.surface_distance(arm))
            self._open[arm].diagnostics.update(halt_axis=exc.axis, halt_depth=depth_at_halt, **moment_range())
            raise HaltedByGuard(exc.axis, depth_at_halt) from None
        drilled = moment_range()

        true_depth = max(0.0, -world.surface_distance(arm))
        if true_depth == 0.0:
            # With commanded depth feedback, slip can carry the platform
            # back as fast as the bit feeds.
            raise SimulationError("the bit reached its depth target without entering the wall")
        hole_depth = min(true_depth, MAX_HOLE_DEPTH)
        entry = world.site.wall.project(world.true_position(arm))
        hole = world.site.register_drilled_hole(entry, -self.out_normal, hole_depth)

        yield from self.move(arm, standoff, robot.retract_speed)
        yield from self.return_tool(arm)
        self._open[arm].diagnostics.update(
            hole_depth=hole.depth,
            measured_depth=drilling.measured,
            slip_during=world.slip(arm) - slip_zero,
            **drilled,
        )
        return hole

    def detect_wall_hole(self, arm: str, hole: DrilledHole):
        return (yield from self.detect(arm, DetectionKind.WALL_HOLE, hole.position, hole.position))

    def pick_anchor(self, arm: str):
        robot = self.scenario.robot
        yield from self.ensure_tool(arm, ToolId.HAMMER)
        yield from self.move(arm, self.station(arm, "anchor"), robot.gross_speed)
        yield from self.wait(arm, self.scenario.tools.grip_time)
        anchor = AnchorBolt()
        anchor.set_state(AnchorState.GRASPED)
        self._open[arm].diagnostics.update(anchor_mass=anchor.mass)
        return anchor

    def insert_anchor(self, arm: str, target: Point3, anchor: AnchorBolt, hole: DrilledHole):
        """Step 7: approach ``target``, the detected position of
        ``hole``, search if the anchor does not drop in, and push until the
        wedge reaches the insertion end moment. Engagement is judged against
        ``hole`` however far off the detection is, so a bad detection ends in
        a failed search. Returns the stuck depth the laser measured, which
        hammering starts from."""
        world = self.world
        robot = self.scenario.robot
        p = self.scenario.procedure
        state = world.arm(arm)

        standoff = target + self.out_normal.scaled(robot.approach_standoff)
        yield from self.move(arm, standoff, robot.gross_speed)

        entering = Entering(self, arm, hole)
        yield from self.feed(arm, entering, robot.approach_speed)
        first_offset = world.radial_offset(arm, hole)
        first = anchor_engagement(first_offset, p.engagement_clearance)
        search_time = 0.0
        probes = 0
        if not entering.entered:
            # Back off to a light slide on the surface and spiral outward.
            surface_cmd = state.position + self.out_normal.scaled(
                -world.surface_distance(arm) + 0.0003
            )
            yield from self.move(arm, surface_cmd, robot.retract_speed, Sliding(state, world.dt))
            # A search that outlasts the ceiling ends in ``SimTimeExceeded``,
            # so its probes are capped past the ceiling, as ``wait`` does.
            period = p.spiral_probe_period
            max_probes = int(min(p.search_timeout / period, MAX_SIM_TIME / period + 2))
            t0 = world.t
            search = Probing(self, arm, hole, self.ticks(period), max_probes)
            yield from self.until(arm, search)
            probes = search.probes
            if not search.engaged:
                raise SearchTimeout(
                    f"spiral search exhausted {p.search_timeout} s "
                    f"({probes} probes, first offset {first_offset * 1e3:.2f} mm)"
                )
            search_time = world.t - t0

        yield from self.feed(arm, Wedging(self, arm, hole), robot.approach_speed)
        stuck_depth = max(0.0, -world.surface_distance(arm))
        if stuck_depth > hole.depth:
            raise SimulationError(
                f"anchor pushed to {stuck_depth * 1e3:.2f} mm, past the {hole.depth * 1e3:.2f} mm hole bottom"
            )
        stuck_measured = -world.laser_distance(arm)
        world.site.place_anchor_in_hole(anchor, hole, stuck_depth)

        self._open[arm].diagnostics.update(
            first_attempt=first.value,
            first_offset=first_offset,
            search_used=not entering.entered,
            search_time=search_time,
            probes=probes,
            stuck_depth=stuck_depth,
            stuck_measured=stuck_measured,
        )
        return stuck_measured

    def hammer_anchor(self, arm: str, anchor: AnchorBolt, stuck_measured: float):
        """Step 8: release the gripper, hammer until depth and moment say the
        anchor hit the bottom."""
        yield from self.wait(arm, self.scenario.tools.grip_time)
        hammer = Hammering(self, arm, anchor, stuck_measured)
        yield from self.until(arm, hammer)

        anchor.set_state(AnchorState.SEATED, depth=anchor.depth)
        state = self.world.arm(arm)
        self._open[arm].diagnostics.update(
            blows=hammer.struck.count,
            displacement=hammer.commanded(state.x, state.y, state.z),
            final_depth=anchor.depth,
            measured_depth=hammer.measured(self.world.laser_distance(arm)),
            stop_moment=hammer.struck.peak,
        )

    def tighten_nut(self, arm: str, anchor: AnchorBolt):
        """Step 9: the six-sub-step tightening protocol."""
        world = self.world
        robot = self.scenario.robot
        tools_cfg = self.scenario.tools
        p = self.scenario.procedure
        hole = anchor.hole
        wall = world.site.wall
        runtime = world.runtime(arm)

        yield from self.ensure_tool(arm, ToolId.NUTRUNNER)
        protrusion = anchor.length - anchor.depth
        head_point = hole.position + wall.normal.scaled(protrusion)
        standoff = head_point + self.out_normal.scaled(robot.approach_standoff)
        yield from self.move(arm, standoff, robot.gross_speed)

        substeps: list[tuple[str, float, float]] = []
        approach_triggers: list[dict] = []
        spring = tools_cfg.socket_spring_rate
        # The peak flange moment is read from the trace of every tick's mx.
        moments = self.moments(arm)

        def approach(name: str, reference_pen: float):
            t0 = world.t

            def socket_spring_law(distances, *_):
                compression = protrusion - distances - reference_pen
                return np.where(compression > 0, spring * compression, 0.0), np.zeros(len(compression))

            yield from self.press_until(arm, socket_spring_law, p.approach_force, max_travel=protrusion + 0.03)
            approach_triggers.append(
                {"reading_fz": runtime.reading.fz, "true_fz": runtime.true_wrench.fz}
            )
            substeps.append((name, t0, world.t))

        def current_pen():
            return protrusion - world.surface_distance(arm)

        # (1) approach until the force threshold.
        yield from approach("approach_contact", 0.0)

        # (2) alternate rotation until the socket slots onto the nut.
        t0 = world.t
        fitting = Fitting(self, arm, anchor.state in (AnchorState.STUCK, AnchorState.SEATED))
        yield from self.until(arm, fitting)
        substeps.append(("socket_fit", t0, world.t))

        # (3) advance again to the force threshold.
        yield from approach("re_approach", current_pen())

        # (4) run the nut down to the part surface.
        t0 = world.t
        run_distance = protrusion - self.scenario.part.thickness - tools_cfg.nut_height
        if run_distance <= 0:
            raise SimulationError("anchor does not protrude enough to run the nut")
        if run_distance > tools_cfg.socket_spring_travel:
            raise SimulationError(
                f"nut run {run_distance * 1e3:.0f} mm exceeds the socket spring travel"
            )
        run = RunDown(self, arm, run_distance / tools_cfg.nut_run_speed)
        yield from self.wait(arm, run.duration, run)
        substeps.append(("run_nut", t0, world.t))

        # (5) advance once more.
        yield from approach("re_approach_2", current_pen())

        # (6) pulse-tighten to the target torque.
        t0 = world.t
        pulsing = Pulsing(self, arm)
        yield from self.until(arm, pulsing)
        substeps.append(("pulse_tighten", t0, world.t))
        max_moment = max(map(abs, moments()))

        anchor.set_state(AnchorState.TIGHTENED)
        world.site.part.mark_point_fixed()
        yield from self.move(arm, standoff, robot.retract_speed)
        self._open[arm].diagnostics.update(
            substeps=[(n, round(a, 6), round(b, 6)) for n, a, b in substeps],
            approach_triggers=approach_triggers,
            final_torque=tools_cfg.target_torque,
            max_flange_moment=max_moment,
        )

    # -- point pipeline ----------------------------------------------------------

    def anchor_hole(self, arm: str, point: int, hole: DrilledHole):
        """Steps 5-7 at ``hole``: detect it with the camera, pick an anchor
        and insert it at the detected position. Returns the anchor and the
        stuck depth the laser measured, which hammering starts from."""
        det = yield from self.guarded(
            FixationStep.DETECT_WALL_HOLE, point, arm, self.detect_wall_hole(arm, hole)
        )
        anchor = yield from self.guarded(
            FixationStep.PICK_ANCHOR, point, arm, self.pick_anchor(arm)
        )
        stuck_measured = yield from self.guarded(
            FixationStep.INSERT_ANCHOR, point, arm,
            self.insert_anchor(arm, det.position, anchor, hole),
        )
        return anchor, stuck_measured

    def fix_point(self, arm: str, point: int):
        """Steps 3 through 9 for one fixation point."""
        det_part = yield from self.guarded(
            FixationStep.DETECT_PART_HOLE, point, arm, self.detect_part_hole(arm, point)
        )
        hole = yield from self.guarded(
            FixationStep.DRILL_HOLE, point, arm, self.drill_hole(arm, det_part.position)
        )
        anchor, stuck_measured = yield from self.anchor_hole(arm, point, hole)
        yield from self.guarded(
            FixationStep.HAMMER_ANCHOR, point, arm,
            self.hammer_anchor(arm, anchor, stuck_measured),
        )
        yield from self.guarded(
            FixationStep.TIGHTEN_NUT, point, arm, self.tighten_nut(arm, anchor)
        )


# --- missions -------------------------------------------------------------------


def mission_full(ctx: MissionContext):
    """The complete procedure, scheduled over one or both arms."""
    plan = schedule_dual_arm(ctx.scenario.part.holes)

    yield from ctx.guarded(
        FixationStep.ESTIMATE_ORIENTATION, 0, "robot1", ctx.estimate_orientation("robot1")
    )
    yield from ctx.guarded(
        FixationStep.PICK_PLACE_PART, 0, "robot2", ctx.pick_place_part("robot2")
    )
    yield from ctx.fix_point("robot1", 0)

    # Step 10: robot 2 releases the part; repeats follow for other points.
    last = [ctx.return_tool("robot1")] if plan.n_points == 1 else []
    yield from ctx.guarded(
        FixationStep.RELEASE_REPEAT, 0, "robot2", chain(ctx.release_part("robot2"), *last),
        remaining_points=plan.n_points - 1,
    )

    # Each phase runs one pipeline per arm; a sequential phase is the
    # one-arm case. Every pipeline is resumed, in arm order, whenever the
    # world stops: on an event tick, or when the shortest wait ends. A wait
    # that has not ended yields its ticks left again and changes nothing;
    # ``next`` gives None for a finished pipeline.
    for phase in plan.phases[1:]:
        chains: dict[str, list[int]] = {}
        for point, arm in phase.assignments:
            chains.setdefault(arm, []).append(point)
        pipelines = [chain(*[ctx.fix_point(arm, pt) for pt in pts]) for arm, pts in sorted(chains.items())]
        while True:
            horizons = [h for h in (next(pipeline, None) for pipeline in pipelines) if h is not None]
            if not horizons:
                break
            yield min(horizons)

    if plan.n_points > 1:
        yield from ctx.guarded(
            FixationStep.RELEASE_REPEAT, plan.n_points - 1, "robot1",
            chain(ctx.return_tool("robot1"), ctx.return_tool("robot2")), cleanup=True,
        )


def mission_drill(ctx: MissionContext):
    """Drill-tool protocol: touch the bare wall, drill to depth or overload."""
    target = ctx.nominal_frame.origin
    yield from ctx.guarded(
        FixationStep.DRILL_HOLE, 0, "robot1", ctx.drill_hole("robot1", target)
    )


def _preset_hole(ctx: MissionContext) -> DrilledHole:
    site = ctx.world.site
    return site.register_drilled_hole(
        site.wall.frame.origin, -site.wall.normal, ctx.scenario.procedure.drill_depth_target
    )


def mission_insert(ctx: MissionContext):
    """Insertion only: detect the pre-drilled hole, pick, insert (with search)."""
    yield from ctx.anchor_hole("robot1", 0, _preset_hole(ctx))


def mission_hammer(ctx: MissionContext):
    """Anchor protocol: insert into a pre-drilled hole, then hammer it home."""
    anchor, stuck_measured = yield from ctx.anchor_hole("robot1", 0, _preset_hole(ctx))
    yield from ctx.guarded(
        FixationStep.HAMMER_ANCHOR, 0, "robot1",
        ctx.hammer_anchor("robot1", anchor, stuck_measured),
    )
    yield from ctx.return_tool("robot1")


def _seated_anchor(ctx: MissionContext, hole: DrilledHole) -> AnchorBolt:
    anchor = AnchorBolt()
    anchor.set_state(AnchorState.GRASPED)
    ctx.world.site.place_anchor_in_hole(anchor, hole, depth=hole.depth - BOTTOM_CONTACT_BAND)
    anchor.set_state(AnchorState.SEATED)
    return anchor


def mission_nut(ctx: MissionContext):
    """Nut protocol: six sub-steps on a seated anchor."""
    hole = _preset_hole(ctx)
    anchor = _seated_anchor(ctx, hole)
    yield from ctx.guarded(
        FixationStep.TIGHTEN_NUT, 0, "robot1", ctx.tighten_nut("robot1", anchor)
    )
    yield from ctx.return_tool("robot1")


def mission_nut_missing(ctx: MissionContext):
    """Nut protocol pointed at an empty hole; the socket never fits."""
    hole = _preset_hole(ctx)
    anchor = AnchorBolt()  # stays in the stand; the runner presses the bare part plane
    anchor.depth = hole.depth - BOTTOM_CONTACT_BAND
    anchor.hole = hole
    yield from ctx.guarded(
        FixationStep.TIGHTEN_NUT, 0, "robot1", ctx.tighten_nut("robot1", anchor)
    )


def mission_frame(ctx: MissionContext):
    """Orientation estimation only."""
    yield from ctx.guarded(
        FixationStep.ESTIMATE_ORIENTATION, 0, "robot1", ctx.estimate_orientation("robot1")
    )


MISSIONS = {
    "full": mission_full,
    "drill": mission_drill,
    "insert": mission_insert,
    "hammer": mission_hammer,
    "nut": mission_nut,
    "nut-missing": mission_nut_missing,
    "frame": mission_frame,
}


def drive_mission(world: World, mission: str):
    """Run the mission generator to completion, stepping the world over each
    horizon it yields."""
    try:
        factory = MISSIONS[mission]
    except KeyError:
        raise ValueError(f"unknown mission {mission!r}; one of {sorted(MISSIONS)}") from None
    ctx = MissionContext(world)
    try:
        for horizon in factory(ctx):
            world.run(horizon)
    except SimulationError as exc:  # a failed step, or an error between steps
        ctx.failure = ctx.failure or f"{type(exc).__name__}: {exc}"
    success = ctx.failure is None
    for rec in ctx.steps:
        if rec.status == "running":
            rec.status = "aborted"
            rec.t_end = world.t
    report = FixationReport(
        steps=ctx.steps,
        total_duration=world.t,
        traces=sorted(world.recorder.traces),
        seed=world.seed,
        scenario_hash=world.scenario_hash,
        success=success,
        failure=ctx.failure,
    )
    return report, world.recorder.traces

