"""Mission executive: the ten-step fixation procedure and its sub-protocols.

Steps are generators that tick through ``MissionContext.until``, which yields
the ticks left of a wait, or ``math.inf``. A step's per-tick check is a watcher
that ``World.step`` runs, and ``World.run`` stops after an event tick (a motion
ended, the guard halted an arm, a watcher returned true or raised, or simulated
time ran out), so a step resumes only on an event or at the end of a wait. The
dual-arm scheduler in ``mission_full`` resumes the per-arm pipelines in fixed
arm order. A failed step ends the run with a partial report.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from .engine import MAX_SIM_TIME, World
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
from .sensors import DetectionKind, Wrench, camera_detect
from .tools import drill_reaction_moment, drill_thrust, hammer_blow, nutrunner_pulse
from .worksite import (
    MAX_HOLE_DEPTH,
    AnchorBolt,
    AnchorState,
    DrilledHole,
    Engagement,
    PartState,
    anchor_engagement,
    wall_frame_from_angles,
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
    if isinstance(value, Enum):
        return value.value
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
        # Nominal (design) wall frame: what the executive believes before
        # measuring; deliberately ignores the scenario's true tilt angles.
        center = Point3(
            world.scenario.wall.distance,
            world.scenario.wall.center_y,
            world.scenario.wall.center_z,
        )
        self.nominal_frame = wall_frame_from_angles(center, 0.0, 0.0)

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

    def arm(self, name: str):
        return self.world.arm(name)

    def station(self, arm: str, kind: str) -> Point3:
        suffix = "1" if arm == "robot1" else "2"
        key = {"tool": f"tool_stand{suffix}", "anchor": f"anchor_stand{suffix}",
               "home": f"home{suffix}", "part": "part_stand"}[kind]
        return self.scenario.station(key)

    def until(self, arm: str, done=None, ticks: float = math.inf):
        """Tick until ``done()`` is true or ``ticks`` ticks passed, or, given
        neither, until the arm's motion ends; raise on the tick the guard
        halts ``arm`` or simulated time passes ``MAX_SIM_TIME``, and re-raise a
        ``SimulationError`` that ``done()`` raised.

        ``done`` is the arm's watcher for the wait: ``World.step`` calls it at
        the end of every tick, so it may record or keep per-tick values. A
        motion's end is an event tick of its own, so waiting for it needs no
        watcher. Each yield is the ticks left of the wait, which may be
        ``math.inf``.
        """
        runtime = self.world.runtime(arm)
        state = runtime.state
        clock = self.world.clock
        end = clock.ticks + ticks
        motion_wait = done is None and ticks == math.inf
        runtime.watcher, runtime.watched = done, False
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
            runtime.watcher = None

    def wait(self, arm: str, seconds: float):
        yield from self.until(arm, ticks=max(1, round(seconds / self.world.dt)))

    def move(self, arm: str, target: Point3, speed: float):
        state = self.arm(arm)
        state.start_move(target, speed)
        if state.motion is not None:
            yield from self.until(arm)

    def feed_until(self, arm: str, speed: float, stop, max_travel: float):
        """Open-ended guarded feed into the wall along the working normal;
        ``stop()`` is evaluated after each tick."""
        state = self.arm(arm)
        state.start_feed(-self.out_normal, speed)

        def done():
            if stop():
                return True
            if state.motion is None or state.motion.travelled > max_travel:
                state.stop()
                raise WrongPose(f"{arm}: feed exceeded {max_travel} m without its stop condition")

        yield from self.until(arm, done)
        state.stop()

    def reading(self, arm: str):
        return self.world.runtime(arm).reading

    def true_wrench(self, arm: str) -> Wrench:
        return self.world.runtime(arm).true_wrench

    @contextmanager
    def contact(self, arm: str, model):
        """Make ``model`` the arm's contact model for the block; it has none
        once the block ends, normally or by an exception."""
        runtime = self.world.runtime(arm)
        runtime.contact_model = model
        try:
            yield
        finally:
            runtime.contact_model = None

    def ensure_tool(self, arm: str, tool: ToolId):
        """Bring the arm to its tool stand and swap to ``tool`` if needed."""
        state = self.arm(arm)
        if state.attached_tool == tool:
            return
        stand = self.station(arm, "tool")
        speed = self.scenario.robot.gross_speed
        yield from self.move(arm, stand, speed)
        if state.attached_tool is not None:
            yield from self.wait(arm, self.scenario.robot.tool_change_time)
            detach_tool(state, stand)
        yield from self.wait(arm, self.scenario.robot.tool_change_time)
        attach_tool(state, tool, stand)

    def return_tool(self, arm: str):
        state = self.arm(arm)
        if state.attached_tool is None:
            return
        stand = self.station(arm, "tool")
        yield from self.move(arm, stand, self.scenario.robot.gross_speed)
        yield from self.wait(arm, self.scenario.robot.tool_change_time)
        detach_tool(state, stand)

    def detect(self, arm: str, kind: DetectionKind, expected: Point3, index: int):
        """Move the camera over ``expected`` and run one detection."""
        view = expected + self.out_normal.scaled(0.25)
        yield from self.move(arm, view, self.scenario.robot.gross_speed)
        yield from self.wait(arm, self.scenario.sensors.detect_time)
        det = camera_detect(
            kind, self.world.site, self.world.streams.get(f"camera.{arm}"), self.scenario.sensors, expected, index
        )
        if det is None:
            raise DetectionMissing(f"{kind.value} not found near {expected}")
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
            points.append(self.arm(arm).position + ray.scaled(distance))
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
        self.arm(arm).held_mass += self.scenario.part.mass
        self.arm(arm).check_payload()

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
        self.arm(arm).held_mass = 0.0
        back = self.arm(arm).position + self.out_normal.scaled(0.10)
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
        det = yield from self.detect(arm, DetectionKind.PART_HOLE, expected, point)
        true_pos = self.world.site.part.hole_world(point)
        self._open[arm].diagnostics.update(
            detection_error=det.position.distance_to(true_pos),
            confidence=det.confidence,
        )
        return det

    def drill_hole(self, arm: str, target: Point3):
        """Steps 3-4 core: approach through the part hole, drill to depth."""
        world = self.world
        robot = self.scenario.robot
        p = self.scenario.procedure
        cfg = self.scenario.tools
        state = self.arm(arm)

        yield from self.ensure_tool(arm, ToolId.DRILL)
        standoff = target + self.out_normal.scaled(robot.approach_standoff + 0.02)
        yield from self.move(arm, standoff, robot.gross_speed)

        def press_model() -> Wrench:
            # Rigid surface contact: force grows with commanded penetration.
            pen = -world.surface_distance(arm)
            return Wrench(fz=robot.contact_stiffness * pen) if pen > 0 else Wrench()

        max_mx = 0.0
        min_mx = 0.0

        def drilling_model() -> Wrench:
            nonlocal max_mx, min_mx
            depth = max(0.0, min(-world.surface_distance(arm), MAX_HOLE_DEPTH))
            mx = drill_reaction_moment(cfg, depth)
            max_mx = max(max_mx, mx)
            min_mx = min(min_mx, mx)
            return Wrench(fz=drill_thrust(depth, cfg), mx=mx)

        # Guarded approach until the bit touches the wall; the bit spins up
        # while it presses.
        with self.contact(arm, press_model):
            yield from self.feed_until(
                arm,
                robot.approach_speed,
                stop=lambda: self.reading(arm) is not None and self.reading(arm).fz >= p.contact_force,
                max_travel=0.2,
            )
            cx, cy, cz = state.x, state.y, state.z  # the commanded contact point
            laser_zero = world.laser_distance(arm)
            slip_zero = world.slip(arm)
            yield from self.wait(arm, self.scenario.tools.drill_spinup_time)

        with self.contact(arm, drilling_model):
            world.runtime(arm).guard_filter.reset()
            use_laser = p.depth_source == "laser"
            measured = 0.0
            # The commanded depth is ``(contact - state.position).dot(out_normal)``,
            # on floats.
            ox, oy, oz = self.out_normal.as_tuple()

            def depth_reached():
                nonlocal measured
                commanded = (cx - state.x) * ox + (cy - state.y) * oy + (cz - state.z) * oz
                if use_laser:
                    measured = laser_zero - world.laser_distance(arm)
                else:
                    measured = commanded
                world.record_depthset(arm, measured, commanded)
                return measured >= p.drill_depth_target

            try:
                yield from self.feed_until(arm, cfg.feed_speed, stop=depth_reached, max_travel=0.12)
            except HaltedByGuard as exc:
                depth_at_halt = max(0.0, -world.surface_distance(arm))
                self._open[arm].diagnostics.update(
                    halt_axis=exc.axis,
                    halt_depth=depth_at_halt,
                    max_mx=max_mx,
                    min_mx=min_mx,
                    variant=cfg.variant,
                )
                raise HaltedByGuard(exc.axis, depth_at_halt) from None

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
            measured_depth=measured,
            slip_during=world.slip(arm) - slip_zero,
            max_mx=max_mx,
            min_mx=min_mx,
            variant=cfg.variant,
        )
        return hole

    def detect_wall_hole(self, arm: str, hole: DrilledHole):
        index = self.world.site.drilled_holes.index(hole)
        det = yield from self.detect(arm, DetectionKind.WALL_HOLE, hole.position, index)
        self._open[arm].diagnostics.update(
            detection_error=det.position.distance_to(hole.position),
            confidence=det.confidence,
        )
        return det

    def pick_anchor(self, arm: str):
        robot = self.scenario.robot
        yield from self.ensure_tool(arm, ToolId.HAMMER)
        yield from self.move(arm, self.station(arm, "anchor"), robot.gross_speed)
        yield from self.wait(arm, self.scenario.tools.grip_time)
        anchor = self.world.site.take_anchor()
        anchor.set_state(AnchorState.GRASPED)
        self.arm(arm).held_mass += anchor.mass
        self.arm(arm).check_payload()
        self._open[arm].diagnostics.update(anchor_mass=anchor.mass)
        return anchor

    def insert_anchor(self, arm: str, target: Point3, anchor: AnchorBolt):
        """Steps 5-7 core: approach the detected hole, search if needed, push
        until the wedge reaches the insertion end moment. Returns the stuck
        depth the laser measured, which hammering starts from."""
        world = self.world
        robot = self.scenario.robot
        p = self.scenario.procedure
        state = self.arm(arm)
        # Wide tolerance: a badly mislocated detection still aims the attempt
        # somewhere, and the search then honestly fails to reach the hole.
        hole = world.site.hole_near(target, tol=0.1)
        if hole is None:
            raise DetectionMissing("no drilled hole near the detected position")
        clearance = p.engagement_clearance

        standoff = target + self.out_normal.scaled(robot.approach_standoff)
        yield from self.move(arm, standoff, robot.gross_speed)

        def engagement_now() -> Engagement:
            return anchor_engagement(world.radial_offset(arm, hole), clearance)

        def wedge_model() -> Wrench:
            pen = max(0.0, -world.surface_distance(arm))
            if engagement_now() is Engagement.ENGAGED:
                moment = p.wedge_moment_rate * pen
                return Wrench(fz=6.0 * moment, mx=moment)
            return Wrench(fz=robot.contact_stiffness * pen) if pen > 0 else Wrench()

        def slide_model() -> Wrench:
            return Wrench(fz=20.0)

        entered = False

        def touch_or_enter():
            nonlocal entered
            pen = -world.surface_distance(arm)
            if pen >= 0.0005 and engagement_now() is Engagement.ENGAGED:
                entered = True
                return True
            r = self.reading(arm)
            return r is not None and r.fz >= 15.0

        with self.contact(arm, wedge_model):
            yield from self.feed_until(arm, robot.approach_speed,
                                       stop=touch_or_enter, max_travel=0.05)
        first_offset = world.radial_offset(arm, hole)
        first = anchor_engagement(first_offset, clearance)
        search_time = 0.0
        probes = 0
        if not entered:
            # Back off to a light slide on the surface and spiral outward.
            surface_cmd = state.position + self.out_normal.scaled(
                -world.surface_distance(arm) + 0.0003
            )
            with self.contact(arm, slide_model):
                yield from self.move(arm, surface_cmd, robot.retract_speed)
                center = state.position
                max_probes = int(p.search_timeout / p.spiral_probe_period)
                t0 = world.t
                frame = self.work_frame
                for dx, dy in spiral_offsets(p.spiral_pitch, p.spiral_probe_spacing, max_probes):
                    state.position = center + frame.x_axis.scaled(dx) + frame.y_axis.scaled(dy)
                    probes += 1
                    yield from self.wait(arm, p.spiral_probe_period)
                    if engagement_now() is Engagement.ENGAGED:
                        break
                else:
                    raise SearchTimeout(
                        f"spiral search exhausted {p.search_timeout} s "
                        f"({probes} probes, first offset {first_offset * 1e3:.2f} mm)"
                    )
                search_time = world.t - t0

        def wedged():
            r = self.reading(arm)
            pen = max(0.0, -world.surface_distance(arm))
            commanded = pen + world.slip(arm)
            # The laser reads the signed distance to the surface plane,
            # so tip penetration is simply its negation.
            world.record_depthset(arm, -world.laser_distance(arm), commanded)
            return r is not None and abs(r.mx) >= p.insertion_end_moment

        with self.contact(arm, wedge_model):
            yield from self.feed_until(arm, robot.approach_speed,
                                       stop=wedged, max_travel=0.03)
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
            search_used=not entered,
            search_time=search_time,
            probes=probes,
            stuck_depth=stuck_depth,
            stuck_measured=stuck_measured,
        )
        return stuck_measured

    def hammer_anchor(self, arm: str, anchor: AnchorBolt, stuck_measured: float):
        """Step 8: release the gripper, hammer until depth and moment say the
        anchor hit the bottom."""
        world = self.world
        p = self.scenario.procedure
        tools_cfg = self.scenario.tools
        state = self.arm(arm)
        hole = anchor.hole

        yield from self.wait(arm, tools_cfg.grip_time)
        self.arm(arm).held_mass = max(0.0, self.arm(arm).held_mass - anchor.mass)

        sx, sy, sz = state.x, state.y, state.z  # the commanded start point
        depth0 = anchor.depth
        slip0 = world.slip(arm)
        laser_zero = world.laser_distance(arm)
        dt = world.dt
        blow_interval = 1.0 / tools_cfg.blow_rate
        blow_elapsed = 0.0
        next_blow = blow_interval
        peak = 0.0
        blows = 0
        bottom_blows = 0
        # The tick works on the floats of ``start - out_normal.scaled(advance)``
        # and ``(start - state.position).dot(out_normal)``, in the same order.
        ox, oy, oz = self.out_normal.as_tuple()

        def hammer_model() -> Wrench:
            nonlocal blow_elapsed, next_blow, peak, blows, bottom_blows
            blow_elapsed += dt
            moment = 1.5
            if blow_elapsed + 1e-12 >= next_blow:
                next_blow += blow_interval
                anchor.depth, peak, bottom_blows = hammer_blow(tools_cfg, anchor.depth, hole, bottom_blows)
                blows += 1
                moment = peak
            if not state.halted:
                advance = (anchor.depth - depth0) + (world.slip(arm) - slip0)
                state.x, state.y, state.z = sx - ox * advance, sy - oy * advance, sz - oz * advance
            return Wrench(fz=tools_cfg.hammer_press_force, mx=moment)

        def bottomed():
            measured_depth = stuck_measured + (laser_zero - world.laser_distance(arm))
            commanded = (sx - state.x) * ox + (sy - state.y) * oy + (sz - state.z) * oz
            world.record_depthset(arm, measured_depth, commanded)
            r = self.reading(arm)
            if r is not None and abs(r.mx) >= p.hammering_end_moment:
                if measured_depth <= p.hammer_success_depth:
                    raise SimulationError(
                        f"bottom contact at {measured_depth * 1e3:.1f} mm, "
                        f"below the {p.hammer_success_depth * 1e3:.0f} mm success depth"
                    )
                return True

        with self.contact(arm, hammer_model):
            yield from self.until(arm, bottomed)

        anchor.set_state(AnchorState.SEATED, depth=anchor.depth)
        displacement = (sx - state.x) * ox + (sy - state.y) * oy + (sz - state.z) * oz
        self._open[arm].diagnostics.update(
            blows=blows,
            displacement=displacement,
            final_depth=anchor.depth,
            measured_depth=stuck_measured + (laser_zero - world.laser_distance(arm)),
            stop_moment=peak,
        )

    def tighten_nut(self, arm: str, anchor: AnchorBolt):
        """Step 9: the six-sub-step tightening protocol."""
        world = self.world
        robot = self.scenario.robot
        tools_cfg = self.scenario.tools
        p = self.scenario.procedure
        hole = anchor.hole
        wall = world.site.wall

        yield from self.ensure_tool(arm, ToolId.NUTRUNNER)
        protrusion = anchor.length - anchor.depth
        head_point = hole.position + wall.normal.scaled(protrusion)
        standoff = head_point + self.out_normal.scaled(robot.approach_standoff)
        yield from self.move(arm, standoff, robot.gross_speed)

        substeps: list[tuple[str, float, float]] = []
        approach_triggers: list[dict] = []
        spring = tools_cfg.socket_spring_rate
        dt = world.dt
        # The peak flange moment is read from this trace of every tick's mx.
        moments = world.recorder.traces[f"{arm}/mx"]
        first_moment = len(moments)

        def spring_model(reference_pen: float):
            def socket_spring_model() -> Wrench:
                compression = protrusion - world.surface_distance(arm) - reference_pen
                return Wrench(fz=spring * compression) if compression > 0 else Wrench()
            return socket_spring_model

        def approach(name: str, reference_pen: float):
            t0 = world.t

            def pressed():
                r = self.reading(arm)
                return r is not None and r.fz >= p.approach_force

            with self.contact(arm, spring_model(reference_pen)):
                yield from self.feed_until(arm, robot.approach_speed,
                                           stop=pressed, max_travel=protrusion + 0.03)
            approach_triggers.append(
                {"reading_fz": self.reading(arm).fz, "true_fz": self.true_wrench(arm).fz}
            )
            substeps.append((name, t0, world.t))

        def current_pen():
            return protrusion - world.surface_distance(arm)

        # (1) approach until the force threshold.
        yield from approach("approach_contact", 0.0)

        # (2) alternate rotation until the socket slots onto the nut.
        t0 = world.t
        fit_elapsed = 0.0
        hold_fz = self.true_wrench(arm).fz
        socket_extension = 0.0  # m, the socket spring's extension signal
        anchor_present = anchor.state in (AnchorState.STUCK, AnchorState.SEATED)

        def fit_model() -> Wrench:
            nonlocal fit_elapsed, socket_extension
            fit_elapsed += dt
            if anchor_present and fit_elapsed >= tools_cfg.socket_fit_time:
                socket_extension = 0.003
                return Wrench(fz=5.0, mx=0.0)
            wiggle = 1.2 if int(fit_elapsed / 0.2) % 2 == 0 else -1.2
            return Wrench(fz=hold_fz, mx=wiggle)

        def fitted():
            r = self.reading(arm)
            if r is not None and r.fz < 10.0 and socket_extension > 0.001:
                return True
            # The fit model's clock has counted every tick of this wait.
            if fit_elapsed > p.socket_fit_timeout:
                raise SocketFitTimeout(f"socket never slotted on within {p.socket_fit_timeout} s")

        with self.contact(arm, fit_model):
            yield from self.until(arm, fitted)
        substeps.append(("socket_fit", t0, world.t))

        # (3) advance again to the force threshold.
        yield from approach("re_approach", current_pen())

        # (4) run the nut down to the part surface.
        t0 = world.t
        run_distance = protrusion - self.scenario.part.thickness - tools_cfg.nut_height
        if run_distance < 0:
            raise SimulationError("anchor does not protrude enough to run the nut")
        if run_distance > tools_cfg.socket_spring_travel:
            raise SimulationError(
                f"nut run {run_distance * 1e3:.0f} mm exceeds the socket spring travel"
            )
        run_duration = run_distance / tools_cfg.nut_run_speed
        run_elapsed = 0.0

        def run_model() -> Wrench:
            nonlocal run_elapsed
            run_elapsed += dt
            frac = min(1.0, run_elapsed / run_duration)
            return Wrench(
                fz=50.0 - 30.0 * frac,
                mx=tools_cfg.pulse_attenuation * tools_cfg.free_run_torque,
            )

        with self.contact(arm, run_model):
            yield from self.wait(arm, run_duration)
        substeps.append(("run_nut", t0, world.t))

        # (5) advance once more.
        yield from approach("re_approach_2", current_pen())

        # (6) pulse-tighten to the target torque.
        t0 = world.t
        pulse_interval = 1.0 / tools_cfg.pulse_rate
        pulse_elapsed = 0.0
        next_pulse = pulse_interval
        torque = 0.0

        def pulse_model() -> Wrench:
            nonlocal pulse_elapsed, next_pulse, torque
            pulse_elapsed += dt
            flange = tools_cfg.pulse_attenuation * torque
            if pulse_elapsed + 1e-12 >= next_pulse:
                next_pulse += pulse_interval
                torque, flange = nutrunner_pulse(tools_cfg, torque)
            return Wrench(fz=50.0, mx=flange)

        def tightened():
            return torque >= tools_cfg.target_torque

        with self.contact(arm, pulse_model):
            yield from self.until(arm, tightened)
        substeps.append(("pulse_tighten", t0, world.t))
        max_moment = max(map(abs, moments.values[first_moment:].tolist()))

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

    def fix_point(self, arm: str, point: int):
        """Steps 3 through 9 for one fixation point."""
        det_part = yield from self.guarded(
            FixationStep.DETECT_PART_HOLE, point, arm, self.detect_part_hole(arm, point)
        )
        hole = yield from self.guarded(
            FixationStep.DRILL_HOLE, point, arm, self.drill_hole(arm, det_part.position)
        )
        det_hole = yield from self.guarded(
            FixationStep.DETECT_WALL_HOLE, point, arm, self.detect_wall_hole(arm, hole)
        )
        anchor = yield from self.guarded(
            FixationStep.PICK_ANCHOR, point, arm, self.pick_anchor(arm)
        )
        stuck_measured = yield from self.guarded(
            FixationStep.INSERT_ANCHOR, point, arm,
            self.insert_anchor(arm, det_hole.position, anchor),
        )
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
    ctx.world.site.anchors_in_stand = [AnchorBolt() for _ in range(plan.n_points)]

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


def _mission_insert_core(ctx: MissionContext, hole: DrilledHole):
    det = yield from ctx.guarded(
        FixationStep.DETECT_WALL_HOLE, 0, "robot1", ctx.detect_wall_hole("robot1", hole)
    )
    anchor = yield from ctx.guarded(
        FixationStep.PICK_ANCHOR, 0, "robot1", ctx.pick_anchor("robot1")
    )
    stuck_measured = yield from ctx.guarded(
        FixationStep.INSERT_ANCHOR, 0, "robot1",
        ctx.insert_anchor("robot1", det.position, anchor),
    )
    return anchor, stuck_measured


def mission_insert(ctx: MissionContext):
    """Insertion only: detect the pre-drilled hole, pick, insert (with search)."""
    ctx.world.site.anchors_in_stand = [AnchorBolt()]
    hole = _preset_hole(ctx)
    yield from _mission_insert_core(ctx, hole)


def mission_hammer(ctx: MissionContext):
    """Anchor protocol: insert into a pre-drilled hole, then hammer it home."""
    ctx.world.site.anchors_in_stand = [AnchorBolt()]
    hole = _preset_hole(ctx)
    anchor, stuck_measured = yield from _mission_insert_core(ctx, hole)
    yield from ctx.guarded(
        FixationStep.HAMMER_ANCHOR, 0, "robot1",
        ctx.hammer_anchor("robot1", anchor, stuck_measured),
    )
    yield from ctx.return_tool("robot1")


def _seated_anchor(ctx: MissionContext, hole: DrilledHole) -> AnchorBolt:
    anchor = AnchorBolt()
    anchor.set_state(AnchorState.GRASPED)
    seated = hole.depth - 0.001
    ctx.world.site.place_anchor_in_hole(anchor, hole, depth=min(0.007, seated))
    anchor.set_state(AnchorState.SEATED, depth=seated)
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
    anchor.depth = hole.depth - 0.001
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

