"""Scenario files: the sectioned key-value text that configures a run.

A scenario stands in for the building data that would normally supply target
poses; everything has a documented default, so an empty file is the nominal
setup. Unknown sections or keys are rejected rather than ignored.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

from .errors import ScenarioInvalid
from .geometry import MIN_TRIANGLE_AREA, Frame, Point3
from .tools import BOTTOM_CONTACT_BAND, DrillVariant
from .worksite import BACK_COVER_MARGIN, MAX_HOLE_DEPTH, AnchorBolt, default_hole_pattern, wall_frame_from_angles

#: Decimal places of the time stamps in exported traces. ``procedure.timestep``
#: may not be finer than one unit in the last place, or stamps would repeat.
STAMP_DECIMALS = 4
MIN_TIMESTEP = 10.0**-STAMP_DECIMALS

#: Ceiling on simulated time; the executive's tick loop fails the open step
#: with ``SimTimeExceeded`` once it is passed.
MAX_SIM_TIME = 7200.0


class Check(NamedTuple):
    """A rule one scenario value must pass, and the reason an error gives."""

    passes: Callable[[object], bool]
    reason: str


def checked(default, check: Check):
    """A scenario field: its default, and the check every value must pass."""
    return field(default=default, metadata={"check": check})


#: A zero or negative value divides by zero or breaks a tool model, a motion
#: or the spiral partway through a mission.
POSITIVE = Check(lambda v: v > 0, "must be positive")
#: A negative noise level flips the sign of the noise or turns it off, a
#: negative dwell runs as a one-tick dwell and a negative socket fit time as
#: a zero one, a negative free-run torque runs the nut the wrong way, and a
#: negative mass hides other mass from the payload check.
NON_NEGATIVE = Check(lambda v: v >= 0, "must not be negative")


def one_of(*values: str) -> Check:
    return Check(lambda v: v in values, f"must be one of {sorted(values)}")


PROBABILITY = Check(lambda p: 0 <= p <= 1, "must be a probability")
FRACTION = Check(lambda a: 0 < a <= 1, "must be in (0, 1]")
HOLDS_A_FULL_HOLE = Check(
    lambda t: t >= MAX_HOLE_DEPTH + BACK_COVER_MARGIN,
    f"cannot take a {MAX_HOLE_DEPTH} m hole plus {BACK_COVER_MARGIN} m cover",
)
DRILLABLE = Check(
    lambda d: 0 < d <= MAX_HOLE_DEPTH, f"must be positive and not exceed the {MAX_HOLE_DEPTH} m the drill bit can drill"
)
#: A window of zero or less runs as one sample, and one longer than a run can
#: last never fills; the guard keeps a sample per tick of it.
GUARD_WINDOW = Check(
    lambda w: 0 < w <= MAX_SIM_TIME, f"must be positive and not exceed the {MAX_SIM_TIME} s a run can last"
)
STAMP_RESOLUTION = Check(
    lambda t: t >= MIN_TIMESTEP, f"must be at least {MIN_TIMESTEP} s, the resolution of exported time stamps"
)


@dataclass
class WallSection:
    distance: float = 0.90  # m, wall plane from the base-frame origin along +x
    center_y: float = 0.0  # m, wall centre in base frame
    center_z: float = 1.00  # m
    width: float = checked(0.20, POSITIVE)  # m
    height: float = checked(0.30, POSITIVE)  # m
    thickness: float = checked(0.15, HOLDS_A_FULL_HOLE)  # m
    compressive_strength: float = checked(24.0, POSITIVE)  # N/mm^2
    yaw_deg: float = 0.0  # wall rotation about vertical; 0 faces the robots
    pitch_deg: float = 0.0  # wall tip-back angle


@dataclass
class PartSection:
    holes: int = checked(1, Check(lambda n: n >= 1, "need at least one fixation hole"))  # fixation points on the part
    hole_spacing: float = 0.15  # m between adjacent holes
    hole_diameter: float = checked(0.014, POSITIVE)  # m; wider than the 12 mm bit by design
    thickness: float = 0.006  # m
    mass: float = checked(1.5, NON_NEGATIVE)  # kg
    target_x: float = 0.0  # m, placement target in wall coordinates
    target_y: float = 0.0  # m
    placement_sigma: float = checked(0.002, NON_NEGATIVE)  # m per axis placement error


@dataclass
class ToolsSection:
    variant: str = checked("constant_load_spring", one_of(*(v.value for v in DrillVariant)))  # drill compensation
    drill_offset: float = checked(0.10, POSITIVE)  # m, drill axis offset from flange axis
    support_arm_offset: float = checked(0.20, POSITIVE)  # m, support rod lever arm
    spring_rate: float = 2150.0  # N/m, regular spring
    spring_preload: float = 0.10  # m compression at wall contact
    constant_load_force: float = 147.0  # N, constant load spring
    bit_diameter: float = 0.012  # m
    bit_length: float = 0.160  # m
    feed_speed: float = checked(0.00225, POSITIVE)  # m/s drilling feed
    thrust_at_contact: float = 280.0  # N, thrust line intercept
    thrust_per_meter: float = 2000.0  # N/m, thrust line slope
    aligned_tip_lever: float = 0.10  # m, in-line tool comparison lever
    aligned_error_lever: float = 0.005  # m, perpendicularity error lever
    drill_spinup_time: float = checked(1.0, NON_NEGATIVE)  # s before the feed starts
    inflation_pressure: float = 0.15  # MPa, rubber gripper
    blow_rate: float = checked(3.0, POSITIVE)  # Hz, hammer blows
    blow_advance: float = checked(0.001, POSITIVE)  # m per blow into an empty hole
    hammer_free_moment: float = 8.0  # Nm peak while advancing
    hammer_contact_ramp: float = checked(7.0, POSITIVE)  # Nm per blow at the bottom
    hammer_contact_cap: float = 29.0  # Nm peak at solid contact
    hammer_press_force: float = 150.0  # N feed force while hammering
    grip_time: float = checked(2.0, NON_NEGATIVE)  # s to inflate or deflate the gripper
    target_torque: float = checked(50.0, POSITIVE)  # Nm nut tightening target
    pulse_attenuation: float = checked(0.4, FRACTION)  # flange moment / fastener torque
    socket_spring_travel: float = checked(0.035, POSITIVE)  # m
    socket_spring_rate: float = 10000.0  # N/m, approach contact stiffness
    runner_offset: float = 0.05  # m, nut runner offset from flange
    pulse_torque_step: float = checked(1.0, POSITIVE)  # Nm added per pulse
    pulse_rate: float = checked(10.0, POSITIVE)  # Hz tightening pulses
    nut_run_speed: float = checked(0.0035, POSITIVE)  # m/s nut advance while running free
    nut_height: float = 0.010  # m
    free_run_torque: float = checked(3.0, NON_NEGATIVE)  # Nm while running the nut down
    socket_fit_time: float = checked(3.0, NON_NEGATIVE)  # s of alternation before the socket slots on
    magnet_switch_time: float = checked(1.0, NON_NEGATIVE)  # s to switch the part magnet


@dataclass
class SensorsSection:
    force_limit: float = checked(1000.0, POSITIVE)  # N, overload guard
    moment_limit: float = checked(30.0, POSITIVE)  # Nm, overload guard
    ft_sigma_force: float = checked(2.0, NON_NEGATIVE)  # N, FT noise
    ft_sigma_moment: float = checked(0.2, NON_NEGATIVE)  # Nm, FT noise
    guard_filter_window: float = checked(0.25, GUARD_WINDOW)  # s of moving average behind the guard
    laser_sigma: float = checked(0.0001, NON_NEGATIVE)  # m, laser distance noise
    p_detect: float = checked(0.98, PROBABILITY)  # camera detection probability
    camera_sigma_wall: float = checked(0.0015, NON_NEGATIVE)  # m, wall hole / anchor detections (assumed)
    camera_sigma_part: float = checked(0.0010, NON_NEGATIVE)  # m, part hole detections (assumed)
    camera_fov: float = checked(0.2, POSITIVE)  # m lateral field of view
    detect_time: float = checked(2.0, NON_NEGATIVE)  # s per camera detection


@dataclass
class RobotSection:
    reach: float = 1.298  # m
    payload: float = checked(13.0, POSITIVE)  # kg
    mass_drill: float = checked(6.0, NON_NEGATIVE)  # kg
    mass_hammer: float = checked(4.0, NON_NEGATIVE)  # kg
    mass_nutrunner: float = checked(5.0, NON_NEGATIVE)  # kg
    mass_gripper: float = checked(1.0, NON_NEGATIVE)  # kg
    tool_change_time: float = checked(25.0, NON_NEGATIVE)  # s per attach or detach
    slip_coefficient: float = checked(2e-7, NON_NEGATIVE)  # m/(N*s) platform slip under wall force
    gross_speed: float = checked(0.06, POSITIVE)  # m/s free motion between stations
    approach_speed: float = checked(0.002, POSITIVE)  # m/s guarded approach
    retract_speed: float = checked(0.05, POSITIVE)  # m/s
    approach_standoff: float = 0.010  # m standoff before guarded approaches
    contact_stiffness: float = checked(200000.0, POSITIVE)  # N/m wall contact for touch detection
    base1: str = "0.0,-0.30,0.75"  # robot 1 base, base-frame metres
    base2: str = "0.0,0.50,0.75"
    home1: str = "0.35,-0.40,1.00"
    home2: str = "0.30,0.65,1.00"
    tool_stand1: str = "0.15,-0.70,0.80"
    anchor_stand1: str = "0.35,-0.70,0.80"
    tool_stand2: str = "0.15,1.20,0.80"
    anchor_stand2: str = "0.35,1.20,0.80"
    part_stand: str = "0.20,0.95,0.80"


@dataclass
class ProcedureSection:
    insertion_end_moment: float = 25.0  # Nm; kept under the 30 Nm guard
    hammering_end_moment: float = 27.0  # Nm
    hammer_success_depth: float = 0.070  # m
    approach_force: float = 50.0  # N, nut approach trigger
    contact_force: float = 20.0  # N, drill touch trigger
    drill_depth_target: float = checked(0.080, DRILLABLE)  # m
    search_timeout: float = checked(60.0, POSITIVE)  # s
    spiral_pitch: float = checked(0.00035, POSITIVE)  # m radial growth per turn
    spiral_probe_spacing: float = checked(0.00016, POSITIVE)  # m between probes along the arc
    spiral_probe_period: float = checked(0.05, POSITIVE)  # s per probe
    socket_fit_timeout: float = checked(10.0, POSITIVE)  # s
    orientation_offset: float = 0.10  # m between the three laser points
    laser_standoff: float = 0.15  # m wall standoff while measuring
    depth_source: str = checked("laser", one_of("laser", "commanded"))  # drill depth feedback
    engagement_clearance: float = checked(0.0002, POSITIVE)  # m insertion clearance radius
    wedge_moment_rate: float = checked(3571.4, POSITIVE)  # Nm/m wedge resistance (25 Nm at ~7 mm)
    timestep: float = checked(0.01, STAMP_RESOLUTION)  # s engine tick


_SECTION_TYPES = {
    "wall": WallSection,
    "part": PartSection,
    "tools": ToolsSection,
    "sensors": SensorsSection,
    "robot": RobotSection,
    "procedure": ProcedureSection,
}


@dataclass
class Scenario:
    wall: WallSection = field(default_factory=WallSection)
    part: PartSection = field(default_factory=PartSection)
    tools: ToolsSection = field(default_factory=ToolsSection)
    sensors: SensorsSection = field(default_factory=SensorsSection)
    robot: RobotSection = field(default_factory=RobotSection)
    procedure: ProcedureSection = field(default_factory=ProcedureSection)

    def station(self, key: str) -> Point3:
        return _parse_point(f"robot.{key}", getattr(self.robot, key))

    def nominal_frame(self) -> Frame:
        """The design wall frame, untilted at ``wall.distance``, ``center_y``
        and ``center_z``: what the executive believes before it measures. It
        ignores the true ``yaw_deg`` and ``pitch_deg``."""
        w = self.wall
        return wall_frame_from_angles(Point3(w.distance, w.center_y, w.center_z), 0.0, 0.0)

    def laser_points(self) -> list[Point3]:
        """The three tool points robot 1 reads the laser from to estimate the
        wall's orientation: an L of ``orientation_offset`` legs,
        ``laser_standoff`` off the nominal wall, centred so all three rays
        stay on the wall even at full offset on the small test block."""
        p = self.procedure
        prior = self.nominal_frame()
        first = (
            prior.origin
            + prior.z_axis.scaled(p.laser_standoff)
            + prior.x_axis.scaled(-p.orientation_offset / 2)
            + prior.y_axis.scaled(-p.orientation_offset / 2)
        )
        offsets = [
            Point3(0.0, 0.0, 0.0),
            prior.x_axis.scaled(p.orientation_offset),
            prior.y_axis.scaled(p.orientation_offset),
        ]
        return [first + offset for offset in offsets]

    def validate(self):
        for section in _SECTION_TYPES:
            target = getattr(self, section)
            for f in fields(target):
                value = getattr(target, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ScenarioInvalid(f"{section}.{f.name}", "must be finite")
                check = f.metadata.get("check")
                if check is not None and not check.passes(value):
                    raise ScenarioInvalid(f"{section}.{f.name}", check.reason)
        # The rules below compare two keys.
        tools, p = self.tools, self.procedure
        if tools.variant == DrillVariant.REGULAR_SPRING and tools.spring_rate <= 0:
            raise ScenarioInvalid("tools.spring_rate", "the regular spring needs a positive rate")
        if tools.variant == DrillVariant.CONSTANT_LOAD_SPRING and tools.constant_load_force <= 0:
            raise ScenarioInvalid("tools.constant_load_force", "the constant load spring needs a positive force")
        if p.hammering_end_moment >= self.sensors.moment_limit:
            raise ScenarioInvalid(
                "procedure.hammering_end_moment",
                f"must stay below the {self.sensors.moment_limit} Nm guard",
            )
        # Hammering stops only on a blow whose peak reaches the end moment.
        if tools.hammer_contact_cap < p.hammering_end_moment:
            reason = f"must reach procedure.hammering_end_moment = {p.hammering_end_moment!r} Nm"
            raise ScenarioInvalid("tools.hammer_contact_cap", reason)
        # The insertion push only stops when the wedge moment reaches its end
        # moment, so a hole no deeper than that push cannot take the anchor.
        push = p.insertion_end_moment / p.wedge_moment_rate
        if p.drill_depth_target <= push:
            raise ScenarioInvalid(
                "procedure.drill_depth_target", f"must be deeper than the {push!r} m the insertion push reaches"
            )
        if p.hammer_success_depth >= p.drill_depth_target:
            raise ScenarioInvalid(
                "procedure.hammer_success_depth", "must be below the drill target depth"
            )
        # The three orientation laser points span an L whose triangle the
        # frame estimate needs; a smaller one is degenerate however they read.
        if 0.5 * p.orientation_offset * p.orientation_offset <= MIN_TRIANGLE_AREA:
            reason = f"must span a laser triangle of more than {MIN_TRIANGLE_AREA!r} m^2"
            raise ScenarioInvalid("procedure.orientation_offset", reason)
        # Hammering stops only inside BOTTOM_CONTACT_BAND of the bottom, and
        # ``nut-test`` seats the anchor that far short of it, so in the
        # deepest hole the nut runs this far down it; the spring must take it.
        seat = MAX_HOLE_DEPTH - BOTTOM_CONTACT_BAND
        nut_run = AnchorBolt.length - seat - self.part.thickness - tools.nut_height
        if tools.socket_spring_travel < nut_run:
            reason = f"must take the nut run of {nut_run!r} m down an anchor seated {seat!r} m deep"
            raise ScenarioInvalid("tools.socket_spring_travel", reason)
        if tools.socket_fit_time > p.socket_fit_timeout:
            reason = f"must not exceed procedure.socket_fit_timeout = {p.socket_fit_timeout!r} s"
            raise ScenarioInvalid("tools.socket_fit_time", reason)
        # The hammer and the nut runner strike at most one impulse a tick,
        # so a shorter interval between impulses would be capped unseen.
        for key in ("blow_rate", "pulse_rate"):
            if 1 / getattr(tools, key) < p.timestep:
                reason = f"must strike at most once per procedure.timestep = {p.timestep!r} s tick"
                raise ScenarioInvalid(f"tools.{key}", reason)
        # Each tool, with what it holds, must be within the payload: the
        # hammer holds the anchor on robot 1, the gripper the part on robot 2.
        robot = self.robot
        loads = {
            "drill": robot.mass_drill,
            "hammer with the anchor": robot.mass_hammer + AnchorBolt.mass,
            "nutrunner": robot.mass_nutrunner,
            "gripper with the part": robot.mass_gripper + self.part.mass,
        }
        tool, load = max(loads.items(), key=lambda item: item[1])
        if load > robot.payload:
            raise ScenarioInvalid("robot.payload", f"{robot.payload!r} kg cannot carry the {tool}, {load!r} kg")
        # Each probe dwells a whole number of ticks, but the search counts
        # its budget in probe periods, so any other period overruns it.
        probe_ticks = p.spiral_probe_period / p.timestep
        if not (math.isfinite(probe_ticks) and math.isclose(probe_ticks, round(probe_ticks), rel_tol=1e-9)):
            reason = f"must be a whole number of procedure.timestep = {p.timestep!r} s ticks"
            raise ScenarioInvalid("procedure.spiral_probe_period", reason)
        # The search runs whole probes within its budget, so a longer probe
        # would overrun it before the first ends.
        if p.spiral_probe_period > p.search_timeout:
            reason = f"must not exceed procedure.search_timeout = {p.search_timeout!r} s"
            raise ScenarioInvalid("procedure.spiral_probe_period", reason)
        # Whole holes, not just their centres, must lie on the wall, and
        # adjacent holes must not overlap.
        part = self.part
        radius = part.hole_diameter / 2
        half_width, half_height = self.wall.width / 2, self.wall.height / 2
        if abs(part.target_x) + radius > half_width:
            raise ScenarioInvalid("part.target_x", f"puts a hole beyond the wall's {half_width} m half-width")
        if abs(part.target_y) + radius > half_height:
            raise ScenarioInvalid("part.target_y", f"puts a hole beyond the wall's {half_height} m half-height")
        if part.holes >= 2 and part.hole_spacing < part.hole_diameter:
            raise ScenarioInvalid("part.hole_spacing", f"overlaps holes {part.hole_diameter} m wide")
        if abs(part.target_x) + part.hole_spacing * (part.holes - 1) / 2 + radius > half_width:
            raise ScenarioInvalid(
                "part.hole_spacing", f"{part.holes} holes run off the wall's {half_width} m half-width"
            )
        # Every string field of the robot section is a station; part_stand
        # belongs to robot 2.
        reach = self.robot.reach
        keys = [f.name for f in fields(self.robot) if isinstance(getattr(self.robot, f.name), str)]
        stations = {key: self.station(key) for key in keys}
        for key, point in stations.items():
            d = stations["base1" if key.endswith("1") else "base2"].distance_to(point)
            if d > reach:
                raise ScenarioInvalid(f"robot.{key}", f"{d:.3f} m from its base exceeds the {reach} m reach")
        for point in self.laser_points():
            d = stations["base1"].distance_to(point)
            if d > reach:
                reason = f"puts an orientation laser point {d:.3f} m from robot.base1, beyond the {reach} m reach"
                raise ScenarioInvalid("wall.distance", reason)
        # On the nominal wall, robot 2 places the part at its target from
        # 5 cm out, and the arm that works each hole views it from 0.25 m
        # out and drills it to the drill target. A target_x that takes one
        # of these points out of that arm's reach, where the same point at
        # target_x = 0 is within it, would fail the step.
        from .procedure import schedule_dual_arm  # the executive's plan; it imports this module

        frame = self.nominal_frame()
        work = [("base2", 0.0, 0.0, out) for out in (0.05, 0.0)]
        holes = default_hole_pattern(part.holes, part.hole_spacing)
        for phase in schedule_dual_arm(part.holes).phases:
            for index, arm in phase.assignments:
                base = "base1" if arm == "robot1" else "base2"
                work += [(base, holes[index].x, holes[index].y, out) for out in (0.25, -p.drill_depth_target)]
        for base, x, y, out in work:
            distances = [
                stations[base].distance_to(
                    frame.origin + frame.x_axis.scaled(dx + x) + frame.y_axis.scaled(part.target_y + y)
                    + frame.z_axis.scaled(out)
                )
                for dx in (part.target_x, 0.0)
            ]
            if distances[0] > reach >= distances[1]:
                reason = f"puts a point it works {distances[0]:.3f} m from robot.{base}, beyond the {reach} m reach"
                raise ScenarioInvalid("part.target_x", reason)
        return self


def _parse_point(field_name: str, text: str) -> Point3:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ScenarioInvalid(field_name, f"expected 'x,y,z', got {text!r}")
    try:
        return Point3(*(float(p) for p in parts))
    except ValueError as exc:
        raise ScenarioInvalid(field_name, str(exc)) from None


def _coerce(field_name: str, raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw.strip()
    except ValueError:
        raise ScenarioInvalid(field_name, f"cannot parse {raw!r} as {type(default).__name__}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; missing keys fall back to documented defaults."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioInvalid("<file>", str(exc)) from None
    scenario = Scenario()
    for section in cp.sections():
        if section not in _SECTION_TYPES:
            raise ScenarioInvalid(section, "unknown section")
        target = getattr(scenario, section)
        known = {f.name: f for f in fields(target)}
        for key, raw in cp.items(section):
            if key not in known:
                raise ScenarioInvalid(f"{section}.{key}", "unknown key")
            setattr(target, key, _coerce(f"{section}.{key}", raw, known[key].default))
    return scenario.validate()


def render_scenario(scenario: Scenario) -> str:
    """Render every key of a scenario; parse(render(s)) == s."""
    out = io.StringIO()
    for section, cls in _SECTION_TYPES.items():
        out.write(f"[{section}]\n")
        target = getattr(scenario, section)
        for f in fields(cls):
            value = getattr(target, f.name)
            if isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            out.write(f"{f.name} = {text}\n")
        out.write("\n")
    return out.getvalue()


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(render_scenario(scenario).encode("ascii")).hexdigest()


def load_scenario(path: str | None) -> Scenario:
    if path is None:
        return Scenario().validate()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioInvalid(str(path), f"cannot read scenario: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioInvalid(str(path), f"not UTF-8 text: {exc}") from None
    return parse_scenario(text)
