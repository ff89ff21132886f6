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

from .errors import ScenarioInvalid
from .geometry import Point3
from .tools import DrillVariant
from .worksite import BACK_COVER_MARGIN, MAX_HOLE_DEPTH


@dataclass
class WallSection:
    distance: float = 0.90  # m, wall plane from the base-frame origin along +x
    center_y: float = 0.0  # m, wall centre in base frame
    center_z: float = 1.00  # m
    width: float = 0.20  # m
    height: float = 0.30  # m
    thickness: float = 0.15  # m
    compressive_strength: float = 24.0  # N/mm^2
    yaw_deg: float = 0.0  # wall rotation about vertical; 0 faces the robots
    pitch_deg: float = 0.0  # wall tip-back angle


@dataclass
class PartSection:
    holes: int = 1  # fixation points on the part
    hole_spacing: float = 0.15  # m between adjacent holes
    hole_diameter: float = 0.014  # m; wider than the 12 mm bit by design
    thickness: float = 0.006  # m
    mass: float = 1.5  # kg
    target_x: float = 0.0  # m, placement target in wall coordinates
    target_y: float = 0.0  # m
    placement_sigma: float = 0.002  # m per axis placement error


@dataclass
class ToolsSection:
    variant: str = "constant_load_spring"  # drill compensation variant
    drill_offset: float = 0.10  # m, drill axis offset from flange axis
    support_arm_offset: float = 0.20  # m, support rod lever arm
    spring_rate: float = 2150.0  # N/m, regular spring
    spring_preload: float = 0.10  # m compression at wall contact
    constant_load_force: float = 147.0  # N, constant load spring
    bit_diameter: float = 0.012  # m
    bit_length: float = 0.160  # m
    feed_speed: float = 0.00225  # m/s drilling feed
    thrust_at_contact: float = 280.0  # N, thrust line intercept
    thrust_per_meter: float = 2000.0  # N/m, thrust line slope
    aligned_tip_lever: float = 0.10  # m, in-line tool comparison lever
    aligned_error_lever: float = 0.005  # m, perpendicularity error lever
    drill_spinup_time: float = 1.0  # s before the feed starts
    inflation_pressure: float = 0.15  # MPa, rubber gripper
    blow_rate: float = 3.0  # Hz, hammer blows
    blow_advance: float = 0.001  # m per blow into an empty hole
    hammer_free_moment: float = 8.0  # Nm peak while advancing
    hammer_contact_ramp: float = 7.0  # Nm per blow at the bottom
    hammer_contact_cap: float = 29.0  # Nm peak at solid contact
    hammer_press_force: float = 150.0  # N feed force while hammering
    grip_time: float = 2.0  # s to inflate or deflate the gripper
    target_torque: float = 50.0  # Nm nut tightening target
    pulse_attenuation: float = 0.4  # flange moment / fastener torque
    socket_spring_travel: float = 0.035  # m
    socket_spring_rate: float = 10000.0  # N/m, approach contact stiffness
    runner_offset: float = 0.05  # m, nut runner offset from flange
    pulse_torque_step: float = 1.0  # Nm added per pulse
    pulse_rate: float = 10.0  # Hz tightening pulses
    nut_run_speed: float = 0.0035  # m/s nut advance while running free
    nut_height: float = 0.010  # m
    free_run_torque: float = 3.0  # Nm while running the nut down
    socket_fit_time: float = 3.0  # s of alternation before the socket slots on
    magnet_switch_time: float = 1.0  # s to switch the part magnet


@dataclass
class SensorsSection:
    force_limit: float = 1000.0  # N, overload guard
    moment_limit: float = 30.0  # Nm, overload guard
    ft_sigma_force: float = 2.0  # N, FT noise
    ft_sigma_moment: float = 0.2  # Nm, FT noise
    guard_filter_window: float = 0.25  # s of moving average behind the guard
    laser_sigma: float = 0.0001  # m, laser distance noise
    p_detect: float = 0.98  # camera detection probability
    camera_sigma_wall: float = 0.0015  # m, wall hole / anchor detections (assumed)
    camera_sigma_part: float = 0.0010  # m, part hole detections (assumed)
    camera_fov: float = 0.2  # m lateral field of view
    detect_time: float = 2.0  # s per camera detection


@dataclass
class RobotSection:
    reach: float = 1.298  # m
    payload: float = 13.0  # kg
    mass_drill: float = 6.0  # kg
    mass_hammer: float = 4.0  # kg
    mass_nutrunner: float = 5.0  # kg
    mass_gripper: float = 1.0  # kg
    tool_change_time: float = 25.0  # s per attach or detach
    slip_coefficient: float = 2e-7  # m/(N*s) platform slip under wall force
    gross_speed: float = 0.06  # m/s free motion between stations
    approach_speed: float = 0.002  # m/s guarded approach
    retract_speed: float = 0.05  # m/s
    approach_standoff: float = 0.010  # m standoff before guarded approaches
    contact_stiffness: float = 200000.0  # N/m wall contact for touch detection
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
    drill_depth_target: float = 0.080  # m
    search_timeout: float = 60.0  # s
    spiral_pitch: float = 0.00035  # m radial growth per turn
    spiral_probe_spacing: float = 0.00016  # m between probes along the arc
    spiral_probe_period: float = 0.05  # s per probe
    socket_fit_timeout: float = 10.0  # s
    orientation_offset: float = 0.10  # m between the three laser points
    laser_standoff: float = 0.15  # m wall standoff while measuring
    depth_source: str = "laser"  # "laser" or "commanded" drill depth feedback
    engagement_clearance: float = 0.0002  # m insertion clearance radius
    wedge_moment_rate: float = 3571.4  # Nm/m wedge resistance (25 Nm at ~7 mm)
    timestep: float = 0.01  # s engine tick


_SECTION_TYPES = {
    "wall": WallSection,
    "part": PartSection,
    "tools": ToolsSection,
    "sensors": SensorsSection,
    "robot": RobotSection,
    "procedure": ProcedureSection,
}

_VARIANTS = {v.value for v in DrillVariant}
_DEPTH_SOURCES = {"laser", "commanded"}

#: Keys that must be strictly positive: a zero or negative value divides by
#: zero or breaks a tool model, a motion or the spiral partway through a mission.
_POSITIVE = (
    "wall.compressive_strength", "part.hole_diameter",
    "tools.drill_offset", "tools.support_arm_offset", "tools.blow_rate",
    "tools.target_torque", "tools.socket_spring_travel", "tools.pulse_rate",
    "tools.feed_speed", "tools.nut_run_speed",
    "sensors.force_limit", "sensors.moment_limit",
    "robot.gross_speed", "robot.approach_speed", "robot.retract_speed",
    "procedure.spiral_pitch", "procedure.spiral_probe_spacing", "procedure.spiral_probe_period",
    "procedure.timestep",
)


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

    def validate(self):
        for section in _SECTION_TYPES:
            target = getattr(self, section)
            for f in fields(target):
                value = getattr(target, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ScenarioInvalid(f"{section}.{f.name}", "must be finite")
        if self.tools.variant not in _VARIANTS:
            raise ScenarioInvalid("tools.variant", f"must be one of {sorted(_VARIANTS)}")
        if self.procedure.depth_source not in _DEPTH_SOURCES:
            raise ScenarioInvalid("procedure.depth_source", f"must be one of {sorted(_DEPTH_SOURCES)}")
        if self.part.holes < 1:
            raise ScenarioInvalid("part.holes", "need at least one fixation hole")
        for name in _POSITIVE:
            section, key = name.split(".")
            if getattr(getattr(self, section), key) <= 0:
                raise ScenarioInvalid(name, "must be positive")
        if not 0 <= self.sensors.p_detect <= 1:
            raise ScenarioInvalid("sensors.p_detect", "must be a probability")
        if not 0 < self.tools.pulse_attenuation <= 1:
            raise ScenarioInvalid("tools.pulse_attenuation", "must be in (0, 1]")
        if self.tools.variant == DrillVariant.REGULAR_SPRING and self.tools.spring_rate <= 0:
            raise ScenarioInvalid("tools.spring_rate", "the regular spring needs a positive rate")
        if self.tools.variant == DrillVariant.CONSTANT_LOAD_SPRING and self.tools.constant_load_force <= 0:
            raise ScenarioInvalid("tools.constant_load_force", "the constant load spring needs a positive force")
        if self.wall.thickness < MAX_HOLE_DEPTH + BACK_COVER_MARGIN:
            raise ScenarioInvalid(
                "wall.thickness",
                f"cannot take a {MAX_HOLE_DEPTH} m hole plus {BACK_COVER_MARGIN} m cover",
            )
        if self.procedure.hammering_end_moment >= self.sensors.moment_limit:
            raise ScenarioInvalid(
                "procedure.hammering_end_moment",
                f"must stay below the {self.sensors.moment_limit} Nm guard",
            )
        if self.procedure.hammer_success_depth >= self.procedure.drill_depth_target:
            raise ScenarioInvalid(
                "procedure.hammer_success_depth", "must be below the drill target depth"
            )
        for key in (
            "base1", "base2", "home1", "home2", "tool_stand1", "anchor_stand1",
            "tool_stand2", "anchor_stand2", "part_stand",
        ):
            _parse_point(f"robot.{key}", getattr(self.robot, key))
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
        if isinstance(default, bool):
            return raw.strip().lower() in ("1", "true", "yes", "on")
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
            default = getattr(_SECTION_TYPES[section](), key)
            setattr(target, key, _coerce(f"{section}.{key}", raw, default))
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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioInvalid(str(path), f"cannot read scenario: {exc}") from None
    return parse_scenario(text)
