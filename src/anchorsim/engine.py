"""Fixed-timestep simulation core: clock, random streams, traces, world.

Everything that happens in a run is a function of (scenario, seed, dt): the
clock never reads wall time, every sensor draws from its own seeded stream,
and the per-tick order (advance motions, evaluate contacts, sample sensors,
check the guard) is fixed, so identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotonicTime
from .geometry import Point3
from .robot import ArmState, PlatformState, ToolId
from .scenario import Scenario, scenario_hash
from .sensors import FTReading, GuardFilter, Wrench, ZERO_WRENCH, overload_guard, read_ft, read_laser
from .tools import GripperTool, HammerTool, NutRunnerTool
from .worksite import StructuralPart, Wall, Worksite, default_hole_pattern, wall_frame_from_angles

TRACE_CHANNELS = (
    "fx", "fy", "fz", "mx", "my", "mz",
    "laser_depth", "commanded_depth", "slip",
)

#: Ceiling on simulated time; the executive's tick loop fails the open step
#: with ``SimTimeExceeded`` once it is passed.
MAX_SIM_TIME = 7200.0


@dataclass
class SimClock:
    dt: float
    t: float = 0.0
    ticks: int = 0

    def tick(self) -> float:
        self.ticks += 1
        self.t = self.ticks * self.dt
        return self.t


class Trace:
    """One recorded channel: strictly increasing timestamps, one value each."""

    def __init__(self, trace_id: str, channel: str):
        if channel not in TRACE_CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        self.id = trace_id
        self.channel = channel
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, t: float, value: float):
        if self.times and t <= self.times[-1]:
            raise NonMonotonicTime(f"{self.id}: {t} after {self.times[-1]}")
        self.times.append(t)
        self.values.append(value)

    def __len__(self):
        return len(self.times)


class TraceRecorder:
    def __init__(self):
        self.traces: dict[str, Trace] = {}

    def register(self, trace_id: str, channel: str) -> Trace:
        if trace_id in self.traces:
            return self.traces[trace_id]
        trace = Trace(trace_id, channel)
        self.traces[trace_id] = trace
        return trace

    def record(self, trace_id: str, t: float, value: float):
        self.traces[trace_id].record(t, value)


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
        "misc",
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
    """Per-arm simulation state beyond the kinematic ArmState."""

    state: ArmState
    guard_filter: GuardFilter
    true_wrench: Wrench = ZERO_WRENCH
    reading: FTReading | None = None
    filtered: FTReading | None = None
    guard_fired_t: float | None = None
    active: bool = False
    press_force: float = 0.0  # wall-normal force driving platform slip

    def reset_guard(self):
        self.guard_filter.reset()


class World:
    """All mutable simulation state for one run."""

    def __init__(self, scenario: Scenario, seed: int):
        scenario.validate()
        self.scenario = scenario
        self.seed = int(seed)
        self.scenario_hash = scenario_hash(scenario)
        self.clock = SimClock(dt=scenario.procedure.timestep)
        self.recorder = TraceRecorder()
        self.streams = RandomStreams(seed)

        w = scenario.wall
        frame = wall_frame_from_angles(Point3(w.distance, w.center_y, w.center_z), w.yaw_deg, w.pitch_deg)
        holes = default_hole_pattern(scenario.part.holes, scenario.part.hole_spacing)
        self.site = Worksite(wall=Wall(frame, w), part=StructuralPart(holes))

        # One arm, platform and tool set per module; robot 2's stand also
        # carries the part gripper. The drill has no state of its own: its
        # models read ``scenario.tools`` directly.
        window = max(1, round(scenario.sensors.guard_filter_window / self.clock.dt))
        self.arms: dict[str, ArmRuntime] = {}
        self.platforms: dict[str, PlatformState] = {}
        self.tools = {}
        for name, n in (("robot1", "1"), ("robot2", "2")):
            arm = ArmState(name, scenario.station(f"base{n}"), scenario.station(f"home{n}"), scenario.robot)
            self.arms[name] = ArmRuntime(state=arm, guard_filter=GuardFilter(window))
            self.platforms[name] = PlatformState(scenario.robot)
            self.tools[(name, ToolId.HAMMER)] = HammerTool(scenario.tools)
            self.tools[(name, ToolId.NUTRUNNER)] = NutRunnerTool(scenario.tools)
            for channel in TRACE_CHANNELS:
                self.recorder.register(f"{name}/{channel}", channel)
        self.tools[("robot2", ToolId.GRIPPER)] = GripperTool()

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

    def tool(self, arm_name: str, tool: ToolId):
        return self.tools[(arm_name, ToolId(tool))]

    def slip(self, arm_name: str) -> float:
        return self.platforms[arm_name].slip_offset

    def true_position(self, arm_name: str) -> Point3:
        """Commanded tool point pushed back by the accumulated platform slip."""
        arm = self.arm(arm_name)
        return arm.position + self.site.wall.normal.scaled(self.slip(arm_name))

    def surface_distance(self, arm_name: str) -> float:
        """True signed distance of the tool point from the wall surface."""
        return self.site.wall.signed_distance(self.true_position(arm_name))

    def laser_distance(self, arm_name: str, ray: Point3 | None = None) -> float:
        """Noisy laser range from the true tool point to the wall along ``ray``.

        The ray origin is backed off half a metre along the ray so the
        measurement stays defined while the tool point is inside the hole;
        the constant offset cancels out of every depth computed by
        difference, which mirrors a laser mounted beside the bit.
        """
        if ray is None:
            ray = -self.site.wall.normal
        ray = ray.normalized()
        origin = self.true_position(arm_name) - ray.scaled(0.5)
        distance = read_laser(
            origin,
            ray,
            self.site,
            self.streams.get(f"laser.{arm_name}"),
            sigma=self.scenario.sensors.laser_sigma,
        )
        return distance - 0.5

    # -- tick -------------------------------------------------------------------

    def step(self):
        """One tick: slip, motions, contact physics, sensors, guard, traces.

        Slip integrates at the start of the tick from the previous tick's
        press force, so the slip an executive reads after the step is exactly
        the slip the contact models saw.
        """
        t = self.clock.tick()
        dt = self.clock.dt
        sensors = self.scenario.sensors
        for name, runtime in self.arms.items():
            self.platforms[name].step(runtime.press_force, dt)
            runtime.state.advance(dt)
        for name, runtime in self.arms.items():
            arm = runtime.state
            model = arm.contact_model
            if model is not None:
                wrench = model(self, arm, dt)
            else:
                wrench = ZERO_WRENCH
            runtime.true_wrench = wrench
            runtime.press_force = max(wrench.fz, 0.0)
            runtime.active = model is not None or arm.motion is not None
            if not runtime.active:
                runtime.reading = None
                continue
            reading = read_ft(wrench, sensors, self.streams.get(f"ft.{name}"), timestamp=t)
            runtime.reading = reading
            runtime.filtered = runtime.guard_filter.push(reading)
            axis = overload_guard(runtime.filtered, sensors)
            if axis is not None and not arm.halted:
                arm.halt(axis)
                runtime.guard_fired_t = t
            for channel, value in zip(("fx", "fy", "fz", "mx", "my", "mz"), wrench.as_tuple()):
                self.recorder.record(f"{name}/{channel}", t, value)

    def record_depthset(self, arm_name: str, laser_depth: float, commanded_depth: float):
        t = self.clock.t
        self.recorder.record(f"{arm_name}/laser_depth", t, laser_depth)
        self.recorder.record(f"{arm_name}/commanded_depth", t, commanded_depth)
        self.recorder.record(f"{arm_name}/slip", t, self.slip(arm_name))


def run(scenario: Scenario, seed: int, mission: str = "full"):
    """Build a world, drive the requested mission to completion, and return
    ``(FixationReport, traces)``."""
    from .procedure import drive_mission

    world = World(scenario, seed)
    return drive_mission(world, mission)
