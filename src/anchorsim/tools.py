"""Physical models of the custom end-of-arm tools.

The drill reaction-moment model is the load-bearing piece: three compensation
variants produce three qualitatively different flange-moment histories over an
80 mm feed, and the thrust constants are calibrated so the uncompensated
variant crosses the -30 Nm guard at exactly 10 mm of depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .errors import AnchorDropped, GripperInflated, PartDropped, SocketNotEngaged
from .worksite import AnchorBolt, AnchorState, DrilledHole, MAX_HOLE_DEPTH, PartState, StructuralPart

if TYPE_CHECKING:
    from .scenario import ToolsSection


class DrillVariant(str, Enum):
    """Moment-compensation layout of the drilling tool."""

    ALIGNED_AXIS = "aligned_axis"
    OFFSET_UNCOMPENSATED = "offset_uncompensated"
    REGULAR_SPRING = "regular_spring"
    CONSTANT_LOAD_SPRING = "constant_load_spring"


def drill_thrust(depth: float, cfg: ToolsSection) -> float:
    """Axial thrust (N) the concrete exerts on the spinning bit at ``depth``.

    The line F(d) = thrust_at_contact + thrust_per_meter * d is a calibration
    target, not a measured value. With the default 0.10 m drill offset it
    puts the uncompensated flange moment at -30 Nm when the bit is 10 mm
    deep, lets the regular spring overcompensate past +30 Nm before 80 mm,
    and keeps the constant-load variant inside +/-30 Nm for the whole feed.
    """
    if depth < 0 or depth > MAX_HOLE_DEPTH + 1e-9:
        raise ValueError(f"depth {depth} m outside [0, {MAX_HOLE_DEPTH}]")
    return cfg.thrust_at_contact + cfg.thrust_per_meter * depth


def drill_reaction_moment(cfg: ToolsSection, depth: float) -> float:
    """Flange moment about the x axis (Nm) while drilling at ``depth``.

    offset_uncompensated: the offset drill alone, strictly more negative
        with depth.
    regular_spring: support-arm compensation that grows with compression,
        eventually overcompensating positive.
    constant_load_spring: fixed compensation, so the moment stays affine
        with the thrust slope only.
    aligned_axis: the long in-line tool, where thrust on a small
        perpendicularity lever overloads almost immediately; kept for
        comparison runs.
    """
    thrust = drill_thrust(depth, cfg)
    if cfg.variant == DrillVariant.OFFSET_UNCOMPENSATED:
        return -thrust * cfg.drill_offset
    if cfg.variant == DrillVariant.REGULAR_SPRING:
        spring_force = cfg.spring_rate * (cfg.spring_preload + depth)
        return spring_force * cfg.support_arm_offset - thrust * cfg.drill_offset
    if cfg.variant == DrillVariant.CONSTANT_LOAD_SPRING:
        return cfg.constant_load_force * cfg.support_arm_offset - thrust * cfg.drill_offset
    # ALIGNED_AXIS
    return -thrust * (cfg.aligned_tip_lever + cfg.aligned_error_lever)


class GripperState(str, Enum):
    DEFLATED = "deflated"
    INFLATED = "inflated"


#: Depth band (m) from the hole bottom within which blows ring as contact.
BOTTOM_CONTACT_BAND = 0.001


@dataclass
class HammerTool:
    """Cup hammer with an inflatable rubber gripper around it.

    The gripper grasps an anchor by the nut while inflated; hammering is only
    possible deflated, with the anchor head inside the cup. Blow parameters
    come from ``cfg``.
    """

    cfg: ToolsSection
    gripper_state: GripperState = GripperState.DEFLATED
    held_anchor: AnchorBolt | None = None
    bottom_blows: int = field(default=0, repr=False)

    def inflate(self, anchor: AnchorBolt):
        self.gripper_state = GripperState.INFLATED
        anchor.set_state(AnchorState.GRASPED)
        self.held_anchor = anchor

    def deflate(self):
        """Release the gripper.

        Releasing over a hole leaves a stuck anchor where it is; releasing in
        free space drops it and the run is unrecoverable.
        """
        self.gripper_state = GripperState.DEFLATED
        anchor = self.held_anchor
        self.held_anchor = None
        if anchor is not None and anchor.state is AnchorState.GRASPED:
            raise AnchorDropped("gripper deflated with the anchor unsupported")

    def start_hammering(self):
        self.bottom_blows = 0


def hammer_blow(tool: HammerTool, current_depth: float, hole: DrilledHole) -> tuple[float, float]:
    """One hammer blow on a stuck anchor.

    Returns the new anchor depth and the peak flange moment magnitude of the
    blow. Advance shrinks as the anchor approaches the hole bottom; once
    within BOTTOM_CONTACT_BAND of the bottom the peak moment ramps up over a
    few blows to signal solid contact. Never overshoots the hole depth.
    """
    if tool.gripper_state is GripperState.INFLATED:
        raise GripperInflated("deflate the gripper before hammering")
    if current_depth > hole.depth + 1e-12:
        raise ValueError("anchor cannot start deeper than the hole")
    remaining = hole.depth - current_depth
    cfg = tool.cfg
    if remaining <= 0:
        return hole.depth, cfg.hammer_contact_cap
    advance = cfg.blow_advance * (1.0 - current_depth / hole.depth)
    new_depth = min(current_depth + advance, hole.depth)
    if remaining <= BOTTOM_CONTACT_BAND:
        tool.bottom_blows += 1
        peak = min(cfg.hammer_free_moment + cfg.hammer_contact_ramp * tool.bottom_blows,
                   cfg.hammer_contact_cap)
    else:
        peak = cfg.hammer_free_moment
    return new_depth, peak


@dataclass
class NutRunnerTool:
    """Pulse-type nut runner mounted offset from the flange.

    The pulse mechanism transmits only a fraction of the tightening torque to
    the flange, which is what keeps a 50 Nm target under the 30 Nm guard.
    Torque parameters come from ``cfg``.
    """

    cfg: ToolsSection
    socket_engaged: bool = False
    socket_extension: float = 0.0  # m, spring extension signal


def nutrunner_pulse(tool: NutRunnerTool, current_torque: float) -> tuple[float, float]:
    """One tightening pulse: returns (new fastener torque, flange moment)."""
    if not tool.socket_engaged:
        raise SocketNotEngaged("socket is not on the nut")
    cfg = tool.cfg
    new_torque = min(current_torque + cfg.pulse_torque_step, cfg.target_torque)
    return new_torque, cfg.pulse_attenuation * new_torque


@dataclass
class GripperTool:
    """Magnet gripper that picks the steel structural part."""

    held_part: StructuralPart | None = None

    def switch_on(self, part: StructuralPart):
        self.held_part = part

    def switch_off(self):
        """Release the part; mid-carry releases drop it and fail the run."""
        part = self.held_part
        self.held_part = None
        if part is not None and part.state is PartState.GRASPED:
            raise PartDropped("magnet switched off while carrying the part")

