"""Force models of the custom end-of-arm tools.

Each model is a pure function of ``scenario.tools`` and the state its caller
passes in; the tools keep no state of their own. Anchor and part states live
in the worksite, and a step's counters live in that step.

The drill reaction-moment model is the load-bearing piece: three compensation
variants produce three qualitatively different flange-moment histories over an
80 mm feed, and the thrust constants are calibrated so the uncompensated
variant crosses the -30 Nm guard at exactly 10 mm of depth. The cup hammer
and the pulse nut runner keep their flange moments under the same guard.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .worksite import DrilledHole, MAX_HOLE_DEPTH

if TYPE_CHECKING:
    from .scenario import ToolsSection


class DrillVariant(str, Enum):
    """Moment-compensation layout of the drilling tool."""

    ALIGNED_AXIS = "aligned_axis"
    OFFSET_UNCOMPENSATED = "offset_uncompensated"
    REGULAR_SPRING = "regular_spring"
    CONSTANT_LOAD_SPRING = "constant_load_spring"


def drill_thrust(depth: float | np.ndarray, cfg: ToolsSection) -> float | np.ndarray:
    """Axial thrust (N) the concrete exerts on the spinning bit at ``depth``.

    The line F(d) = thrust_at_contact + thrust_per_meter * d is a calibration
    target, not a measured value. With the default 0.10 m drill offset it
    puts the uncompensated flange moment at -30 Nm when the bit is 10 mm
    deep, lets the regular spring overcompensate past +30 Nm before 80 mm,
    and keeps the constant-load variant inside +/-30 Nm for the whole feed.

    ``depth`` is a float or an array of them, each in ``[0,
    MAX_HOLE_DEPTH]``; ``Drilling.law``'s clamp keeps the feed's depths in
    that range.
    """
    depths = np.asarray(depth)
    outside = (depths < 0) | (depths > MAX_HOLE_DEPTH + 1e-9)
    if outside.any():
        raise ValueError(f"depth {depths[outside][0]} m outside [0, {MAX_HOLE_DEPTH}]")
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


#: Depth band (m) from the hole bottom within which blows ring as contact.
BOTTOM_CONTACT_BAND = 0.001


def hammer_blow(cfg: ToolsSection, current_depth: float, hole: DrilledHole,
                bottom_blows: int) -> tuple[float, float, int]:
    """One cup-hammer blow on a stuck anchor.

    Returns the new anchor depth, the peak flange moment magnitude of the
    blow and the count of blows struck inside the contact band so far.
    Advance shrinks as the anchor approaches the hole bottom; once within
    BOTTOM_CONTACT_BAND of the bottom the peak moment ramps up over a few
    blows to signal solid contact. Never overshoots the hole depth.
    """
    if current_depth > hole.depth + 1e-12:
        raise ValueError("anchor cannot start deeper than the hole")
    remaining = hole.depth - current_depth
    if remaining <= 0:
        return hole.depth, cfg.hammer_contact_cap, bottom_blows
    advance = cfg.blow_advance * (1.0 - current_depth / hole.depth)
    new_depth = min(current_depth + advance, hole.depth)
    if remaining <= BOTTOM_CONTACT_BAND:
        bottom_blows += 1
        peak = min(cfg.hammer_free_moment + cfg.hammer_contact_ramp * bottom_blows,
                   cfg.hammer_contact_cap)
    else:
        peak = cfg.hammer_free_moment
    return new_depth, peak, bottom_blows


def nutrunner_pulse(cfg: ToolsSection, current_torque: float) -> tuple[float, float]:
    """One tightening pulse of the offset pulse nut runner.

    Returns (new fastener torque, flange moment). The pulse mechanism passes
    only ``cfg.pulse_attenuation`` of the tightening torque to the flange,
    which is what keeps a 50 Nm target under the 30 Nm guard.
    """
    new_torque = min(current_torque + cfg.pulse_torque_step, cfg.target_torque)
    return new_torque, cfg.pulse_attenuation * new_torque
