"""The physical scene: wall, structural part, drilled holes and anchors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .errors import OffWall
from .geometry import Frame, Point3

if TYPE_CHECKING:
    from .scenario import WallSection

#: Deepest hole the drill can produce (bit engagement limit), metres.
MAX_HOLE_DEPTH = 0.08

#: Wall must keep at least this much material behind the deepest hole.
BACK_COVER_MARGIN = 0.02

#: Tolerance for "position lies on the wall surface" checks, metres.
ON_SURFACE_TOL = 1e-6

#: Annular band outside the insertion clearance that still touches the hole rim.
RIM_BAND = 0.001


class PartState(Enum):
    IN_STAND = "in_stand"
    GRASPED = "grasped"
    HELD_ON_WALL = "held_on_wall"
    PARTIALLY_FIXED = "partially_fixed"
    FIXED = "fixed"


class AnchorState(Enum):
    IN_STAND = "in_stand"
    GRASPED = "grasped"
    STUCK = "stuck"
    SEATED = "seated"
    TIGHTENED = "tightened"


class Engagement(Enum):
    ENGAGED = "engaged"
    RIM_CONTACT = "rim_contact"
    SURFACE_CONTACT = "surface_contact"


@dataclass
class Wall:
    """Concrete wall. ``frame`` is the true surface frame, hidden from the
    executive; its z axis is the outward normal (toward the robots). The
    extent and thickness come from ``cfg``."""

    frame: Frame
    cfg: WallSection

    @property
    def normal(self) -> Point3:
        return self.frame.z_axis

    def signed_distance(self, p: Point3) -> float:
        """Distance of ``p`` from the surface plane along the outward normal."""
        return (p - self.frame.origin).dot(self.normal)

    def project(self, p: Point3) -> Point3:
        """Foot of ``p`` on the surface plane."""
        return p - self.normal.scaled(self.signed_distance(p))

    def contains_lateral(self, x: float, y: float, z: float) -> bool:
        """Whether the point ``(x, y, z)`` lies within the wall's extent in the
        surface plane (the x and y of ``frame.to_local``, on floats); given
        arrays of coordinates, an array of those answers."""
        o, ax, ay = self.frame.origin, self.frame.x_axis, self.frame.y_axis
        dx, dy, dz = x - o.x, y - o.y, z - o.z
        return (abs(dx * ax.x + dy * ax.y + dz * ax.z) <= self.cfg.width / 2) & (
            abs(dx * ay.x + dy * ay.y + dz * ay.z) <= self.cfg.height / 2
        )


@dataclass
class StructuralPart:
    """Bracket to be fixed; holes are given in the part-local frame."""

    hole_positions: list[Point3]
    pose: Frame | None = None
    state: PartState = PartState.IN_STAND
    fixed_count: int = 0

    def set_state(self, new: PartState):
        """Advance the part state; only forward transitions are legal."""
        order = list(PartState)
        if order.index(new) < order.index(self.state):
            raise ValueError(f"part state cannot regress {self.state} -> {new}")
        self.state = new

    def mark_point_fixed(self):
        self.fixed_count += 1
        if self.fixed_count > len(self.hole_positions):
            raise ValueError("more fixed points than holes")
        if self.fixed_count == len(self.hole_positions):
            self.set_state(PartState.FIXED)
        else:
            self.set_state(PartState.PARTIALLY_FIXED)

    def hole_world(self, index: int) -> Point3:
        if self.pose is None:
            raise ValueError("part has no pose yet")
        return self.pose.to_world(self.hole_positions[index])


@dataclass
class DrilledHole:
    position: Point3  # on the wall surface
    axis: Point3  # unit vector, into the wall
    depth: float
    anchor: "AnchorBolt | None" = None

    def __post_init__(self):
        if not 0 < self.depth <= MAX_HOLE_DEPTH:
            raise ValueError(f"hole depth {self.depth} m outside (0, {MAX_HOLE_DEPTH}]")
        if abs(self.axis.norm() - 1.0) > 1e-9:
            raise ValueError("hole axis must be a unit vector")


@dataclass
class AnchorBolt:
    """Wedge anchor, grasped from the nut with the nut already threaded on."""

    length: float = 0.126
    mass: float = 0.113
    state: AnchorState = AnchorState.IN_STAND
    depth: float = 0.0  # penetration when stuck / seated
    hole: DrilledHole | None = None

    def set_state(self, new: AnchorState, *, depth: float | None = None):
        order = list(AnchorState)
        if order.index(new) < order.index(self.state):
            raise ValueError(f"anchor state cannot regress {self.state} -> {new}")
        if depth is not None:
            if self.hole is not None and depth > self.hole.depth + 1e-9:
                raise ValueError("anchor deeper than its hole")
            if new is AnchorState.SEATED and depth + 1e-9 < self.depth:
                raise ValueError("seated depth below stuck depth")
            self.depth = depth
        self.state = new


@dataclass
class Worksite:
    """The work face: the wall, the part and, in drilling order, the holes
    drilled so far, each with the anchor set in it. The steps pass the holes
    and anchors they make on to the later steps; nothing looks them up here."""

    wall: Wall
    part: StructuralPart
    drilled_holes: list[DrilledHole] = field(default_factory=list)

    def register_drilled_hole(self, position: Point3, axis: Point3, depth: float) -> DrilledHole:
        """Record a freshly drilled hole, whose mouth must lie on the wall.
        ``Scenario.validate`` leaves the wall thick enough for any drillable
        depth."""
        wall = self.wall
        if abs(wall.signed_distance(position)) > ON_SURFACE_TOL or not wall.contains_lateral(*position.as_tuple()):
            raise OffWall(f"{position} is not on the wall surface")
        hole = DrilledHole(position=position, axis=axis, depth=depth)
        self.drilled_holes.append(hole)
        return hole

    def place_anchor_in_hole(self, anchor: AnchorBolt, hole: DrilledHole, depth: float):
        hole.anchor = anchor
        anchor.hole = hole
        anchor.set_state(AnchorState.STUCK, depth=depth)


def anchor_engagement(offset: float, clearance: float) -> Engagement:
    """Classify an insertion attempt by ``offset``, the distance of the anchor
    tip from the hole axis (``World.radial_offset``).

    ``clearance`` is the effective insertion clearance radius: the wedge makes
    the anchor nearly the hole diameter, so only a fraction of a millimetre of
    lateral error still lets the tip drop in.
    """
    if engaged(offset, clearance):
        return Engagement.ENGAGED
    if offset < clearance + RIM_BAND:
        return Engagement.RIM_CONTACT
    return Engagement.SURFACE_CONTACT


def engaged(offset, clearance: float):
    """Whether the anchor tip drops into the hole at ``offset`` from its axis:
    the one engagement test, on a float or an array of offsets."""
    return offset < clearance


def default_hole_pattern(count: int, spacing: float) -> list[Point3]:
    """Hole positions in the part-local frame, centred and evenly spaced
    along the part's x axis."""
    start = -spacing * (count - 1) / 2
    return [Point3(start + i * spacing, 0.0, 0.0) for i in range(count)]


def wall_frame_from_angles(center: Point3, yaw_deg: float, pitch_deg: float) -> Frame:
    """True wall frame for a vertical wall facing the robots along -x base.

    With zero angles: wall x axis = base +y, wall y axis = base -z (down),
    wall z axis (outward normal) = base -x. ``yaw_deg`` rotates the wall about
    the vertical base axis, ``pitch_deg`` tips it back about the wall x axis.
    """
    yaw = math.radians(yaw_deg)
    pitch = math.radians(pitch_deg)
    # Outward normal, nominally -x, yawed about z then pitched.
    nx = -math.cos(yaw) * math.cos(pitch)
    ny = math.sin(yaw) * math.cos(pitch)
    nz = math.sin(pitch)
    z_axis = Point3(nx, ny, nz).normalized()
    # Wall x axis stays horizontal.
    x_axis = Point3(math.sin(yaw), math.cos(yaw), 0.0).normalized()
    y_axis = z_axis.cross(x_axis)
    return Frame(center, x_axis, y_axis, z_axis)
