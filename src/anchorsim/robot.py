"""Arm kinematic state, tool changer bookkeeping, and platform slippage.

There is no joint model: an arm is its commanded tool point moving on straight
lines at constant speed, which is all the fixation procedure needs. Tool tip
lever arms appear only inside the tool moment models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import OutOfReach, WrongPose
from .geometry import Point3

if TYPE_CHECKING:
    from .scenario import RobotSection


class ToolId(str, Enum):
    DRILL = "drill"
    HAMMER = "hammer"
    NUTRUNNER = "nutrunner"
    GRIPPER = "gripper"


#: How close the flange must be to the stand for a tool change, metres.
STAND_POSE_TOL = 0.005


@dataclass
class Motion:
    """Constant-speed straight-line segment between ``(x, y, z)`` points."""

    target: tuple[float, float, float] | None  # None = open-ended along ``direction``
    direction: tuple[float, float, float]
    speed: float
    travelled: float = 0.0


class ArmState:
    """Commanded tool point and flange state; the reach comes from ``cfg``.
    The tick works on the point's floats ``x, y, z``; ``position`` reads or
    assigns them as a ``Point3``."""

    def __init__(self, name: str, base: Point3, position: Point3, cfg: RobotSection):
        self.name = name
        self.base = base
        self.position = position
        self.cfg = cfg
        self.attached_tool: ToolId | None = None
        self.motion: Motion | None = None
        self.halted = False
        self.halt_axis: str | None = None
        self.halt_travelled = 0.0

    @property
    def position(self) -> Point3:
        return Point3(self.x, self.y, self.z)

    @position.setter
    def position(self, p: Point3):
        self.x, self.y, self.z = p.x, p.y, p.z

    def check_reach(self, target: Point3):
        d = self.base.distance_to(target)
        if d > self.cfg.reach:
            raise OutOfReach(f"{self.name}: target {d:.3f} m away exceeds reach {self.cfg.reach} m")

    def start_move(self, target: Point3, speed: float):
        self.check_reach(target)
        if target.distance_to(self.position) < 1e-12:
            self.motion = None
            return
        direction = (target - self.position).normalized()
        self.motion = Motion(target.as_tuple(), direction.as_tuple(), speed)
        self.halted = False
        self.halt_axis = None

    def start_feed(self, direction: Point3, speed: float):
        """Open-ended guarded feed; the caller stops it on a condition."""
        self.motion = Motion(None, direction.normalized().as_tuple(), speed)
        self.halted = False
        self.halt_axis = None

    def stop(self):
        self.motion = None

    def halt(self, axis: str):
        self.halted = True
        self.halt_axis = axis
        self.halt_travelled = self.motion.travelled if self.motion else 0.0
        self.motion = None

    def advance(self, dt: float):
        """Advance the commanded point one tick; a reached move target ends
        the motion. Raises ValueError, as ``Point3`` does, on a non-finite
        point."""
        motion = self.motion
        if motion is None or self.halted:
            return
        step = motion.speed * dt
        x, y, z = self.x, self.y, self.z
        target = motion.target
        arrived = False
        if target is not None:
            dx, dy, dz = x - target[0], y - target[1], z - target[2]
            remaining = math.sqrt(dx * dx + dy * dy + dz * dz)
            arrived = remaining <= step
        if arrived:
            motion.travelled += remaining
            x, y, z = target
        else:
            motion.travelled += step
            ux, uy, uz = motion.direction
            x, y, z = x + ux * step, y + uy * step, z + uz * step
        base = self.base
        dx, dy, dz = base.x - x, base.y - y, base.z - z
        if not math.sqrt(dx * dx + dy * dy + dz * dz) <= self.cfg.reach:
            Point3(x, y, z)  # raises on a non-finite point
            # Open-ended feeds stop at the reach sphere; targeted moves were
            # validated up front, so this only trims feeds.
            self.motion = None
            return
        self.x, self.y, self.z = x, y, z
        if arrived:
            self.motion = None

    def free_path(self, ticks: int, dt: float) -> np.ndarray:
        """The next ``ticks`` ticks of the motion, a targeted move or an
        open-ended feed, taken in bulk with the arithmetic of ``advance``.

        Column ``j`` of the ``(4, k + 1)`` array is ``(x, y, z, travelled)``
        after ``j`` ticks (column 0 is now). The columns stop before the
        first tick that reaches the target or whose point would leave the
        reach sphere or not be finite, which ``advance`` must take itself, so
        ``k`` may be less than ``ticks``.
        """
        motion = self.motion
        step = motion.speed * dt
        ux, uy, uz = motion.direction
        path = np.empty((4, ticks + 1))
        path[:, 0] = self.x, self.y, self.z, motion.travelled
        path[:, 1:] = [[ux * step], [uy * step], [uz * step], [step]]
        np.add.accumulate(path, axis=1, out=path)  # sequential, as the ticks add
        if motion.target is not None:
            tx, ty, tz = motion.target
            # Tick j tests the point it starts from, column j - 1.
            hits = np.flatnonzero(_norms(path[:3, :-1] - [[tx], [ty], [tz]]) <= step)
            if hits.size:
                path = path[:, : int(hits[0]) + 1]
        base = self.base
        inside = _norms([[base.x], [base.y], [base.z]] - path[:3, 1:]) <= self.cfg.reach
        if not inside.all():
            path = path[:, : int(inside.argmin()) + 1]
        return path


def _norms(d: np.ndarray) -> np.ndarray:
    """``sqrt(dx * dx + dy * dy + dz * dz)`` per column of the ``(3, m)``
    array ``d``, summed in that order; ``d`` is overwritten."""
    np.multiply(d, d, out=d)
    dx, dy, dz = d
    total = dx + dy
    total += dz
    return np.sqrt(total, out=total)


def attach_tool(arm: ArmState, tool: ToolId, stand_position: Point3):
    """Mount ``tool`` from the stand; ``ensure_tool`` empties the flange first."""
    if arm.position.distance_to(stand_position) > STAND_POSE_TOL:
        raise WrongPose(f"{arm.name} is not at the tool stand")
    arm.attached_tool = tool


def detach_tool(arm: ArmState, stand_position: Point3):
    """Return the mounted tool to the stand."""
    if arm.position.distance_to(stand_position) > STAND_POSE_TOL:
        raise WrongPose(f"{arm.name} is not at the tool stand")
    arm.attached_tool = None


@dataclass
class PlatformState:
    """Wheeled platform under one robot module.

    Sustained compressive contact with the wall pushes the platform backward
    along the wall normal; the offset accumulates within a run and never
    recovers on its own. The slip coefficient comes from ``cfg``.
    """

    cfg: RobotSection
    slip_offset: float = 0.0  # m along the outward wall normal

    def step(self, applied_force: float, dt: float):
        """Accumulate slip for one tick; tension never pulls the platform in."""
        self.slip_offset += self.cfg.slip_coefficient * max(applied_force, 0.0) * dt

    def slips(self, presses: np.ndarray, dt: float) -> np.ndarray:
        """The slip after each tick of a stretch whose tick ``j`` is pressed
        with ``presses[j]``, taken in bulk with the arithmetic of ``step``
        (a sequential accumulate, as the ticks add). A tick with no press
        adds ``+0.0``, which leaves the slip as it is, as not stepping does."""
        path = np.empty(len(presses) + 1)
        path[0] = self.slip_offset
        steps = path[1:]
        np.maximum(presses, 0.0, out=steps)
        steps *= self.cfg.slip_coefficient
        steps *= dt
        np.add.accumulate(path, out=path)
        return steps
