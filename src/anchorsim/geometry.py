"""Points, rigid frames, and the three-point wall orientation estimator.

The wall coordinate system is built from three laser-probed surface points:
the first axis runs from the first point toward the second, the normal is the
cross product of that axis with the first-to-third direction, and the last
axis completes the right-handed triad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateGeometry

#: Triangles smaller than this (m^2) are treated as degenerate input.
MIN_TRIANGLE_AREA = 1e-9

#: Tolerance on unit length / orthogonality / handedness of frame axes.
FRAME_TOL = 1e-9


@dataclass(frozen=True)
class Point3:
    """Point (or free vector) in metres, robot base frame unless noted."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite components: {self!r}")

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Point3":
        return Point3(-self.x, -self.y, -self.z)

    def scaled(self, s: float) -> "Point3":
        return Point3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Point3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Point3") -> "Point3":
        return Point3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Point3":
        n = self.norm()
        if n < 1e-12:
            raise DegenerateGeometry("cannot normalize a near-zero vector")
        return self.scaled(1.0 / n)

    def distance_to(self, other: "Point3") -> float:
        return (self - other).norm()

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal frame: origin plus three axis vectors.

    Axes are stored explicitly (not as a quaternion) so the estimator output
    can be inspected and tested literally, axis by axis.
    """

    origin: Point3
    x_axis: Point3
    y_axis: Point3
    z_axis: Point3

    def __post_init__(self):
        for name, axis in (("x_axis", self.x_axis), ("y_axis", self.y_axis), ("z_axis", self.z_axis)):
            if abs(axis.norm() - 1.0) > FRAME_TOL:
                raise ValueError(f"{name} is not unit length: |{name}| = {axis.norm()!r}")
        if abs(self.x_axis.dot(self.y_axis)) > FRAME_TOL:
            raise ValueError("x_axis and y_axis are not orthogonal")
        if abs(self.y_axis.dot(self.z_axis)) > FRAME_TOL:
            raise ValueError("y_axis and z_axis are not orthogonal")
        if abs(self.z_axis.dot(self.x_axis)) > FRAME_TOL:
            raise ValueError("z_axis and x_axis are not orthogonal")
        handed = self.x_axis.cross(self.y_axis) - self.z_axis
        if handed.norm() > FRAME_TOL:
            raise ValueError("axes are not right-handed (x cross y != z)")

    def to_local(self, p: Point3) -> Point3:
        """Coordinates of base-frame point ``p`` expressed in this frame."""
        d = p - self.origin
        return Point3(d.dot(self.x_axis), d.dot(self.y_axis), d.dot(self.z_axis))

    def to_world(self, p: Point3) -> Point3:
        """Base-frame position of frame-local point ``p``."""
        return (
            self.origin
            + self.x_axis.scaled(p.x)
            + self.y_axis.scaled(p.y)
            + self.z_axis.scaled(p.z)
        )

    def with_origin(self, origin: Point3) -> "Frame":
        return Frame(origin, self.x_axis, self.y_axis, self.z_axis)


def estimate_wall_frame(p1: Point3, p2: Point3, p3: Point3) -> Frame:
    """Build the wall coordinate system from three measured surface points.

    Origin is the first point; the x axis points from the first toward the
    second, the z axis is normal to the probed plane, and y completes the
    right-handed triad.

    Raises DegenerateGeometry when the points coincide or are collinear
    (triangle area below MIN_TRIANGLE_AREA).
    """
    v12 = p2 - p1
    v13 = p3 - p1
    area = 0.5 * v12.cross(v13).norm()
    if area <= MIN_TRIANGLE_AREA:
        raise DegenerateGeometry(
            f"measured points span a triangle of area {area:.3e} m^2; "
            "need distinct non-collinear points"
        )
    x_axis = v12.normalized()
    z_axis = x_axis.cross(v13).normalized()
    y_axis = z_axis.cross(x_axis)
    return Frame(p1, x_axis, y_axis, z_axis)


def angle_between(a: Point3, b: Point3) -> float:
    """Angle in radians between two vectors; robust near 0 and pi."""
    cross = a.cross(b).norm()
    dot = a.dot(b)
    return math.atan2(cross, dot)
