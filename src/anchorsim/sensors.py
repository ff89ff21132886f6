"""Noisy observation models and the force/moment safety guard."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from operator import length_hint
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DegenerateGeometry, NoReturn
from .geometry import Point3
from .scenario import SensorsSection
from .worksite import Worksite


class Wrench(NamedTuple):
    """Force/moment at a flange: the true state a contact model returns, or
    the noisy sample the FT sensor reads and the guard filters."""

    fx: float = 0.0
    fy: float = 0.0
    fz: float = 0.0
    mx: float = 0.0
    my: float = 0.0
    mz: float = 0.0


ZERO_WRENCH = Wrench()


#: Samples a sensor's noise buffer takes from its stream per refill.
NOISE_BLOCK = 1024


class NormalBlocks(chain):
    """Standard normals from the numpy Generator ``rng``, drawn ``shape`` at a
    time and handed out one row per ``next`` (one float for a 1-D shape).

    A block takes the same bits from the stream as the same number of single
    draws, so a stream with no other reader yields exactly the values that
    ``standard_normal(row)`` calls would. Nothing is drawn before the first
    ``next``. ``next`` stays the C-level ``chain`` iterator over the current
    block's ``tolist()``; ``ahead`` and ``skip`` read the same block as an
    array, at the same cursor, for a caller that takes many rows at once.
    """

    def __new__(cls, rng, shape):
        held = [None, iter(())]  # the current block and the iterator over its rows

        def draw():
            held[0] = None  # free the spent block first: its memory then takes the next
            block = rng.standard_normal(shape)
            held[:] = block, iter(block.tolist())
            return held[1]

        blocks = cls.from_iterable(iter(draw, None))
        blocks._held = held
        return blocks

    def ahead(self) -> np.ndarray:
        """The current block's rows that ``next`` has not handed out yet (a
        view), after drawing the next block if none are left."""
        block, rows = self._held
        left = length_hint(rows)
        if left == 0:
            next(self)  # draws the next block; its first row is put back below
            block, rows = self._held
            rows.__setstate__(0)
            left = len(block)
        return block[len(block) - left :]

    def skip(self, count: int):
        """Hand out the first ``count`` rows of ``ahead()`` without returning them."""
        block, rows = self._held
        rows.__setstate__(len(block) - length_hint(rows) + count)


def read_ft(true_wrench: Wrench, sensors: SensorsSection, noise: Iterator) -> Wrench:
    """Sample the flange FT sensor: true wrench plus zero-mean Gaussian noise.

    ``noise`` yields rows of six standard normals, such as
    ``NormalBlocks(rng, (NOISE_BLOCK, 6))``; it is not read when both sigmas
    are zero.
    """
    sf, sm = sensors.ft_sigma_force, sensors.ft_sigma_moment
    if sf == 0.0 and sm == 0.0:
        return true_wrench
    n0, n1, n2, n3, n4, n5 = next(noise)
    fx, fy, fz, mx, my, mz = true_wrench
    return Wrench(fx + sf * n0, fy + sf * n1, fz + sf * n2, mx + sm * n3, my + sm * n4, mz + sm * n5)


def overload_guard(reading: tuple[float, ...], limits: SensorsSection) -> str | None:
    """Return the first overloaded axis name, or None when within the
    ``force_limit`` and ``moment_limit`` of ``limits``.

    ``reading`` holds the six wrench values in ``Wrench`` field order.

    The comparison is strict: readings exactly at the limit pass, so a
    calibration point sitting on -30 Nm does not trip the stop.
    """
    fl, ml = limits.force_limit, limits.moment_limit
    fx, fy, fz, mx, my, mz = reading
    if abs(fx) <= fl and abs(fy) <= fl and abs(fz) <= fl and abs(mx) <= ml and abs(my) <= ml and abs(mz) <= ml:
        return None
    for i, value in enumerate(reading):
        if abs(value) > (fl if i < 3 else ml):
            return Wrench._fields[i]
    return None


def first_overload(filtered: np.ndarray, limits: SensorsSection) -> tuple[int, str] | None:
    """The first row of the ``(m, 6)`` array ``filtered`` that
    ``overload_guard`` trips on, with the axis it names, or None."""
    fl, ml = limits.force_limit, limits.moment_limit
    over = filtered > (fl, fl, fl, ml, ml, ml)  # |value| > limit, without an abs copy
    over |= filtered < (-fl, -fl, -fl, -ml, -ml, -ml)
    over = over.ravel()
    first = int(over.argmax())  # row-major: the first row over, then its first axis
    if not over[first]:
        return None
    row, axis = divmod(first, 6)
    return row, Wrench._fields[axis]


class GuardFilter:
    """Per-axis moving average feeding the overload guard.

    Raw FT samples are too noisy to trip a +/-30 Nm stop within a millimetre
    of feed, so the guard watches a short moving average, the way a robot
    controller low-pass filters its overload channel. Task-level thresholds
    (contact, insertion end, hammer end) still use raw readings.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("filter window must be at least one sample")
        self.window = window
        self._buf: deque[Wrench] = deque(maxlen=window)
        self._sums = (0.0,) * 6

    def push(self, sample: Wrench) -> tuple[float, ...]:
        """Add ``sample``; return the filtered values in ``Wrench`` field order."""
        buf = self._buf
        s0, s1, s2, s3, s4, s5 = self._sums
        n0, n1, n2, n3, n4, n5 = sample
        if len(buf) == self.window:
            o0, o1, o2, o3, o4, o5 = buf[0]
            s0, s1, s2 = (s0 - o0) + n0, (s1 - o1) + n1, (s2 - o2) + n2
            s3, s4, s5 = (s3 - o3) + n3, (s4 - o4) + n4, (s5 - o5) + n5
        else:
            s0, s1, s2, s3, s4, s5 = s0 + n0, s1 + n1, s2 + n2, s3 + n3, s4 + n4, s5 + n5
        buf.append(sample)
        self._sums = (s0, s1, s2, s3, s4, s5)
        n = len(buf)
        return (s0 / n, s1 / n, s2 / n, s3 / n, s4 / n, s5 / n)

    def averages(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What ``push`` returns for each row of the ``(m, 6)`` array
        ``samples`` pushed in turn, and the sums after each push, without
        pushing them; ``extend`` then pushes a leading part of them.

        The sums take the same additions in the same order as ``push``: each
        push subtracts the sample it drops (``-0.0`` while the window fills,
        which leaves every sum as it is) and adds the new one.
        """
        window, held = self.window, len(self._buf)
        m = len(samples)
        steps = np.empty((2 * m + 1, 6))
        steps[0] = self._sums
        steps[1::2] = -0.0
        steps[2::2] = samples
        full = max(0, window - held)  # the first push that drops a sample
        if full < m:
            # The dropped samples: the held ones from the oldest on, then the new ones.
            drops = steps[2 * full + 1 :: 2]
            old = list(islice(self._buf, len(drops)))
            if old:
                drops[: len(old)] = old
            drops[len(old) :] = samples[: len(drops) - len(old)]
            np.negative(drops, out=drops)
        np.add.accumulate(steps, axis=0, out=steps)
        sums = steps[2::2]
        counts = np.minimum(np.arange(held + 1, held + m + 1), window)
        return sums / counts[:, None], sums

    def extend(self, samples: list[Wrench], sums: tuple[float, ...]):
        """Push ``samples`` at once (the last ``window`` of them will do),
        given the sums after the last push, as ``averages`` computed them."""
        self._buf.extend(samples)
        self._sums = sums

    def reset(self):
        self._buf.clear()
        self._sums = (0.0,) * 6


def read_laser(
    origin: tuple[float, float, float], direction: Point3, worksite: Worksite, noise: Iterator, sigma: float
) -> float:
    """Distance (m) from ``origin``, an ``(x, y, z)`` point, along ``direction``
    to the wall surface.

    Measures the true surface, so platform slippage shows up as an increased
    distance even when the commanded pose is stationary. Raises ValueError
    on a non-finite origin, and NoReturn when the ray is parallel to the
    wall or misses its extent. ``noise`` yields standard normals, such as
    ``NormalBlocks(rng, NOISE_BLOCK)``; it is not read when ``sigma`` is
    zero.
    """
    ox, oy, oz = origin
    if not (math.isfinite(ox) and math.isfinite(oy) and math.isfinite(oz)):
        raise ValueError(f"non-finite laser origin {origin!r}")
    # ``direction.normalized()`` and the dot products, on floats.
    dx, dy, dz = direction.x, direction.y, direction.z
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    if length < 1e-12:
        raise DegenerateGeometry("cannot normalize a near-zero vector")
    scale = 1.0 / length
    dx, dy, dz = dx * scale, dy * scale, dz * scale
    wall = worksite.wall
    n = wall.normal
    denom = dx * n.x + dy * n.y + dz * n.z
    if abs(denom) < 1e-9:
        raise NoReturn("laser ray is parallel to the wall")
    o = wall.frame.origin
    t = ((o.x - ox) * n.x + (o.y - oy) * n.y + (o.z - oz) * n.z) / denom
    if t <= 0:
        raise NoReturn("wall is behind the sensor")
    if not wall.contains_lateral(ox + dx * t, oy + dy * t, oz + dz * t):
        raise NoReturn("laser ray misses the wall extent")
    if sigma > 0.0:
        # The value ``Generator.normal(0.0, sigma)`` computes from the same draw.
        t += 0.0 + sigma * next(noise)
    return t


class DetectionKind(str, Enum):
    PART_HOLE = "part_hole"
    WALL_HOLE = "wall_hole"


@dataclass(frozen=True)
class Detection:
    position: Point3
    confidence: float


def camera_detect(
    kind: DetectionKind,
    worksite: Worksite,
    rng,
    sensors: SensorsSection,
    view_center: Point3,
    index: int,
) -> Detection | None:
    """Stochastic stand-in for the image-processing detections.

    Returns the true target position with per-axis Gaussian error in the wall
    plane, or None (not found) with probability ``1 - p_detect`` or when the
    target sits outside the lateral field of view (``camera_fov``, a
    half-extent) around ``view_center``.
    """
    if kind is DetectionKind.PART_HOLE:
        true_pos = worksite.part.hole_world(index)
        sigma = sensors.camera_sigma_part
    else:
        if index >= len(worksite.drilled_holes):
            return None
        hole = worksite.drilled_holes[index]
        true_pos = hole.position
        sigma = sensors.camera_sigma_wall
    lateral = true_pos - view_center
    normal = worksite.wall.normal
    lateral = lateral - normal.scaled(lateral.dot(normal))
    if lateral.norm() > sensors.camera_fov:
        return None
    if sensors.p_detect < 1.0 and rng.random() >= sensors.p_detect:
        return None
    if sigma > 0.0:
        frame = worksite.wall.frame
        err_x = rng.normal(0.0, sigma)
        err_y = rng.normal(0.0, sigma)
        position = true_pos + frame.x_axis.scaled(err_x) + frame.y_axis.scaled(err_y)
        err = (err_x * err_x + err_y * err_y) ** 0.5
        confidence = max(0.5, 1.0 - err / (3.0 * sigma))
    else:
        position = true_pos
        confidence = 1.0
    return Detection(position=position, confidence=confidence)

