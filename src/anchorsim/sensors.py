"""Noisy observation models and the force/moment safety guard."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, islice
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DegenerateGeometry, NoReturn
from .geometry import Point3
from .scenario import SensorsSection
from .worksite import Wall, Worksite


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


class NormalBlocks:
    """Standard normals from the numpy Generator ``rng``, drawn ``shape`` at a
    time and handed out one row per ``next`` (one float for a 1-D shape).

    A block takes the same bits from the stream as the same number of single
    draws, so a stream with no other reader yields exactly the values that
    ``standard_normal(row)`` calls would. Nothing is drawn before the first
    read. ``ahead`` and ``skip`` read the rows as an array, for a caller
    that takes many rows at once; ``next`` reads one through them.
    """

    def __init__(self, rng, shape):
        self._draw = partial(rng.standard_normal, shape)
        self._rows = np.empty((0, *np.atleast_1d(shape)[1:]))  # the held rows
        self._cursor = 0  # the next held row to hand out

    def __next__(self):
        row = self.ahead(1)[0].tolist()
        self.skip(1)
        return row

    def ahead(self, count: int) -> np.ndarray:
        """The next ``count`` rows, drawing blocks while fewer are held;
        nothing is handed out."""
        if len(self._rows) - self._cursor < count:
            rows = [self._rows[self._cursor :].copy()]
            self._rows = None  # free the spent rows before drawing
            while sum(map(len, rows)) < count:
                rows.append(self._draw())
            self._rows, self._cursor = np.concatenate(rows), 0
        return self._rows[self._cursor : self._cursor + count]

    def skip(self, count: int):
        """Hand out the first ``count`` rows of those ``ahead`` returned."""
        self._cursor += count


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
    upper, lower = _limit_rows(limits.force_limit, limits.moment_limit)
    over = filtered > upper  # |value| > limit, without an abs copy
    over |= filtered < lower
    over = over.ravel()
    first = int(over.argmax())  # row-major: the first row over, then its first axis
    if not over[first]:
        return None
    row, axis = divmod(first, 6)
    return row, Wrench._fields[axis]


@lru_cache(maxsize=8)
def _limit_rows(fl: float, ml: float) -> tuple[np.ndarray, np.ndarray]:
    """``first_overload``'s upper and lower limit of each ``Wrench`` axis,
    read-only, as every call shares them."""
    upper = np.array((fl, fl, fl, ml, ml, ml))
    lower = -upper
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


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
        which leaves every sum as it is) and adds the new one, and the
        average divides by the samples held.
        """
        window, held = self.window, len(self._buf)
        m = len(samples)
        filling = min(m, max(0, window - held))  # the pushes that drop no sample
        steps = np.empty((2 * m + 1, 6))
        steps[0] = self._sums
        steps[1 : 2 * filling : 2] = -0.0
        steps[2::2] = samples
        if filling < m:
            # The dropped samples, negated: the held ones from the oldest on, then the new ones.
            drops = steps[2 * filling + 1 :: 2]
            k = min(held, len(drops))
            if k:
                old = np.fromiter(chain.from_iterable(islice(self._buf, k)), float, 6 * k)
                np.negative(old.reshape(k, 6), out=drops[:k])
            np.negative(samples[: len(drops) - k], out=drops[k:])
        np.add.accumulate(steps, axis=0, out=steps)
        sums = steps[2::2]
        averages = sums / window
        if filling:
            averages[:filling] = sums[:filling] / np.arange(held + 1, held + filling + 1)[:, None]
        return averages, sums

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
    wall = worksite.wall
    ray = _laser_ray(direction, wall)
    dx, dy, dz, _ = ray
    t = _laser_range(origin, ray, wall)
    if t <= 0:
        raise NoReturn("wall is behind the sensor")
    if not wall.contains_lateral(ox + dx * t, oy + dy * t, oz + dz * t):
        raise NoReturn("laser ray misses the wall extent")
    if sigma > 0.0:
        # The value ``Generator.normal(0.0, sigma)`` computes from the same draw.
        t += 0.0 + sigma * next(noise)
    return t


def read_lasers(origins, direction: Point3, worksite: Worksite, noise: NormalBlocks, sigma: float) -> np.ndarray:
    """``read_laser`` from each point of ``origins``, three ``(m,)`` arrays of
    x, y and z, up to the first read that would raise, which only
    ``read_laser`` may take. The noise is ``noise.ahead(m)`` for ``m``
    reads; the caller hands it out with ``skip`` once it keeps the reads."""
    finite = np.isfinite(origins[0]) & np.isfinite(origins[1]) & np.isfinite(origins[2])
    ox, oy, oz = (a[: len(finite) if finite.all() else int(finite.argmin())] for a in origins)
    wall = worksite.wall
    ray = _laser_ray(direction, wall)
    dx, dy, dz, _ = ray
    t = _laser_range((ox, oy, oz), ray, wall)
    hits = (t > 0) & wall.contains_lateral(ox + dx * t, oy + dy * t, oz + dz * t)
    t = t[: len(hits) if hits.all() else int(hits.argmin())]
    if sigma > 0.0:
        t += 0.0 + sigma * noise.ahead(len(t))
    return t


def _laser_ray(direction: Point3, wall) -> tuple[float, float, float, float]:
    """``direction.normalized()`` on floats, and its dot product with the
    wall normal; raises when the ray cannot return from the wall."""
    dx, dy, dz = direction.x, direction.y, direction.z
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    if length < 1e-12:
        raise DegenerateGeometry("cannot normalize a near-zero vector")
    scale = 1.0 / length
    dx, dy, dz = dx * scale, dy * scale, dz * scale
    n = wall.normal
    denom = dx * n.x + dy * n.y + dz * n.z
    if abs(denom) < 1e-9:
        raise NoReturn("laser ray is parallel to the wall")
    return dx, dy, dz, denom


def _laser_range(origin, ray, wall):
    """The distance along ``ray`` (from ``_laser_ray``) from ``origin`` to the
    wall plane: floats, or arrays of them."""
    ox, oy, oz = origin
    o, n = wall.frame.origin, wall.normal
    return ((o.x - ox) * n.x + (o.y - oy) * n.y + (o.z - oz) * n.z) / ray[3]


class DetectionKind(str, Enum):
    PART_HOLE = "part_hole"
    WALL_HOLE = "wall_hole"


@dataclass(frozen=True)
class Detection:
    position: Point3
    confidence: float


def camera_detect(
    kind: DetectionKind,
    true_pos: Point3,
    wall: Wall,
    rng,
    sensors: SensorsSection,
    view_center: Point3,
) -> Detection | None:
    """Stochastic stand-in for the image-processing detections.

    Returns ``true_pos``, the target's true position, with per-axis Gaussian
    error in the wall plane, or None (not found) with probability
    ``1 - p_detect`` or when the target sits outside the lateral field of view
    (``camera_fov``, a half-extent) around ``view_center``. ``kind`` picks the
    sigma: ``camera_sigma_part`` or ``camera_sigma_wall``.
    """
    sigma = sensors.camera_sigma_part if kind is DetectionKind.PART_HOLE else sensors.camera_sigma_wall
    lateral = true_pos - view_center
    normal = wall.normal
    lateral = lateral - normal.scaled(lateral.dot(normal))
    if lateral.norm() > sensors.camera_fov:
        return None
    if sensors.p_detect < 1.0 and rng.random() >= sensors.p_detect:
        return None
    if sigma > 0.0:
        frame = wall.frame
        err_x = rng.normal(0.0, sigma)
        err_y = rng.normal(0.0, sigma)
        position = true_pos + frame.x_axis.scaled(err_x) + frame.y_axis.scaled(err_y)
        err = (err_x * err_x + err_y * err_y) ** 0.5
        confidence = max(0.5, 1.0 - err / (3.0 * sigma))
    else:
        position = true_pos
        confidence = 1.0
    return Detection(position=position, confidence=confidence)

