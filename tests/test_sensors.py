from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorsim.errors import NoReturn
from anchorsim.geometry import Point3
from anchorsim.scenario import PartSection, SensorsSection, WallSection
from anchorsim.sensors import (
    NOISE_BLOCK,
    DetectionKind,
    GuardFilter,
    NormalBlocks,
    Wrench,
    ZERO_WRENCH,
    camera_detect,
    first_overload,
    overload_guard,
    read_ft,
    read_laser,
)
from anchorsim.worksite import StructuralPart, Wall, Worksite, default_hole_pattern, wall_frame_from_angles

WALL_CENTER = Point3(0.9, 0.0, 1.0)


def make_site():
    wall = Wall(frame=wall_frame_from_angles(WALL_CENTER, 0.0, 0.0), cfg=WallSection())
    part = StructuralPart(hole_positions=default_hole_pattern(1, PartSection().hole_spacing))
    part.pose = wall.frame
    return Worksite(wall=wall, part=part)


# --- FT sensor -----------------------------------------------------------------


def ft_noise(seed):
    return NormalBlocks(np.random.default_rng(seed), (NOISE_BLOCK, 6))


def test_zero_wrench_zero_noise():
    r = read_ft(ZERO_WRENCH, SensorsSection(ft_sigma_force=0.0, ft_sigma_moment=0.0), noise=None)
    assert tuple(r) == (0.0,) * 6


def test_ft_deterministic_per_seed():
    a = [tuple(read_ft(ZERO_WRENCH, SensorsSection(), ft_noise(5))) for _ in range(1)]
    noise1, noise2 = ft_noise(5), ft_noise(5)
    seq1 = [tuple(read_ft(ZERO_WRENCH, SensorsSection(), noise1)) for _ in range(50)]
    seq2 = [tuple(read_ft(ZERO_WRENCH, SensorsSection(), noise2)) for _ in range(50)]
    assert seq1 == seq2
    assert a[0] == seq1[0]


def test_ft_noise_sigma():
    normals = ft_noise(123)
    noise = SensorsSection(ft_sigma_force=2.0, ft_sigma_moment=0.2)
    n = 100_000
    fz = np.empty(n)
    mx = np.empty(n)
    for i in range(n):
        r = read_ft(ZERO_WRENCH, noise, normals)
        fz[i] = r.fz
        mx[i] = r.mx
    assert abs(fz.std() - 2.0) / 2.0 < 0.05
    assert abs(mx.std() - 0.2) / 0.2 < 0.05
    assert abs(fz.mean()) < 0.05


def test_block_drawn_ft_noise_matches_single_draws_bit_for_bit():
    # Two refills and a bit: each reading equals the true wrench plus one
    # ``standard_normal(6)`` call's noise, as if drawn one row at a time.
    sensors = SensorsSection(ft_sigma_force=2.0, ft_sigma_moment=0.2)
    true = Wrench(10.0, -3.5, 250.0, 1.25, -0.5, 0.0)
    noise, reference = ft_noise(11), np.random.default_rng(11)
    for _ in range(2 * NOISE_BLOCK + 3):
        n = reference.standard_normal(6).tolist()
        expected = [v + (2.0 if i < 3 else 0.2) * z for i, (v, z) in enumerate(zip(true, n))]
        assert tuple(read_ft(true, sensors, noise)) == tuple(expected)
    rows = NormalBlocks(np.random.default_rng(12), (4, 6))
    reference = np.random.default_rng(12)
    assert [next(rows) for _ in range(9)] == [reference.standard_normal(6).tolist() for _ in range(9)]


def test_rows_taken_in_bulk_continue_the_stream():
    # ``ahead`` and ``skip`` read the block ``next`` reads, at its cursor and
    # across refills, so mixed reads hand out the single-draw sequence.
    rows = NormalBlocks(np.random.default_rng(12), (4, 6))
    reference = np.random.default_rng(12).standard_normal((12, 6)).tolist()
    taken = [next(rows)]
    for count in (3, 2, 0, 1):
        ahead = rows.ahead(count + 2)
        taken += ahead[:count].tolist()
        rows.skip(count)
        taken.append(next(rows))
    assert len(ahead) == 3 and taken == reference[:11]


#: One read of a ``NormalBlocks`` of blocks of 4 rows: ``("next", 0, 0)``,
#: or ``("ahead", count, k)``, which reads ``ahead(count)`` and hands out
#: its first ``k % (count + 1)`` rows with ``skip``.
READ = st.tuples(st.just("next"), st.just(0), st.just(0)) | st.tuples(
    st.just("ahead"), st.integers(0, 11), st.integers(0, 11)
)


@example(shape=4, reads=[("ahead", 11, 6), ("next", 0, 0), ("ahead", 9, 9), ("next", 0, 0)])
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(shape=st.sampled_from([(4, 6), 4]), reads=st.lists(READ, max_size=12))
def test_any_mix_of_reads_hands_out_the_single_draws(shape, reads):
    # ``next``, ``ahead`` and ``skip`` read one cursor, across blocks, so any
    # mix of them hands out the rows of one ``standard_normal(row)`` call
    # each.
    row = (6,) if shape == (4, 6) else ()
    single = np.random.default_rng(12)
    expected = [single.standard_normal(row) for _ in range(150)]
    rows, handed = NormalBlocks(np.random.default_rng(12), shape), 0
    for kind, count, k in reads:
        if kind == "next":
            assert next(rows) == expected[handed].tolist()
            handed += 1
        else:
            ahead = rows.ahead(count)
            assert ahead.shape == (count, *row)
            assert ahead.tobytes() == np.array(expected[handed : handed + count]).tobytes()
            rows.skip(k % (count + 1))
            handed += k % (count + 1)


def test_zero_sigmas_draw_nothing():
    rng = np.random.default_rng(13)
    before = rng.bit_generator.state
    ft = NormalBlocks(rng, (NOISE_BLOCK, 6))
    quiet = SensorsSection(ft_sigma_force=0.0, ft_sigma_moment=0.0)
    for _ in range(10):
        read_ft(Wrench(fz=5.0), quiet, ft)
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3)
    laser = NormalBlocks(rng, NOISE_BLOCK)
    for _ in range(10):
        read_laser(origin.as_tuple(), -site.wall.normal, site, laser, sigma=0.0)
    assert rng.bit_generator.state == before


# --- guard ----------------------------------------------------------------------


LIMITS = SensorsSection()


def test_guard_moment_overload():
    r = Wrench(0, 0, 0, -30.1, 0, 0)
    assert overload_guard(r, LIMITS) == "mx"


def test_guard_boundary_passes():
    r = Wrench(1000.0, -1000.0, 1000.0, 30.0, -30.0, 30.0)
    assert overload_guard(r, LIMITS) is None


def test_guard_force_overload():
    r = Wrench(0, 0, 1500.0, 0, 0, 0)
    assert overload_guard(r, LIMITS) == "fz"


def test_guard_monotone():
    rng = np.random.default_rng(77)
    lim = LIMITS
    for _ in range(5000):
        base = rng.uniform(-1200, 1200, 3).tolist() + rng.uniform(-40, 40, 3).tolist()
        r = Wrench(*base)
        verdict = overload_guard(r, lim)
        if verdict is None:
            continue
        grow = rng.uniform(1.0, 2.0, 6)
        bigger = Wrench(*(v * g for v, g in zip(base, grow)))
        assert overload_guard(bigger, lim) is not None


def test_guard_filter_average():
    f = GuardFilter(window=4)
    out = None
    for v in (0.0, 0.0, 0.0, 40.0):
        out = f.push(Wrench(0, 0, 0, v, 0, 0))
    assert out[3] == pytest.approx(10.0)


def test_guard_filter_needs_window():
    with pytest.raises(ValueError):
        GuardFilter(0)


# --- laser ----------------------------------------------------------------------


def laser_noise(seed):
    return NormalBlocks(np.random.default_rng(seed), NOISE_BLOCK)


def test_laser_exact_distance():
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3)
    d = read_laser(origin.as_tuple(), -site.wall.normal, site, noise=None, sigma=0.0)
    assert d == pytest.approx(0.3, abs=1e-12)


def test_laser_sees_platform_slip():
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3)
    before = read_laser(origin.as_tuple(), -site.wall.normal, site, noise=None, sigma=0.0)
    slipped = origin + site.wall.normal.scaled(0.005)  # platform drifts back
    after = read_laser(slipped.as_tuple(), -site.wall.normal, site, noise=None, sigma=0.0)
    assert after - before == pytest.approx(0.005, abs=1e-12)


def test_laser_parallel_ray():
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3)
    with pytest.raises(NoReturn):
        read_laser(origin.as_tuple(), site.wall.frame.x_axis, site, noise=None, sigma=0.0)


def test_laser_misses_extent():
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3) + site.wall.frame.x_axis.scaled(0.5)
    with pytest.raises(NoReturn):
        read_laser(origin.as_tuple(), -site.wall.normal, site, noise=None, sigma=0.0)


def test_laser_noise_deterministic():
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3)
    a = read_laser(origin.as_tuple(), -site.wall.normal, site, laser_noise(9), sigma=1e-4)
    b = read_laser(origin.as_tuple(), -site.wall.normal, site, laser_noise(9), sigma=1e-4)
    assert a == b


def test_block_drawn_laser_noise_matches_generator_normal_bit_for_bit():
    # Two refills and a bit, against ``Generator.normal(0.0, sigma)`` per read.
    site = make_site()
    origin = WALL_CENTER + site.wall.normal.scaled(0.3)
    exact = read_laser(origin.as_tuple(), -site.wall.normal, site, noise=None, sigma=0.0)
    noise = laser_noise(14)
    reference = np.random.default_rng(14)
    for _ in range(2 * NOISE_BLOCK + 3):
        expected = exact + reference.normal(0.0, 1e-4)
        assert read_laser(origin.as_tuple(), -site.wall.normal, site, noise, sigma=1e-4) == expected


# --- camera ---------------------------------------------------------------------


def test_camera_noiseless_exact():
    site = make_site()
    sensors = SensorsSection(p_detect=1.0, camera_sigma_part=0.0)
    true_pos = site.part.hole_world(0)
    det = camera_detect(DetectionKind.PART_HOLE, true_pos, site.wall, None, sensors, true_pos)
    assert det is not None
    assert det.position.distance_to(site.part.hole_world(0)) < 1e-12
    assert det.confidence == 1.0


def test_camera_error_sigma():
    site = make_site()
    sensors = SensorsSection(p_detect=1.0, camera_sigma_wall=0.0015)
    rng = np.random.default_rng(321)
    n = 10_000
    errs_x = np.empty(n)
    for i in range(n):
        det = camera_detect(DetectionKind.WALL_HOLE, WALL_CENTER, site.wall, rng, sensors, WALL_CENTER)
        local = site.wall.frame.to_local(det.position - Point3(0, 0, 0))
        true_local = site.wall.frame.to_local(WALL_CENTER - Point3(0, 0, 0))
        errs_x[i] = local.x - true_local.x
    assert abs(errs_x.std() - 0.0015) / 0.0015 < 0.10
    assert abs(errs_x.mean()) < 0.0002


def test_camera_out_of_fov():
    site = make_site()
    far_view = WALL_CENTER + site.wall.frame.x_axis.scaled(0.7)
    det = camera_detect(
        DetectionKind.WALL_HOLE,
        WALL_CENTER,
        site.wall,
        np.random.default_rng(1),
        SensorsSection(p_detect=1.0),
        far_view,
    )
    assert det is None


def test_camera_miss_probability():
    site = make_site()
    det = camera_detect(
        DetectionKind.PART_HOLE,
        site.part.hole_world(0),
        site.wall,
        np.random.default_rng(1),
        SensorsSection(p_detect=0.0),
        site.part.hole_world(0),
    )
    assert det is None


def test_wrench_tuple():
    w = Wrench(fz=300.0, mx=-28.0)
    assert tuple(w) == (0.0, 0.0, 300.0, -28.0, 0.0, 0.0)


def test_guard_nan_and_first_axis_over():
    assert overload_guard(Wrench(float("nan"), 0, 0, float("nan"), 0, 0), LIMITS) is None
    # Several axes over: the first in field order is named.
    assert overload_guard(Wrench(0, 1000.5, -2000.0, 0, 0, 31.0), LIMITS) == "fy"
    assert overload_guard(Wrench(float("nan"), 0, 0, 0, -30.5, 99.0), LIMITS) == "my"


def test_guard_filter_matches_sequential_sums_bit_for_bit():
    # The running sums must take the oldest sample out before adding the new
    # one, per axis, exactly as a sequential loop does; 23 samples in a window
    # of 5 wrap the window four times.
    rng = np.random.default_rng(5)
    f = GuardFilter(window=5)
    window, sums = [], [0.0] * 6
    for _ in range(23):
        sample = Wrench(*(rng.standard_normal(6) * [900, 900, 900, 25, 25, 25]).tolist())
        if len(window) == 5:
            oldest = window.pop(0)
            for i in range(6):
                sums[i] -= oldest[i]
        window.append(sample)
        for i in range(6):
            sums[i] += sample[i]
        assert f.push(sample) == tuple(s / len(window) for s in sums)


def test_guard_filter_in_bulk_matches_push_bit_for_bit():
    # ``averages`` returns what ``push`` would, while the window fills and
    # once it wraps, and ``extend`` leaves the state that the pushes leave.
    # The stretches: one row into an empty window, two that fill it to one
    # short of full (24 of 25 rows), one that starts there and wraps, one
    # row into a full window, and rows into a full window.
    rng = np.random.default_rng(6)
    pushed, bulk = GuardFilter(window=25), GuardFilter(window=25)
    for count in (1, 9, 14, 300, 1, 7):
        samples = rng.standard_normal((count, 6)) * [900, 900, 900, 25, 25, 25]
        averages, sums = bulk.averages(samples)
        expected = np.array([pushed.push(Wrench(*row)) for row in samples.tolist()])
        assert averages.tobytes() == expected.tobytes()
        bulk.extend(list(map(Wrench._make, samples.tolist())), tuple(sums[-1].tolist()))
        assert list(bulk._buf) == list(pushed._buf) and bulk._sums == pushed._sums


def test_first_overload_finds_the_first_trip_of_overload_guard():
    limits = SensorsSection(force_limit=1000.0, moment_limit=30.0)
    filtered = np.zeros((5, 6))
    assert first_overload(filtered, limits) is None
    filtered[3] = (0.0, 0.0, 1000.0, 0.0, -31.0, 0.0)  # fz at its limit passes
    filtered[4, 0] = -1000.5
    assert first_overload(filtered, limits) == (3, "my") == (3, overload_guard(tuple(filtered[3]), limits))
