from __future__ import annotations

import math

import numpy as np
import pytest

from anchorsim.errors import DegenerateGeometry
from anchorsim.geometry import (
    Frame,
    Point3,
    angle_between,
    estimate_wall_frame,
)


def oracle_frame(p1, p2, p3):
    """Independent reference: same construction done entirely in numpy."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    x = (p2 - p1) / np.linalg.norm(p2 - p1)
    zc = np.cross(x, p3 - p1)
    z = zc / np.linalg.norm(zc)
    y = np.cross(z, x)
    return p1, x, y, z


def random_triples(rng, n):
    for _ in range(n):
        p1 = rng.uniform(-2.0, 2.0, 3)
        p2 = p1 + rng.uniform(-1.0, 1.0, 3)
        p3 = p1 + rng.uniform(-1.0, 1.0, 3)
        area = 0.5 * np.linalg.norm(np.cross(p2 - p1, p3 - p1))
        if area > 1e-4:
            yield p1, p2, p3


def as_points(arrays):
    return tuple(Point3(*a) for a in arrays)


def test_axis_aligned_case():
    f = estimate_wall_frame(Point3(0, 0, 1), Point3(1, 0, 1), Point3(0, -1, 1))
    assert f.origin == Point3(0, 0, 1)
    assert f.x_axis.distance_to(Point3(1, 0, 0)) < 1e-12
    assert f.z_axis.distance_to(Point3(0, 0, -1)) < 1e-12
    assert f.y_axis.distance_to(Point3(0, -1, 0)) < 1e-12


def test_collinear_points_rejected():
    with pytest.raises(DegenerateGeometry):
        estimate_wall_frame(Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0))


def test_coincident_points_rejected():
    p = Point3(0.3, -0.2, 1.1)
    with pytest.raises(DegenerateGeometry):
        estimate_wall_frame(p, p, Point3(0, 1, 0))


def test_matches_numpy_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for p1, p2, p3 in random_triples(rng, 2000):
        f = estimate_wall_frame(*as_points((p1, p2, p3)))
        o_origin, ox, oy, oz = oracle_frame(p1, p2, p3)
        for got, want in (
            (f.origin, o_origin),
            (f.x_axis, ox),
            (f.y_axis, oy),
            (f.z_axis, oz),
        ):
            assert np.allclose(got.as_tuple(), want, atol=1e-9, rtol=0)
        checked += 1
        if checked >= 1000:
            break
    assert checked == 1000


def test_output_is_orthonormal_right_handed():
    rng = np.random.default_rng(7)
    for p1, p2, p3 in random_triples(rng, 300):
        f = estimate_wall_frame(*as_points((p1, p2, p3)))
        # Frame.__post_init__ enforces the invariants; re-check explicitly.
        for axis in (f.x_axis, f.y_axis, f.z_axis):
            assert abs(axis.norm() - 1.0) < 1e-9
        assert abs(f.x_axis.dot(f.y_axis)) < 1e-9
        assert f.x_axis.cross(f.y_axis).distance_to(f.z_axis) < 1e-9


def test_translation_moves_origin_only():
    rng = np.random.default_rng(11)
    shift = Point3(0.4, -1.2, 0.9)
    for p1, p2, p3 in random_triples(rng, 100):
        pts = as_points((p1, p2, p3))
        f = estimate_wall_frame(*pts)
        g = estimate_wall_frame(*(p + shift for p in pts))
        assert g.origin.distance_to(f.origin + shift) < 1e-9
        assert g.x_axis.distance_to(f.x_axis) < 1e-9
        assert g.y_axis.distance_to(f.y_axis) < 1e-9
        assert g.z_axis.distance_to(f.z_axis) < 1e-9


def test_swapping_p2_p3_changes_x_axis():
    rng = np.random.default_rng(13)
    for p1, p2, p3 in random_triples(rng, 100):
        pts = as_points((p1, p2, p3))
        f = estimate_wall_frame(pts[0], pts[1], pts[2])
        g = estimate_wall_frame(pts[0], pts[2], pts[1])
        # x axis now points along p3 - p1 instead of p2 - p1.
        want = (pts[2] - pts[0]).normalized()
        assert g.x_axis.distance_to(want) < 1e-9
        assert g.x_axis.distance_to(f.x_axis) > 1e-9


def test_to_local_identity():
    p = Point3(1, 2, 3)
    identity = Frame(Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0), Point3(0, 0, 1))
    assert identity.to_local(p) == p


def test_origin_maps_to_zero():
    f = estimate_wall_frame(Point3(0, 0, 1), Point3(1, 0, 1), Point3(0, -1, 1))
    local = f.to_local(f.origin)
    assert local.norm() < 1e-12


def test_round_trip():
    rng = np.random.default_rng(17)
    for p1, p2, p3 in random_triples(rng, 200):
        f = estimate_wall_frame(*as_points((p1, p2, p3)))
        p = Point3(*rng.uniform(-2, 2, 3))
        back = f.to_world(f.to_local(p))
        assert back.distance_to(p) < 1e-12


def test_frame_validation_rejects_bad_axes():
    with pytest.raises(ValueError):
        Frame(Point3(0, 0, 0), Point3(2, 0, 0), Point3(0, 1, 0), Point3(0, 0, 1))
    with pytest.raises(ValueError):
        # Left-handed triad.
        Frame(Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0), Point3(0, 0, -1))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Point3(0, math.inf, 0)


def test_angle_between():
    assert abs(angle_between(Point3(1, 0, 0), Point3(0, 1, 0)) - math.pi / 2) < 1e-12
    assert angle_between(Point3(1, 0, 0), Point3(1, 0, 0)) < 1e-12
