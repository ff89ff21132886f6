from __future__ import annotations

import numpy as np
import pytest

from anchorsim.engine import World
from anchorsim.errors import OffWall, ScenarioInvalid, TooDeep
from anchorsim.geometry import Point3
from anchorsim.scenario import PartSection, ProcedureSection, Scenario, WallSection
from anchorsim.worksite import (
    AnchorBolt,
    AnchorState,
    DrilledHole,
    Engagement,
    PartState,
    StructuralPart,
    Wall,
    Worksite,
    anchor_engagement,
    default_hole_pattern,
    wall_frame_from_angles,
)

WALL_CENTER = Point3(0.9, 0.0, 1.0)
CLEARANCE = ProcedureSection().engagement_clearance
SPACING = PartSection().hole_spacing


def make_site(holes=1):
    wall = Wall(frame=wall_frame_from_angles(WALL_CENTER, 0.0, 0.0), cfg=WallSection())
    part = StructuralPart(hole_positions=default_hole_pattern(holes, SPACING))
    return Worksite(wall=wall, part=part)


def test_register_full_depth_hole():
    site = make_site()
    hole = site.register_drilled_hole(WALL_CENTER, -site.wall.normal, 0.08)
    assert hole.depth == 0.08
    assert site.hole_near(WALL_CENTER, 0.01) is hole


def test_register_zero_depth_rejected():
    site = make_site()
    with pytest.raises(ValueError):
        site.register_drilled_hole(WALL_CENTER, -site.wall.normal, 0.0)


def test_register_off_wall_rejected():
    site = make_site()
    off = WALL_CENTER + site.wall.normal.scaled(1.0)
    with pytest.raises(OffWall):
        site.register_drilled_hole(off, -site.wall.normal, 0.05)


def test_register_too_deep_rejected():
    site = make_site()
    with pytest.raises(TooDeep):
        site.register_drilled_hole(WALL_CENTER, -site.wall.normal, 0.14)


def test_register_outside_extent_rejected():
    site = make_site()
    edge = site.wall.frame.to_world(Point3(0.3, 0.0, 0.0))  # beyond half-width
    with pytest.raises(OffWall):
        site.register_drilled_hole(edge, -site.wall.normal, 0.05)


def test_registry_append_only_ordering():
    site = make_site()
    a = site.register_drilled_hole(site.wall.frame.to_world(Point3(-0.05, 0, 0)), -site.wall.normal, 0.08)
    b = site.register_drilled_hole(site.wall.frame.to_world(Point3(0.05, 0, 0)), -site.wall.normal, 0.08)
    assert site.drilled_holes == [a, b]


def hole_at_center(site):
    return site.register_drilled_hole(WALL_CENTER, -site.wall.normal, 0.08)


def engagement_at(lateral: float) -> Engagement:
    """Classify a tip ``lateral`` metres along the wall's x axis from a hole
    at the wall centre, by the radial offset the engine computes."""
    world = World(Scenario(), seed=0)
    site = world.site
    assert site.wall.frame.origin == WALL_CENTER
    hole = hole_at_center(site)
    world.arm("robot1").position = WALL_CENTER + site.wall.frame.x_axis.scaled(lateral)
    return anchor_engagement(world.radial_offset("robot1", hole), CLEARANCE)


def test_engagement_on_axis():
    assert engagement_at(0.0) is Engagement.ENGAGED


def test_engagement_rim_contact():
    assert engagement_at(0.0002 + 0.0005) is Engagement.RIM_CONTACT


def test_engagement_surface_contact():
    assert engagement_at(0.010) is Engagement.SURFACE_CONTACT


def test_engagement_boundary_is_strict():
    assert engagement_at(0.0002) is Engagement.RIM_CONTACT
    assert anchor_engagement(CLEARANCE, CLEARANCE) is Engagement.RIM_CONTACT


def test_engagement_far_tip_is_surface_contact():
    # A tip far from the mouth is on the bare surface: a far-off insertion
    # attempt is a miss, which the spiral search then reports.
    assert engagement_at(0.06) is Engagement.SURFACE_CONTACT


def test_one_anchor_per_hole():
    site = make_site()
    hole = hole_at_center(site)
    a1, a2 = AnchorBolt(), AnchorBolt()
    a1.set_state(AnchorState.GRASPED)
    a2.set_state(AnchorState.GRASPED)
    site.place_anchor_in_hole(a1, hole, depth=0.007)
    with pytest.raises(ValueError):
        site.place_anchor_in_hole(a2, hole, depth=0.007)


def test_anchor_never_in_two_holes():
    site = make_site()
    h1 = site.register_drilled_hole(site.wall.frame.to_world(Point3(-0.05, 0, 0)), -site.wall.normal, 0.08)
    h2 = site.register_drilled_hole(site.wall.frame.to_world(Point3(0.05, 0, 0)), -site.wall.normal, 0.08)
    a = AnchorBolt()
    a.set_state(AnchorState.GRASPED)
    site.place_anchor_in_hole(a, h1, depth=0.007)
    with pytest.raises(ValueError):
        site.place_anchor_in_hole(a, h2, depth=0.007)


def test_anchor_state_order_enforced():
    a = AnchorBolt()
    a.set_state(AnchorState.GRASPED)
    a.set_state(AnchorState.STUCK, depth=0.007)
    with pytest.raises(ValueError):
        a.set_state(AnchorState.GRASPED)


def test_anchor_seated_cannot_be_shallower_than_stuck():
    a = AnchorBolt()
    a.set_state(AnchorState.GRASPED)
    a.set_state(AnchorState.STUCK, depth=0.007)
    with pytest.raises(ValueError):
        a.set_state(AnchorState.SEATED, depth=0.003)


def test_anchor_cannot_outrun_hole_depth():
    hole = DrilledHole(position=WALL_CENTER, axis=Point3(1, 0, 0), depth=0.04)
    a = AnchorBolt()
    a.set_state(AnchorState.GRASPED)
    a.hole = hole
    with pytest.raises(ValueError):
        a.set_state(AnchorState.STUCK, depth=0.05)


def test_part_fixed_only_after_all_points():
    part = StructuralPart(hole_positions=default_hole_pattern(2, SPACING))
    part.set_state(PartState.GRASPED)
    part.set_state(PartState.HELD_ON_WALL)
    part.mark_point_fixed()
    assert part.state is PartState.PARTIALLY_FIXED
    part.mark_point_fixed()
    assert part.state is PartState.FIXED
    with pytest.raises(ValueError):
        part.mark_point_fixed()


def test_part_state_cannot_regress():
    part = StructuralPart(hole_positions=default_hole_pattern(1, SPACING))
    part.set_state(PartState.HELD_ON_WALL)
    with pytest.raises(ValueError):
        part.set_state(PartState.IN_STAND)


def test_hole_pattern_spacing():
    pts = default_hole_pattern(2, spacing=0.15)
    assert pts[0].distance_to(pts[1]) == pytest.approx(0.15)
    assert (pts[0] + pts[1]).norm() < 1e-12  # centred


def test_wall_needs_thickness_for_max_hole():
    sc = Scenario()
    sc.wall.thickness = 0.05
    with pytest.raises(ScenarioInvalid) as err:
        sc.validate()
    assert err.value.field == "wall.thickness"


def test_wall_frame_tilt():
    f = wall_frame_from_angles(WALL_CENTER, yaw_deg=5.0, pitch_deg=0.0)
    # Normal swings away from -x, stays horizontal.
    assert f.z_axis.z == pytest.approx(0.0)
    assert f.z_axis.x < -0.99
    # Frame invariants hold by construction (no exception raised).


def test_contains_lateral_matches_frame_coordinates():
    # The float test must agree with the wall-frame coordinates from
    # Frame.to_local, on a tilted wall and on both sides of every edge.
    wall = Wall(frame=wall_frame_from_angles(WALL_CENTER, 7.0, -4.0), cfg=WallSection())
    half_w, half_h = WallSection().width / 2, WallSection().height / 2
    rng = np.random.default_rng(3)
    inside = 0
    for _ in range(2000):
        p = Point3(*(rng.uniform(-0.25, 0.25, 3) + [0.9, 0.0, 1.0]).tolist())
        local = wall.frame.to_local(p)
        expected = abs(local.x) <= half_w and abs(local.y) <= half_h
        assert wall.contains_lateral(p.x, p.y, p.z) == expected
        inside += expected
    assert 0 < inside < 2000
