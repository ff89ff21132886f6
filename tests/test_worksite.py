from __future__ import annotations

import numpy as np
import pytest

from anchorsim.engine import World
from anchorsim.errors import OffWall, ScenarioInvalid
from anchorsim.geometry import Point3
from anchorsim.procedure import FixationStep, drive_mission
from anchorsim.scenario import PartSection, ProcedureSection, Scenario, WallSection, parse_scenario
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


def test_register_zero_depth_rejected():
    site = make_site()
    with pytest.raises(ValueError):
        site.register_drilled_hole(WALL_CENTER, -site.wall.normal, 0.0)


def test_register_off_wall_rejected():
    site = make_site()
    off = WALL_CENTER + site.wall.normal.scaled(1.0)
    with pytest.raises(OffWall):
        site.register_drilled_hole(off, -site.wall.normal, 0.05)


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


#: Four holes 14 mm apart: a wall-hole detection can land nearer a neighbour's hole.
CROWDED_HOLES = "[part]\nholes = 4\nhole_spacing = 0.014\n"


def full_run(text, seed):
    world = World(parse_scenario(text), seed)
    report, _ = drive_mission(world, "full")
    return world.site, report


def test_one_anchor_per_hole():
    # At seed 22 point 1's wall-hole detection lands 12 mm off, nearer point
    # 0's hole, which already holds a tightened anchor. Insertion engages only
    # the hole point 1 drilled, so the search fails and hole 0 keeps its anchor.
    site, report = full_run(CROWDED_HOLES + "[sensors]\ncamera_sigma_wall = 0.005\n", 22)
    inserted = [r for r in report.steps if r.step is FixationStep.INSERT_ANCHOR and r.status == "ok"]
    anchored = [h for h in site.drilled_holes if h.anchor is not None]
    assert report.failure.startswith("insert_anchor: SearchTimeout")
    assert len(inserted) == len(anchored) == 1
    assert anchored[0] is site.drilled_holes[0]
    assert anchored[0].anchor.state is AnchorState.TIGHTENED


def test_anchor_never_in_two_holes():
    site, report = full_run(CROWDED_HOLES, 0)
    assert report.success
    anchors = [h.anchor for h in site.drilled_holes]
    assert len(anchors) == len({id(a) for a in anchors}) == 4
    assert all(a.hole is h for a, h in zip(anchors, site.drilled_holes))


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
