from __future__ import annotations

import math

import numpy as np
import pytest

from anchorsim.engine import World, run
from anchorsim.errors import PartDropped, StepFailed, WrongPose
from anchorsim.procedure import (
    STEP_ORDER,
    FixationStep,
    MissionContext,
    drive_mission,
    max_search_radius,
    outer_search_radius,
    schedule_dual_arm,
    spiral_offsets,
)
from anchorsim.scenario import Scenario
from anchorsim.tools import GripperTool
from anchorsim.worksite import PartState, StructuralPart, default_hole_pattern

NOMINAL_SEED = 7


def fast_scenario(**tweaks):
    """Defaults with the slow fixed time costs shrunk; physics untouched."""
    sc = Scenario()
    sc.robot.tool_change_time = 2.0
    sc.sensors.detect_time = 0.5
    sc.tools.grip_time = 0.5
    sc.tools.magnet_switch_time = 0.2
    sc.tools.blow_rate = 12.0
    for key, value in tweaks.items():
        section, name = key.split("__")
        setattr(getattr(sc, section), name, value)
    return sc.validate()


# --- orientation estimation -------------------------------------------------------


def test_orientation_exact_without_noise():
    sc = fast_scenario(wall__yaw_deg=5.0, sensors__laser_sigma=0.0)
    report, _ = run(sc, seed=0, mission="frame")
    assert report.success
    err = report.find(FixationStep.ESTIMATE_ORIENTATION).diagnostics["angle_error_rad"]
    assert err < 1e-9


def oracle_orientation_error_quantile(sigma, offset, n, q, seed=0):
    """Monte-Carlo of the estimator error straight from the noise model:
    three exact plane points, Gaussian range noise along the ray."""
    rng = np.random.default_rng(seed)
    base = np.array(
        [[0.0, 0.0, 0.0], [offset, 0.0, 0.0], [0.0, offset, 0.0]]
    )
    errors = np.empty(n)
    for i in range(n):
        pts = base + np.outer(rng.normal(0.0, sigma, 3), np.array([0.0, 0.0, 1.0]))
        x = pts[1] - pts[0]
        x /= np.linalg.norm(x)
        z = np.cross(x, pts[2] - pts[0])
        z /= np.linalg.norm(z)
        errors[i] = math.atan2(np.linalg.norm(np.cross(z, [0, 0, 1])), abs(z @ [0, 0, 1]))
    return float(np.quantile(errors, q))


def test_orientation_monte_carlo_bound():
    # 0.2 degrees is the 95 % quantile of the pure noise-model Monte-Carlo
    # (0.1 mm range noise over 0.10 m offsets); the simulated estimator must
    # reproduce that oracle distribution, not beat it.
    oracle_q95 = oracle_orientation_error_quantile(1e-4, 0.10, 4000, 0.95)
    assert math.degrees(oracle_q95) == pytest.approx(0.2, abs=0.03)

    sc = fast_scenario(wall__yaw_deg=5.0)
    errors = []
    for seed in range(120):
        report, _ = run(sc, seed=seed, mission="frame")
        assert report.success
        errors.append(
            report.find(FixationStep.ESTIMATE_ORIENTATION).diagnostics["angle_error_rad"]
        )
    errors.sort()
    q95 = errors[int(0.95 * len(errors)) - 1]
    assert q95 == pytest.approx(oracle_q95, rel=0.20)
    assert np.median(errors) < math.radians(0.12)
    assert max(errors) < math.radians(0.5)


def test_orientation_zero_offsets_degenerate():
    sc = fast_scenario(procedure__orientation_offset=0.0)
    report, _ = run(sc, seed=0, mission="frame")
    assert not report.success
    assert "DegenerateGeometry" in report.failure


# --- spiral search -----------------------------------------------------------------


def first_probe_within(target, clearance=0.0002, pitch=0.00035, spacing=0.00016, period=0.05,
                       timeout=60.0):
    """1-based index of the first spiral probe within ``clearance`` of
    ``target`` in the time budget, or None; the insertion search in
    ``insert_anchor`` walks the same offsets, one probe per period."""
    for count, (dx, dy) in enumerate(spiral_offsets(pitch, spacing, int(timeout / period)), 1):
        if math.hypot(dx - target[0], dy - target[1]) < clearance:
            return count
    return None


def test_spiral_zero_offset_first_probe():
    assert next(spiral_offsets(0.00035, 0.00016, 10)) == (0.0, 0.0)
    assert first_probe_within((0.0, 0.0)) == 1


def test_spiral_finds_offset_within_budget():
    count = first_probe_within((0.0012, -0.0003))
    assert count is not None
    assert count * 0.05 < 60.0


def test_spiral_timeout_far_offset():
    assert first_probe_within((0.030, 0.0)) is None


def test_spiral_coverage_guarantee():
    # Every offset within the guaranteed radius is within the clearance of
    # some probe; this is the brute-force justification for the insertion
    # success criterion.
    pitch, spacing, period, timeout = 0.00035, 0.00016, 0.05, 60.0
    probes = np.array(list(spiral_offsets(pitch, spacing, int(timeout / period))))
    guaranteed = max_search_radius(pitch, spacing, period, timeout)
    rng = np.random.default_rng(99)
    for _ in range(4000):
        r = guaranteed * math.sqrt(rng.uniform())
        ang = rng.uniform(0, 2 * math.pi)
        p = (r * math.cos(ang), r * math.sin(ang))
        d = np.min(np.hypot(probes[:, 0] - p[0], probes[:, 1] - p[1]))
        assert d < 0.0002, f"offset at r={r * 1e3:.3f} mm uncovered (gap {d * 1e3:.4f} mm)"


def test_search_radii_ordering():
    pitch, spacing, period, timeout = 0.00035, 0.00016, 0.05, 60.0
    g = max_search_radius(pitch, spacing, period, timeout)
    o = outer_search_radius(pitch, spacing, period, timeout)
    assert 0 < g < o
    assert o - g == pytest.approx(pitch)


def test_spiral_rejects_bad_geometry():
    with pytest.raises(ValueError):
        list(spiral_offsets(0.0, 0.0001, 10))


# --- insertion ---------------------------------------------------------------------


def test_insert_exact_detection_skips_search():
    sc = fast_scenario(sensors__camera_sigma_wall=0.0)
    report, _ = run(sc, seed=3, mission="insert")
    assert report.success
    diag = report.find(FixationStep.INSERT_ANCHOR).diagnostics
    assert diag["search_used"] is False
    assert diag["first_offset"] < 1e-9
    assert diag["stuck_depth"] == pytest.approx(0.007, abs=0.0005)


def test_insert_with_detection_error_uses_search():
    report, _ = run(fast_scenario(), seed=NOMINAL_SEED, mission="insert")
    assert report.success
    diag = report.find(FixationStep.INSERT_ANCHOR).diagnostics
    assert diag["search_used"] is True
    assert diag["first_attempt"] in ("rim_contact", "surface_contact")
    assert diag["search_time"] <= 60.0
    assert diag["stuck_depth"] == pytest.approx(0.007, abs=0.0005)


def test_insert_far_offset_times_out():
    # Detection error far beyond the spiral's outer radius.
    sc = fast_scenario(sensors__camera_sigma_wall=0.015)
    o = outer_search_radius(sc.procedure.spiral_pitch, sc.procedure.spiral_probe_spacing,
                            sc.procedure.spiral_probe_period, sc.procedure.search_timeout)
    for seed in range(10):
        report, _ = run(sc, seed=seed, mission="insert")
        rec = report.find(FixationStep.INSERT_ANCHOR)
        if rec.status == "failed":
            assert "SearchTimeout" in rec.error
            return
        assert rec.diagnostics["first_offset"] <= o
    raise AssertionError("no far-offset seed found in ten tries")


# --- hammering ---------------------------------------------------------------------


def test_hammer_nominal():
    report, _ = run(Scenario(), seed=NOMINAL_SEED, mission="hammer")
    assert report.success
    diag = report.find(FixationStep.HAMMER_ANCHOR).diagnostics
    assert diag["final_depth"] >= 0.070
    assert 0.072 <= diag["displacement"] <= 0.078
    assert diag["stop_moment"] >= 27.0


def test_hammer_short_hole_fails_with_diagnostic():
    # A 40 mm hole bottoms out long before the 70 mm success depth.
    sc = fast_scenario()
    world = World(sc, seed=2)
    ctx = MissionContext(world)
    site = world.site
    from anchorsim.procedure import _mission_insert_core
    from anchorsim.worksite import AnchorBolt

    hole = site.register_drilled_hole(site.wall.frame.origin, -site.wall.normal, 0.040)
    site.anchors_in_stand = [AnchorBolt()]

    def mission(ctx):
        anchor, inserted = yield from _mission_insert_core(ctx, hole)
        yield from ctx.guarded(
            FixationStep.HAMMER_ANCHOR, 0, "robot1",
            ctx.hammer_anchor("robot1", anchor, inserted["stuck_measured"], 0),
        )

    with pytest.raises(StepFailed):
        for _ in mission(ctx):
            world.step()
    rec = next(r for r in ctx.steps if r.step is FixationStep.HAMMER_ANCHOR)
    assert rec.status == "failed"
    assert "below the 70 mm success depth" in rec.error


# --- tightening ---------------------------------------------------------------------


def test_guard_stop_during_nut_run_down_fails_the_step_at_once():
    # Running the nut down at 40 Nm of flange moment overloads the 30 Nm
    # guard; the step must fail within one guard-filter window of the first
    # overload sample, not several seconds later in a later sub-step.
    sc = Scenario()
    sc.tools.free_run_torque = 100.0
    report, traces = run(sc, seed=NOMINAL_SEED, mission="nut")
    mx = traces["robot1/mx"]
    first_overload = next(t for t, v in zip(mx.times, mx.values) if abs(v) > sc.sensors.moment_limit)
    rec = report.find(FixationStep.TIGHTEN_NUT)
    assert rec.status == "failed"
    assert rec.error.startswith("HaltedByGuard: guard stop on mx")
    assert first_overload <= rec.t_end <= first_overload + sc.sensors.guard_filter_window


def test_tighten_nominal_substep_order():
    report, _ = run(Scenario(), seed=NOMINAL_SEED, mission="nut")
    assert report.success
    diag = report.find(FixationStep.TIGHTEN_NUT).diagnostics
    names = [s[0] for s in diag["substeps"]]
    assert names == [
        "approach_contact", "socket_fit", "re_approach",
        "run_nut", "re_approach_2", "pulse_tighten",
    ]
    assert diag["final_torque"] == 50.0
    assert diag["max_flange_moment"] < 30.0
    for trig in diag["approach_triggers"]:
        assert trig["reading_fz"] >= 50.0
        assert abs(trig["true_fz"] - 50.0) < 10.0


def test_tighten_missing_anchor_times_out():
    report, _ = run(fast_scenario(), seed=0, mission="nut-missing")
    assert not report.success
    assert "SocketFitTimeout" in report.failure


# --- full procedure ----------------------------------------------------------------


def test_full_run_step_order_single_point():
    report, _ = run(Scenario(), seed=NOMINAL_SEED, mission="full")
    assert report.success
    assert report.step_sequence() == list(STEP_ORDER)


def test_full_run_part_fixed_and_tools_returned():
    world = World(Scenario(), seed=NOMINAL_SEED)
    report, _ = drive_mission(world, "full")
    assert report.success
    assert world.site.part.state is PartState.FIXED
    # Robot 1 stows its last tool; robot 2 keeps the gripper for the next part.
    assert world.arm("robot1").attached_tool is None
    anchors = [h.anchor for h in world.site.drilled_holes]
    assert all(a is not None and a.torque == 50.0 for a in anchors)


def test_full_run_two_points_repeats_steps():
    sc = fast_scenario(part__holes=2)
    report, _ = run(sc, seed=NOMINAL_SEED, mission="full")
    assert report.success
    seq = report.step_sequence()
    # First point: all ten steps; second point: steps 3-9 again, then cleanup.
    assert seq[:10] == list(STEP_ORDER)
    assert seq[10:17] == list(STEP_ORDER[2:9])
    assert seq[17] is FixationStep.RELEASE_REPEAT
    points = [r.point_index for r in report.steps[10:17]]
    assert set(points) == {1}


def test_full_run_aborts_on_drill_overload():
    sc = Scenario()
    sc.tools.variant = "offset_uncompensated"
    report, _ = run(sc, seed=NOMINAL_SEED, mission="full")
    assert not report.success
    rec = report.find(FixationStep.DRILL_HOLE)
    assert rec.status == "failed"
    assert rec.diagnostics["halt_axis"] == "mx"
    assert rec.diagnostics["halt_depth"] == pytest.approx(0.010, abs=0.001)
    # Subsequent steps never ran.
    assert rec is report.steps[-1]


def test_full_run_regular_spring_positive_overload():
    sc = Scenario()
    sc.tools.variant = "regular_spring"
    report, _ = run(sc, seed=NOMINAL_SEED, mission="full")
    rec = report.find(FixationStep.DRILL_HOLE)
    assert rec.status == "failed"
    assert rec.diagnostics["max_mx"] >= 30.0
    assert rec.diagnostics["halt_depth"] < 0.080


def test_depth_from_commanded_stops_short_by_slip():
    # Using commanded position instead of the laser under-drills by exactly
    # the accumulated platform slip.
    laser, _ = run(fast_scenario(), seed=4, mission="drill")
    cmd, _ = run(fast_scenario(procedure__depth_source="commanded"), seed=4, mission="drill")
    d_laser = laser.find(FixationStep.DRILL_HOLE).diagnostics["hole_depth"]
    rec = cmd.find(FixationStep.DRILL_HOLE)
    d_cmd = rec.diagnostics["hole_depth"]
    slip = rec.diagnostics["slip_during"]
    assert d_laser == pytest.approx(0.080, abs=0.0005)
    assert d_cmd == pytest.approx(0.080 - slip, abs=0.0005)
    assert slip > 0.001


# --- part handling guards -------------------------------------------------------------


def test_magnet_off_mid_carry_drops_part():
    part = StructuralPart(hole_positions=default_hole_pattern(1, 0.15))
    part.set_state(PartState.GRASPED)
    gripper = GripperTool()
    gripper.switch_on(part)
    with pytest.raises(PartDropped):
        gripper.switch_off()


def test_pick_place_rejects_placed_part():
    world = World(fast_scenario(), seed=0)
    ctx = MissionContext(world)
    world.site.part.set_state(PartState.GRASPED)
    world.site.part.set_state(PartState.HELD_ON_WALL)
    with pytest.raises(WrongPose) as err:
        for _ in ctx.pick_place_part("robot2"):
            world.step()
    assert "already placed" in str(err.value)


# --- dual-arm scheduling ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_schedule_disjoint_cover(n):
    plan = schedule_dual_arm(n)
    seen = []
    for phase in plan.phases:
        for point, _arm in phase.assignments:
            seen.append(point)
    assert sorted(seen) == list(range(n))  # each point exactly once


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schedule_sequential_for_small_parts(n):
    plan = schedule_dual_arm(n)
    assert all(not phase.parallel for phase in plan.phases)
    assert plan.points_for("robot2") == []


@pytest.mark.parametrize("n", [4, 6])
def test_schedule_parallel_only_after_first_point(n):
    plan = schedule_dual_arm(n)
    assert not plan.phases[0].parallel
    assert plan.phases[0].assignments == ((0, "robot1"),)
    assert plan.phases[1].parallel
    assert len(plan.points_for("robot1")) + len(plan.points_for("robot2")) == n
    assert set(plan.points_for("robot1")) & set(plan.points_for("robot2")) == set()
    assert plan.points_for("robot2") != []


def test_schedule_from_part():
    part = StructuralPart(hole_positions=default_hole_pattern(4, spacing=0.05))
    plan = schedule_dual_arm(part)
    assert plan.n_points == 4


def test_parallel_execution_four_points():
    sc = fast_scenario(
        part__holes=4,
        part__hole_spacing=0.05,
        tools__blow_advance=0.004,
    )
    world = World(sc, seed=NOMINAL_SEED)
    report, _ = drive_mission(world, "full")
    assert report.success, report.failure
    assert world.site.part.state is PartState.FIXED
    by_arm = {"robot1": set(), "robot2": set()}
    for rec in report.steps:
        if rec.step is FixationStep.TIGHTEN_NUT:
            by_arm[rec.arm].add(rec.point_index)
    assert by_arm["robot1"] & by_arm["robot2"] == set()
    assert by_arm["robot1"] | by_arm["robot2"] == {0, 1, 2, 3}
    assert by_arm["robot2"], "robot2 fixed no points in a parallel plan"
    # Parallel phases really overlap in simulated time.
    r1 = [r for r in report.steps if r.arm == "robot1" and r.point_index in by_arm["robot1"] - {0}]
    r2 = [r for r in report.steps if r.arm == "robot2" and r.point_index in by_arm["robot2"]]
    overlap = any(
        a.t_start < b.t_end and b.t_start < a.t_end for a in r1 for b in r2
    )
    assert overlap


def test_book_insertion_threshold_conflicts_with_guard():
    # The documented 90 Nm insertion end exceeds the 30 Nm guard: with the
    # guard at its default the insertion halts on overload instead.
    sc = fast_scenario(procedure__insertion_end_moment=90.0)
    report, _ = run(sc, seed=3, mission="insert")
    rec = report.find(FixationStep.INSERT_ANCHOR)
    assert rec.status == "failed"
    assert "HaltedByGuard" in rec.error


def test_book_insertion_threshold_with_relaxed_guard():
    # Relaxing the guard lets the 90 Nm insertion end drive the wedge deeper.
    sc = fast_scenario(
        procedure__insertion_end_moment=90.0,
        sensors__moment_limit=120.0,
    )
    report, _ = run(sc, seed=3, mission="insert")
    assert report.success, report.failure
    diag = report.find(FixationStep.INSERT_ANCHOR).diagnostics
    assert diag["stuck_depth"] == pytest.approx(90.0 / 3571.4, abs=0.001)
