from __future__ import annotations

import math

import numpy as np
import pytest

from anchorsim.engine import World, run
from anchorsim.errors import ScenarioInvalid, StepFailed, WrongPose
from anchorsim.procedure import (
    MISSIONS,
    FixationStep,
    MissionContext,
    drive_mission,
    max_search_radius,
    outer_search_radius,
    schedule_dual_arm,
    spiral_offsets,
)
from anchorsim.scenario import ProcedureSection, Scenario, SensorsSection, ToolsSection
from anchorsim.worksite import AnchorState, PartState

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
    # Laser points an L of zero legs apart span no triangle, so validation
    # rejects the offset before any step runs.
    with pytest.raises(ScenarioInvalid, match="procedure.orientation_offset"):
        fast_scenario(procedure__orientation_offset=0.0)


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
    hole = site.register_drilled_hole(site.wall.frame.origin, -site.wall.normal, 0.040)

    def mission(ctx):
        anchor, stuck_measured = yield from ctx.anchor_hole("robot1", 0, hole)
        yield from ctx.guarded(
            FixationStep.HAMMER_ANCHOR, 0, "robot1",
            ctx.hammer_anchor("robot1", anchor, stuck_measured),
        )

    with pytest.raises(StepFailed):
        for _ in mission(ctx):
            world.run(1)
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
    assert [r.step for r in report.steps] == list(FixationStep)


def test_full_run_part_fixed_and_tools_returned():
    world = World(Scenario(), seed=NOMINAL_SEED)
    report, _ = drive_mission(world, "full")
    assert report.success
    assert world.site.part.state is PartState.FIXED
    # Robot 1 stows its last tool; robot 2 keeps the gripper for the next part.
    assert world.arm("robot1").attached_tool is None
    anchors = [h.anchor for h in world.site.drilled_holes]
    assert all(a is not None and a.state is AnchorState.TIGHTENED for a in anchors)
    assert report.find(FixationStep.TIGHTEN_NUT).diagnostics["final_torque"] == 50.0


def test_full_run_two_points_repeats_steps():
    sc = fast_scenario(part__holes=2)
    report, _ = run(sc, seed=NOMINAL_SEED, mission="full")
    assert report.success
    seq = [r.step for r in report.steps]
    # First point: all ten steps; second point: steps 3-9 again, then cleanup.
    assert seq[:10] == list(FixationStep)
    assert seq[10:17] == list(FixationStep)[2:9]
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


# --- a tick on which two outcomes of a wait hold ---------------------------------------


def touch(max_travel):
    """Feed robot1 from 1 mm off the wall at the approach speed, under a
    stiff surface contact and noise-free FT, until fz reaches 20 N
    (``press_until``) or the feed fails: ``(ticks, error or None)``."""
    world = World(Scenario(sensors=SensorsSection(ft_sigma_force=0.0, ft_sigma_moment=0.0)), seed=NOMINAL_SEED)
    ctx = MissionContext(world)
    frame = world.site.wall.frame
    world.arm("robot1").position = frame.origin + frame.z_axis.scaled(0.001)

    def law(distances, *_):
        return np.where(distances < 0, 200000.0 * -distances, 0.0), np.zeros(len(distances))

    try:
        for horizon in ctx.press_until("robot1", law, 20.0, max_travel):
            world.run(horizon)
    except WrongPose as exc:
        return world.clock.ticks, exc
    return world.clock.ticks, None


def test_a_feed_that_stops_on_the_tick_it_passes_its_travel_limit_stops():
    # fz reaches 20 N on tick 56, on which the feed has fed 1.12 mm, past a
    # 1.11 mm travel limit for the first time: the stop wins. A 1.09 mm limit
    # fails the feed on tick 55, at 1.10 mm.
    assert touch(0.00111) == (56, None)
    ticks, error = touch(0.00109)
    assert ticks == 55 and "feed exceeded 0.00109 m without its stop condition" in str(error)


def test_an_engaged_tip_enters_on_the_tick_fz_reaches_15_n():
    # The wedge's fz, 6 * 5000 * pen, reaches 15 N on the tick the engaged
    # tip is 0.5 mm in, where the push both enters and stops on fz: it
    # enters, so no search runs. An exact camera puts the tip in the hole.
    sc = Scenario(
        procedure=ProcedureSection(wedge_moment_rate=5000.0),
        sensors=SensorsSection(ft_sigma_force=0.0, ft_sigma_moment=0.0, camera_sigma_wall=0.0),
    )
    report, _ = run(sc, seed=NOMINAL_SEED, mission="insert")
    diagnostics = report.find(FixationStep.INSERT_ANCHOR).diagnostics
    assert report.success and diagnostics["first_attempt"] == "engaged"
    assert diagnostics["search_used"] is False


def test_a_socket_that_slots_on_at_the_fit_timeout_fits():
    # The socket slots on and the fit times out on the same tick, the first
    # past 3.003 s of fitting: the slot-on wins.
    sc = Scenario(tools=ToolsSection(socket_fit_time=3.003), procedure=ProcedureSection(socket_fit_timeout=3.003))
    report, _ = run(sc, seed=NOMINAL_SEED, mission="nut")
    assert report.success, report.failure


@pytest.mark.parametrize("success_depth, failure", [
    (0.07904, None),
    (0.07905, "hammer_anchor: SimulationError: bottom contact at 79.0 mm, below the 79 mm success depth"),
])
def test_hammering_fails_on_the_laser_depth_of_its_end_tick(success_depth, failure):
    # With an exact laser, the blow that ends hammering at seed 7 takes the
    # laser depth from 79.035 mm to 79.047 mm on its tick, where the moment
    # reading reaches the end moment: that tick's depth decides.
    sc = Scenario(procedure=ProcedureSection(hammer_success_depth=success_depth), sensors=SensorsSection(laser_sigma=0.0))
    report, _ = run(sc, seed=NOMINAL_SEED, mission="hammer")
    assert report.failure == failure


# --- part handling guards -------------------------------------------------------------


def test_pick_place_rejects_placed_part():
    world = World(fast_scenario(), seed=0)
    ctx = MissionContext(world)
    world.site.part.set_state(PartState.GRASPED)
    world.site.part.set_state(PartState.HELD_ON_WALL)
    with pytest.raises(WrongPose) as err:
        for _ in ctx.pick_place_part("robot2"):
            world.run(1)
    assert "already placed" in str(err.value)


# --- dual-arm scheduling ----------------------------------------------------------------


def points_for(plan, arm):
    return [p for phase in plan.phases for (p, a) in phase.assignments if a == arm]


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
    assert points_for(plan, "robot2") == []


@pytest.mark.parametrize("n", [4, 6])
def test_schedule_parallel_only_after_first_point(n):
    plan = schedule_dual_arm(n)
    assert not plan.phases[0].parallel
    assert plan.phases[0].assignments == ((0, "robot1"),)
    assert plan.phases[1].parallel
    assert len(points_for(plan, "robot1")) + len(points_for(plan, "robot2")) == n
    assert set(points_for(plan, "robot1")) & set(points_for(plan, "robot2")) == set()
    assert points_for(plan, "robot2") != []


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


# --- horizon driving ------------------------------------------------------------


@pytest.mark.parametrize("mission, holes", [(m, 1) for m in MISSIONS] + [("full", 4)])
def test_horizon_driving_matches_tick_by_tick(monkeypatch, mission, holes):
    # drive_mission runs the world over each yielded horizon; running one
    # tick per yield and sending None back, as ``for _ in gen: world.run(1)``
    # does, must give the same report and traces.
    sc = Scenario()
    if holes > 1:
        sc.part.holes, sc.part.hole_spacing = holes, 0.05
        sc.robot.tool_change_time = 5.0

    def outputs():
        report, traces = drive_mission(World(sc, NOMINAL_SEED), mission)
        return report.to_dict(), {k: (tr.times, tr.values) for k, tr in traces.items()}

    by_horizon = outputs()
    run_ = World.run
    monkeypatch.setattr(World, "run", lambda world, horizon: run_(world, 1))
    assert outputs() == by_horizon


@pytest.mark.parametrize("mission", sorted(MISSIONS))
def test_timestep_refinement_keeps_every_step_outcome(mission):
    # Acceptance criterion 9 for every mission, not only ``full``: halving the
    # tick, which moves every stretch boundary, leaves each step's outcome.
    outcomes = []
    for dt in (0.01, 0.005):
        sc = Scenario(procedure=ProcedureSection(timestep=dt))
        report, _ = run(sc, seed=NOMINAL_SEED, mission=mission)
        outcomes.append([(r.step, r.point_index, r.status) for r in report.steps])
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]


# --- contact form lifetime --------------------------------------------------------


#: name -> (scenario, mission, seed, failure type or None for success)
LIFETIME_CASES = {
    "full": (Scenario(), "full", NOMINAL_SEED, None),
    "full-4pt": (fast_scenario(part__holes=4, part__hole_spacing=0.05, tools__blow_advance=0.004),
                 "full", NOMINAL_SEED, None),
    "drill-halt": (Scenario(tools=ToolsSection(variant="offset_uncompensated")), "drill", NOMINAL_SEED,
                   "HaltedByGuard"),
    "insert-timeout": (Scenario(procedure=ProcedureSection(search_timeout=0.5)), "insert", NOMINAL_SEED,
                       "SearchTimeout"),
    "insert-guard-halt": (Scenario(sensors=SensorsSection(force_limit=100.0)), "insert", NOMINAL_SEED,
                          "HaltedByGuard"),
    "nut-missing": (Scenario(), "nut-missing", NOMINAL_SEED, "SocketFitTimeout"),
    "full-insert-halt": (Scenario(), "full", 2009, "HaltedByGuard"),
    "hammer": (Scenario(), "hammer", NOMINAL_SEED, None),
}

#: The procedure's contact phases, each named by the class of its form.
CONTACT_FORMS = {
    "Pressing", "Holding", "Drilling", "Entering", "Wedging", "Sliding", "Probing", "Hammering", "Fitting", "RunDown",
    "Pulsing",
}


@pytest.mark.parametrize("case", LIFETIME_CASES)
def test_contact_model_is_gone_whenever_a_step_ends(monkeypatch, case):
    # ``until`` is the only code that installs an arm's contact form, and
    # the arm holds none when a step ends, normally or by a failure.
    sc, mission, seed, failure = LIFETIME_CASES[case]
    until, end, fail = MissionContext.until, MissionContext.end, MissionContext.fail
    installed = set()  # the class name of each contact form a wait held
    ended = []  # the ending arm's contact form at each step end

    def recording_until(ctx, arm, contact=None, ticks=math.inf):
        if contact is not None:
            installed.add(type(contact).__name__)
        return until(ctx, arm, contact, ticks)

    def checked_end(ctx, arm, **diag):
        ended.append(ctx.world.runtime(arm).contact)
        return end(ctx, arm, **diag)

    def checked_fail(ctx, arm, exc):
        ended.append(ctx.world.runtime(arm).contact)
        return fail(ctx, arm, exc)

    monkeypatch.setattr(MissionContext, "until", recording_until)
    monkeypatch.setattr(MissionContext, "end", checked_end)
    monkeypatch.setattr(MissionContext, "fail", checked_fail)
    report, _ = run(sc, seed=seed, mission=mission)

    if failure is None:
        assert report.success, report.failure
    else:
        assert f": {failure}: " in report.failure
    assert installed and ended
    assert ended == [None] * len(ended)
    assert installed <= CONTACT_FORMS
