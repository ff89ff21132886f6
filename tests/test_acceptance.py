"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from anchorsim.cli import main
from anchorsim.engine import World, run
from anchorsim.geometry import Point3, estimate_wall_frame
from anchorsim.procedure import (
    FixationStep,
    drive_mission,
    max_search_radius,
    outer_search_radius,
    schedule_dual_arm,
)
from anchorsim.scenario import Scenario, SensorsSection
from anchorsim.sensors import Wrench, overload_guard

NOMINAL_SEED = 7
REFERENCE_TOTAL_S = 9 * 60 + 28  # 568 s, the single-point time budget the defaults target


def drill_scenario(variant):
    sc = Scenario()
    sc.tools.variant = variant
    return sc


@pytest.fixture(scope="module")
def nominal_run():
    return run(Scenario(), seed=NOMINAL_SEED, mission="full")


@pytest.fixture(scope="module")
def refined_run():
    sc = Scenario()
    sc.procedure.timestep = 0.005
    return run(sc, seed=NOMINAL_SEED, mission="full")


@pytest.fixture(scope="module")
def constant_load_drill():
    return run(Scenario(), seed=3, mission="drill")


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# -- 1: frame estimation against an independent oracle ---------------------------


def test_criterion_1_frame_estimation_oracle():
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        p1 = rng.uniform(-2, 2, 3)
        p2 = p1 + rng.uniform(-1, 1, 3)
        p3 = p1 + rng.uniform(-1, 1, 3)
        if 0.5 * np.linalg.norm(np.cross(p2 - p1, p3 - p1)) <= 1e-4:
            continue
        frame = estimate_wall_frame(Point3(*p1), Point3(*p2), Point3(*p3))
        # Independent oracle: numpy end to end.
        ox = (p2 - p1) / np.linalg.norm(p2 - p1)
        oz = np.cross(ox, p3 - p1)
        oz /= np.linalg.norm(oz)
        oy = np.cross(oz, ox)
        assert np.allclose(frame.x_axis.as_tuple(), ox, atol=1e-9, rtol=0)
        assert np.allclose(frame.y_axis.as_tuple(), oy, atol=1e-9, rtol=0)
        assert np.allclose(frame.z_axis.as_tuple(), oz, atol=1e-9, rtol=0)
        assert np.allclose(frame.origin.as_tuple(), p1, atol=0, rtol=0)
        # Orthonormal right-handed invariants.
        assert abs(frame.x_axis.norm() - 1) < 1e-9
        assert abs(frame.x_axis.dot(frame.y_axis)) < 1e-9
        assert frame.x_axis.cross(frame.y_axis).distance_to(frame.z_axis) < 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"frame estimation check took {elapsed:.2f} s"
    ok(1, f"1000 random frames match the oracle within 1e-9 in {elapsed:.2f} s")


# -- 2: drill variant outcomes ------------------------------------------------------


def test_criterion_2a_uncompensated_overload_at_10mm():
    t0 = time.perf_counter()
    report, _ = run(drill_scenario("offset_uncompensated"), seed=3, mission="drill")
    elapsed = time.perf_counter() - t0
    rec = report.find(FixationStep.DRILL_HOLE)
    assert rec.status == "failed"
    assert rec.diagnostics["halt_axis"] == "mx"
    assert rec.diagnostics["min_mx"] <= -30.0
    assert abs(rec.diagnostics["halt_depth"] - 0.010) <= 0.001
    assert elapsed < 5.0
    ok(2, f"(a) uncompensated: mx {rec.diagnostics['min_mx']:.2f} Nm at "
          f"{rec.diagnostics['halt_depth'] * 1e3:.2f} mm [{elapsed:.2f} s]")


def test_criterion_2b_regular_spring_positive_overload():
    t0 = time.perf_counter()
    report, _ = run(drill_scenario("regular_spring"), seed=3, mission="drill")
    elapsed = time.perf_counter() - t0
    rec = report.find(FixationStep.DRILL_HOLE)
    assert rec.status == "failed"
    assert rec.diagnostics["halt_axis"] == "mx"
    assert rec.diagnostics["max_mx"] >= 30.0
    assert rec.diagnostics["halt_depth"] < 0.080
    assert elapsed < 5.0
    ok(2, f"(b) regular spring: mx +{rec.diagnostics['max_mx']:.2f} Nm at "
          f"{rec.diagnostics['halt_depth'] * 1e3:.1f} mm < 80 mm [{elapsed:.2f} s]")


def test_criterion_2c_constant_load_reaches_depth(constant_load_drill):
    t0 = time.perf_counter()
    report, traces = run(Scenario(), seed=4, mission="drill")
    elapsed = time.perf_counter() - t0
    rec = report.find(FixationStep.DRILL_HOLE)
    assert rec.status == "ok"
    assert abs(rec.diagnostics["hole_depth"] - 0.080) <= 0.0005
    mx = traces["robot1/mx"].values
    assert max(abs(v) for v in mx) < 30.0
    assert elapsed < 5.0
    ok(2, f"(c) constant load: depth {rec.diagnostics['hole_depth'] * 1e3:.2f} mm, "
          f"|mx| max {max(abs(v) for v in mx):.2f} Nm < 30 [{elapsed:.2f} s]")


# -- 3: constant-load flatness to machine precision ---------------------------------


def test_criterion_3_constant_load_flatness(constant_load_drill):
    report, traces = constant_load_drill
    sc = Scenario()
    kf_ld = sc.tools.thrust_per_meter * sc.tools.drill_offset
    mx_by_t = dict(zip(traces["robot1/mx"].times, traces["robot1/mx"].values))
    cmd = traces["robot1/commanded_depth"]
    slip = traces["robot1/slip"]
    depth_samples = [
        (t, c - s)
        for t, c, s in zip(cmd.times, cmd.values, slip.values)
        if 0.0005 < c - s < 0.0790  # exclude contact start and the bit-limit clamp
    ]
    stride = max(1, len(depth_samples) // 80)
    sample = depth_samples[::stride]
    assert len(sample) >= 50
    worst = 0.0
    for (t1, d1), (t2, d2) in itertools.combinations(sample, 2):
        lhs = mx_by_t[t1] - mx_by_t[t2]
        rhs = -kf_ld * (d1 - d2)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9, f"flatness violated by {worst:.3e} Nm"
    ok(3, f"spring term depth-independent: worst residual {worst:.2e} Nm over "
          f"{len(sample) * (len(sample) - 1) // 2} trace pairs")


# -- 4: hammering -------------------------------------------------------------------


def test_criterion_4_hammering():
    report, traces = run(Scenario(), seed=NOMINAL_SEED, mission="hammer")
    assert report.success
    rec = report.find(FixationStep.HAMMER_ANCHOR)
    diag = rec.diagnostics
    assert diag["final_depth"] >= 0.070
    assert abs(diag["displacement"] - 0.075) <= 0.003
    assert diag["stop_moment"] >= 27.0
    mx = traces["robot1/mx"]
    window = [v for t, v in zip(mx.times, mx.values) if rec.t_start <= t <= rec.t_end]
    assert max(abs(v) for v in window) <= 30.0
    ok(4, f"anchor depth {diag['final_depth'] * 1e3:.1f} mm, displacement "
          f"{diag['displacement'] * 1e3:.1f} mm, stop at {diag['stop_moment']:.0f} Nm, "
          f"peak |mx| {max(abs(v) for v in window):.1f} <= 30")


# -- 5: nut tightening ---------------------------------------------------------------


def test_criterion_5_nut_tightening():
    report, traces = run(Scenario(), seed=NOMINAL_SEED, mission="nut")
    assert report.success
    diag = report.find(FixationStep.TIGHTEN_NUT).diagnostics
    names = [s[0] for s in diag["substeps"]]
    assert names == ["approach_contact", "socket_fit", "re_approach",
                     "run_nut", "re_approach_2", "pulse_tighten"]
    times = [s[1] for s in diag["substeps"]]
    assert times == sorted(times)
    assert diag["final_torque"] == 50.0
    assert diag["max_flange_moment"] < 30.0
    sigma = Scenario().sensors.ft_sigma_force
    for trig in diag["approach_triggers"]:
        assert trig["reading_fz"] >= 50.0
        assert abs(trig["true_fz"] - 50.0) <= 4 * sigma + 1.0
    ok(5, f"six sub-steps in order, torque 50 Nm, max flange moment "
          f"{diag['max_flange_moment']:.1f} Nm, approaches at "
          + ", ".join(f"{t['true_fz']:.1f} N" for t in diag["approach_triggers"]))


# -- 6: full procedure ----------------------------------------------------------------


def test_criterion_6_full_procedure(nominal_run):
    report, _ = nominal_run
    assert report.success, report.failure
    assert [r.step for r in report.steps] == list(FixationStep)
    total = report.total_duration
    assert abs(total - REFERENCE_TOTAL_S) <= 0.20 * REFERENCE_TOTAL_S

    durations = {rec.step: rec.duration for rec in report.steps}
    drill_task = durations[FixationStep.DRILL_HOLE]
    hammer_task = (
        durations[FixationStep.PICK_ANCHOR]
        + durations[FixationStep.INSERT_ANCHOR]
        + durations[FixationStep.HAMMER_ANCHOR]
    )
    nut_task = durations[FixationStep.TIGHTEN_NUT]
    others = [
        d for s, d in durations.items()
        if s not in (FixationStep.DRILL_HOLE, FixationStep.PICK_ANCHOR,
                     FixationStep.INSERT_ANCHOR, FixationStep.HAMMER_ANCHOR,
                     FixationStep.TIGHTEN_NUT)
    ]
    assert report.find(FixationStep.INSERT_ANCHOR).diagnostics["search_used"]
    assert hammer_task > drill_task > nut_task
    assert nut_task > max(others)
    ok(6, f"step order exact, total {total:.0f} s vs {REFERENCE_TOTAL_S} s "
          f"(+/-20 %), tasks drill {drill_task:.0f} / hammer {hammer_task:.0f} "
          f"/ nut {nut_task:.0f} s are the three longest, hammering longest")


# -- 7: spiral search over seeded insertions -------------------------------------------


def insert_scenario(sigma=None):
    sc = Scenario()
    # Shrink fixed time costs that have no effect on search physics, and
    # pin detection to always-found: the criterion exercises the search
    # geometry, not camera reliability.
    sc.robot.tool_change_time = 2.0
    sc.sensors.detect_time = 0.5
    sc.tools.grip_time = 0.5
    sc.sensors.p_detect = 1.0
    if sigma is not None:
        sc.sensors.camera_sigma_wall = sigma
    return sc.validate()


def test_criterion_7_spiral_search_outcomes():
    sc = insert_scenario()
    p = sc.procedure
    guaranteed = max_search_radius(p.spiral_pitch, p.spiral_probe_spacing,
                                   p.spiral_probe_period, p.search_timeout)
    outer = outer_search_radius(p.spiral_pitch, p.spiral_probe_spacing,
                                p.spiral_probe_period, p.search_timeout)
    successes = timeouts = searched = 0
    for seed in range(100):
        report, _ = run(sc, seed=seed, mission="insert")
        rec = report.find(FixationStep.INSERT_ANCHOR)
        if rec.status == "failed":
            assert "SearchTimeout" in rec.error
            timeouts += 1
            continue
        offset = rec.diagnostics["first_offset"]
        if rec.diagnostics["search_used"]:
            searched += 1
            assert rec.diagnostics["search_time"] <= p.search_timeout
        if offset <= guaranteed:
            assert report.success
        successes += 1
    assert successes >= 80
    assert searched >= 75

    # Offsets beyond the outer radius always time out: exaggerate the
    # detection error so every attempt starts far outside the spiral.
    far_timeouts = 0
    for seed in range(8):
        report, _ = run(insert_scenario(sigma=0.012), seed=seed, mission="insert")
        rec = report.find(FixationStep.INSERT_ANCHOR)
        if rec.status == "failed":
            assert "SearchTimeout" in rec.error
            far_timeouts += 1
        else:
            assert rec.diagnostics["first_offset"] <= outer
    assert far_timeouts >= 1
    ok(7, f"100 seeded insertions: {successes} succeed (all within the "
          f"{guaranteed * 1e3:.2f} mm guaranteed radius), {timeouts} time out, "
          f"{far_timeouts}/8 far-offset runs time out beyond {outer * 1e3:.2f} mm")


# -- 8: safety monotonicity and halt latency --------------------------------------------


def test_criterion_8_guard_monotone_and_halt_latency():
    rng = np.random.default_rng(8)
    limits = SensorsSection()
    stops = 0
    for _ in range(10_000):
        base = np.concatenate([rng.uniform(-1500, 1500, 3), rng.uniform(-45, 45, 3)])
        verdict = overload_guard(Wrench(*base), limits)
        if verdict is None:
            continue
        stops += 1
        grow = rng.uniform(1.0, 3.0, 6)
        bigger = Wrench(*(v * g for v, g in zip(base, grow)))
        assert overload_guard(bigger, limits) is not None
    assert stops > 1000

    # Halt latency: the guarded drill freezes its commanded feed on the tick
    # the filtered guard fires.
    world = World(drill_scenario("offset_uncompensated"), seed=3)
    report, traces = drive_mission(world, "drill")
    assert not report.success
    fired = world.runtime("robot1").guard_fired_t
    assert fired is not None
    cmd = traces["robot1/commanded_depth"]
    after = [v for t, v in zip(cmd.times, cmd.values) if t > fired + world.dt / 2]
    before = [v for t, v in zip(cmd.times, cmd.values) if t <= fired + world.dt / 2]
    if after:
        assert max(after) - before[-1] < 1e-12
    ok(8, f"guard monotone over {stops} stopping samples; commanded feed frozen "
          f"within one tick of the stop at t={fired:.2f} s")


# -- 9: determinism and timestep refinement ------------------------------------------------


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    for command in ("drill-test", "run"):
        outputs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{command}-{tag}"
            code = main([command, "--seed", str(NOMINAL_SEED),
                         "--trace-out", str(out_dir), "--report", "machine-readable"])
            captured = capsys.readouterr().out
            assert code == 0
            outputs.append(captured)
        assert outputs[0] == outputs[1]
        dir_a, dir_b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        names = sorted(f.name for f in dir_a.iterdir())
        assert names == sorted(f.name for f in dir_b.iterdir())
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    ok(9, "drill-test and run: reports and trace files byte-identical across reruns")


def test_criterion_9_timestep_refinement(nominal_run, refined_run):
    coarse, _ = nominal_run
    fine, _ = refined_run
    assert fine.success == coarse.success is True
    coarse_status = [(r.step, r.point_index, r.status) for r in coarse.steps]
    fine_status = [(r.step, r.point_index, r.status) for r in fine.steps]
    assert coarse_status == fine_status

    d_hole = [
        (c.diagnostics["hole_depth"], f.diagnostics["hole_depth"])
        for c, f in zip(coarse.steps, fine.steps)
        if c.step is FixationStep.DRILL_HOLE
    ]
    for dc, df in d_hole:
        assert abs(dc - df) <= 0.0005
    anchor_c = coarse.find(FixationStep.HAMMER_ANCHOR).diagnostics["final_depth"]
    anchor_f = fine.find(FixationStep.HAMMER_ANCHOR).diagnostics["final_depth"]
    assert abs(anchor_c - anchor_f) <= 0.0005
    ok(9, f"dt 0.01 -> 0.005 preserves all step outcomes; hole depth shift "
          f"{abs(d_hole[0][0] - d_hole[0][1]) * 1e6:.0f} um, anchor depth shift "
          f"{abs(anchor_c - anchor_f) * 1e6:.0f} um (<= 0.5 mm)")


# -- 10: dual-arm plan ---------------------------------------------------------------------


def test_criterion_10_dual_arm_plans():
    for n in (1, 2, 3, 4, 6):
        plan = schedule_dual_arm(n)
        points = [p for phase in plan.phases for (p, _) in phase.assignments]
        assert sorted(points) == list(range(n))  # disjoint cover
        assert plan.phases[0].assignments == ((0, "robot1"),)
        assert not plan.phases[0].parallel
        robot2 = [p for phase in plan.phases for (p, a) in phase.assignments if a == "robot2"]
        if n <= 3:
            assert all(not phase.parallel for phase in plan.phases)
            assert robot2 == []
        else:
            assert any(phase.parallel for phase in plan.phases)
            # Parallelism only after the first point is fixed.
            assert all(phase.parallel for phase in plan.phases[1:])
            assert robot2 != []
            assert 0 not in robot2
    ok(10, "plans for n=1,2,3,4,6: disjoint covering assignments, parallel "
           "phases only for n>3 and only after point 1")
