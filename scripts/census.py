"""Byte-identity census: one SHA-256 per run, to compare two source trees.

Each case runs one mission through ``anchorsim.run`` and hashes the machine
report followed by every trace (its id, a NUL byte, then its times and
values as doubles, in sorted id order), as ``tests/test_golden.py`` does. A
run that raises before it returns hashes the error's class and text, and a
``# raised: <case> <type>: <message>`` line names it unless it is a
``ScenarioInvalid``.

    python3 scripts/census.py                    # every case, this checkout's src
    python3 scripts/census.py --src OTHER/src    # the same cases on another tree
    python3 scripts/census.py --slice ci         # about 75 cases

Two trees give the same bytes when the two outputs are the same; ``diff``
or ``--against`` lists the cases that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``demos/dual_arm_parallel.py``: four holes, both arms after the first point.
FULL_4PT = "[part]\nholes = 4\nhole_spacing = 0.05\n[robot]\ntool_change_time = 5.0\n" \
           "[tools]\nblow_advance = 0.004\nblow_rate = 12.0\n"
#: Acceptance criterion 7: the insertion search over many seeds.
INSERT_SWEEP = "[robot]\ntool_change_time = 2.0\n[sensors]\ndetect_time = 0.5\np_detect = 1.0\n" \
               "[tools]\ngrip_time = 0.5\n"
#: Hammer edges: a blow too small to reach the bottom before the time
#: ceiling, FT noise that trips the guard while hammering, a raised moment
#: noise, noise-free sensors, and a blow rate off the tick.
HAMMER_CASES = {
    "hammer-ceiling": "[tools]\nblow_advance = 0.00001\n",
    "hammer-guard": "[tools]\nhammer_press_force = 950\n[sensors]\nft_sigma_force = 100\n",
    "hammer-moment-noise": "[sensors]\nft_sigma_moment = 3\n",
    "hammer-noise-free": "[sensors]\nft_sigma_force = 0\nft_sigma_moment = 0\nlaser_sigma = 0\n",
    "hammer-fast-blows": "[tools]\nblow_rate = 7.0\nblow_advance = 0.004\n",
}
#: The four-point scenario with the ``hammer-guard`` settings and with
#: noise-free sensors: a hammer stretch beside a free move, at its edges.
FULL_4PT_CASES = {
    "full_4pt-hammer-guard": FULL_4PT + "hammer_press_force = 950\n[sensors]\nft_sigma_force = 100\n",
    "full_4pt-noise-free": FULL_4PT + "[sensors]\nft_sigma_force = 0\nft_sigma_moment = 0\nlaser_sigma = 0\n",
}
#: Guarded-feed edges: each drill variant (three halt on the guard), the
#: commanded depth feedback, noise-free sensors, slip raised until it moves
#: the penetration (and, at 3e-6, past the feed's travel limit), an
#: orientation L so small that the drill feed ends in ``WrongPose``, a soft
#: surface contact under the drill's touch, and slips of 1e-5 and 3e-6 on
#: the drill, nut and insertion feeds, whose press forces feed back into
#: the surface distance over many ticks of a stretch.
NOISE_FREE = "[sensors]\nft_sigma_force = 0\nft_sigma_moment = 0\nlaser_sigma = 0\n" \
             "camera_sigma_wall = 0\ncamera_sigma_part = 0\n"
FEED_CASES = {
    **{f"drill-{v}": ("[tools]\nvariant = " + v + "\n", "drill")
       for v in ("aligned_axis", "offset_uncompensated", "regular_spring", "constant_load_spring")},
    "drill-commanded": ("[procedure]\ndepth_source = commanded\n", "drill"),
    "drill-commanded-slip": ("[procedure]\ndepth_source = commanded\n[robot]\nslip_coefficient = 1e-5\n", "drill"),
    "drill-noise-free": (NOISE_FREE, "drill"),
    "drill-slip": ("[robot]\nslip_coefficient = 1e-6\n", "drill"),
    "drill-slip-max-travel": ("[robot]\nslip_coefficient = 3e-6\n", "drill"),
    "full-commanded": ("[procedure]\ndepth_source = commanded\n", "full"),
    "full-noise-free": (NOISE_FREE, "full"),
    "full-slip": ("[robot]\nslip_coefficient = 1e-6\n", "full"),
    "full-orientation-offset": ("[procedure]\norientation_offset = 0.0001\n", "full"),
    "nut-default": (None, "nut"),
    "nut-noise-free": (NOISE_FREE, "nut"),
    "drill-soft-contact": ("[robot]\ncontact_stiffness = 5e4\n", "drill"),
    "drill-slip-1e-5": ("[robot]\nslip_coefficient = 1e-5\n", "drill"),
    "nut-slip-3e-6": ("[robot]\nslip_coefficient = 3e-6\n", "nut"),
    "insert-slip-3e-6": (INSERT_SWEEP.replace("[robot]\n", "[robot]\nslip_coefficient = 3e-6\n"), "insert"),
}
#: A wall so far that the drilling feed reaches the arm's reach before its
#: depth target: the feed's reach trim. ``FEED_CI`` names the cases of the
#: ci slice: a drill variant that halts on the guard, and each way the
#: drilling feed fails, past its travel limit and at the reach.
FAR_WALL = "[wall]\ndistance = 1.20\n"
FEED_CI = ("drill-offset_uncompensated", "drill-slip-max-travel")
#: Fast moves, many of whose free stretches last only a few ticks before an
#: arrival, and hammering under a raised laser noise, whose stretches read
#: the laser noise on across the ends of blocks.
FAST = "gross_speed = 6.0\nretract_speed = 3.0\n"
SHORT_STRETCH_CASES = {
    "full-fast-moves": ("[robot]\n" + FAST, "full", range(5)),
    "full_4pt-fast-moves": (FULL_4PT.replace("[robot]\n", "[robot]\n" + FAST), "full", range(5)),
    "hammer-laser-noise": ("[sensors]\nlaser_sigma = 0.002\n", "hammer", range(3)),
}
#: The four-point scenario with the commanded depth feedback and with a
#: finer tick: in the parallel phase both arms hold a guarded feed at once.
TWO_FEED_CASES = {
    "full_4pt-commanded": (FULL_4PT + "[procedure]\ndepth_source = commanded\n", "full", range(5)),
    "full_4pt-fine-tick": (FULL_4PT + "[procedure]\ntimestep = 0.005\n", "full", range(5)),
}
#: Nut-runner and drill spin-up edges: a socket that slots on at once and
#: one that slots on only at the fit timeout, pulse rates off the tick, a fast
#: and a slow run-down, a target torque of one pulse, no spin-up and a long
#: one, noise-free FT sensors on the nut, the four-point scenario with fit and
#: pulse settings off the tick, and a missing anchor whose fit times out off
#: the tick.
NUT_CASES = {
    "nut-fit-time-0": ("[tools]\nsocket_fit_time = 0\n", "nut"),
    "nut-fit-time-10": ("[tools]\nsocket_fit_time = 10\n", "nut"),
    "nut-pulse-rate-7": ("[tools]\npulse_rate = 7.0\n", "nut"),
    "nut-pulse-rate-30": ("[tools]\npulse_rate = 30.0\n", "nut"),
    "nut-run-speed-0.05": ("[tools]\nnut_run_speed = 0.05\n", "nut"),
    "nut-run-speed-0.001": ("[tools]\nnut_run_speed = 0.001\n", "nut"),
    "nut-target-torque-1": ("[tools]\ntarget_torque = 1\n", "nut"),
    "drill-spinup-0": ("[tools]\ndrill_spinup_time = 0\n", "drill"),
    "drill-spinup-2.5": ("[tools]\ndrill_spinup_time = 2.5\n", "drill"),
    "nut-ft-noise-free": ("[sensors]\nft_sigma_force = 0\nft_sigma_moment = 0\n", "nut"),
    "full_4pt-nut": (FULL_4PT + "socket_fit_time = 0.37\npulse_rate = 7.0\n", "full"),
    "nut-missing-timeout": ("[procedure]\nsocket_fit_timeout = 3.005\n", "nut-missing"),
}
#: Holes 14 mm apart and 5 mm wall-hole detections: at seed 22 a detection
#: lands nearer another point's hole than its own.
CROWDED_HOLES = "[part]\nholes = 4\nhole_spacing = 0.014\n[sensors]\ncamera_sigma_wall = 0.005\n"
#: The fast set-up of ``tests/test_procedure.py``, for the short-hole case.
SHORT_HOLE = "[robot]\ntool_change_time = 2.0\n[sensors]\ndetect_time = 0.5\n" \
             "[tools]\ngrip_time = 0.5\nmagnet_switch_time = 0.2\nblow_rate = 12.0\n"

#: Spiral search edges, on the insert sweep's set-up but for the last: one-tick
#: and 20-tick probes, a finer tick, a search that times out, a coarse spiral,
#: a wide and a narrow engagement clearance, noise-free FT and laser, a guard
#: trip during the slide (at seeds 0-2, some probes in), and the four-point
#: scenario with 3 mm wall-hole detections, where long searches run beside
#: the other arm. ``SEARCH_CI`` names the cases of the ci slice.
SEARCH = INSERT_SWEEP + "[procedure]\n"
SEARCH_CASES = {
    "search-probe-1-tick": (SEARCH + "spiral_probe_period = 0.01\n", "insert"),
    "search-probe-20-ticks": (SEARCH + "spiral_probe_period = 0.2\n", "insert"),
    "search-fine-tick": (SEARCH + "timestep = 0.005\n", "insert"),
    "search-timeout": (SEARCH + "search_timeout = 0.5\n", "insert"),
    "search-coarse-spiral": (SEARCH + "spiral_probe_spacing = 0.0008\nspiral_pitch = 0.035\n", "insert"),
    "search-wide-clearance": (SEARCH + "engagement_clearance = 0.0008\n", "insert"),
    "search-narrow-clearance": (SEARCH + "engagement_clearance = 0.0001\n", "insert"),
    "search-noise-free": (INSERT_SWEEP.replace("[sensors]\n", "[sensors]\nft_sigma_force = 0\n"
                                               "ft_sigma_moment = 0\nlaser_sigma = 0\n"), "insert"),
    "search-guard-trip": (INSERT_SWEEP.replace("[sensors]\n", "[sensors]\nforce_limit = 21\n"), "insert"),
    "full_4pt-search": (FULL_4PT + "[sensors]\ncamera_sigma_wall = 0.003\n", "full"),
}
SEARCH_CI = ("search-probe-1-tick", "search-timeout", "search-guard-trip", "full_4pt-search")
#: Insertion push edges, on the insert sweep's set-up: a steep and a shallow
#: wedge (the shallow one pushes past the push's 30 mm travel limit), a low
#: and a high insertion end moment, a soft surface contact, a slow and a
#: fast approach, a finer tick, noise-free FT and laser, a slip that moves
#: the tip back as it pushes, a force limit that the wedge's fz trips
#: partway into the hole, and a wall yawed 1 degree off the nominal frame,
#: so that the push drifts across the engagement edge inside a stretch (at
#: seeds 0 and 4 the wedge leaves the clearance and the guard trips).
#: ``PUSH_CI`` names the cases of the ci slice.
PUSH = INSERT_SWEEP + "[procedure]\n"
PUSH_CASES = {
    "push-wedge-rate-high": PUSH + "wedge_moment_rate = 20000\n",
    "push-wedge-rate-low": PUSH + "wedge_moment_rate = 700\n",
    "push-end-moment-10": PUSH + "insertion_end_moment = 10\n",
    "push-end-moment-29": PUSH + "insertion_end_moment = 29\n",
    "push-soft-contact": INSERT_SWEEP.replace("[robot]\n", "[robot]\ncontact_stiffness = 5e4\n"),
    "push-approach-slow": INSERT_SWEEP.replace("[robot]\n", "[robot]\napproach_speed = 0.0005\n"),
    "push-approach-fast": INSERT_SWEEP.replace("[robot]\n", "[robot]\napproach_speed = 0.01\n"),
    "push-fine-tick": PUSH + "timestep = 0.005\n",
    "push-noise-free": INSERT_SWEEP.replace("[sensors]\n", "[sensors]\nft_sigma_force = 0\n"
                                            "ft_sigma_moment = 0\nlaser_sigma = 0\n"),
    "push-slip": INSERT_SWEEP.replace("[robot]\n", "[robot]\nslip_coefficient = 1e-6\n"),
    "push-guard-trip": INSERT_SWEEP.replace("[sensors]\n", "[sensors]\nforce_limit = 100\n"),
    "push-wall-yaw-1": INSERT_SWEEP + "[wall]\nyaw_deg = 1\n",
}
PUSH_CI = ("push-wedge-rate-low", "push-slip", "push-guard-trip", "push-wall-yaw-1")
#: Event-tick edges: a coarse and a fine tick on each of the six missions of
#: the subcommands (the default 0.05 s probe period is 1 and 25 ticks), the
#: four-point scenario at the coarse tick, where a guard trip halts a push at
#: seed 1, and a raised slip on the missions whose contact waits end with a
#: press force left, which the next tick integrates. ``EVENT_CI`` names the
#: cases of the ci slice.
EVENT_CASES = {
    **{f"dt-{dt}-{mission}": (f"[procedure]\ntimestep = {dt}\n", mission, (7,))
       for dt in ("0.05", "0.002") for mission in ("full", "drill", "insert", "hammer", "nut", "frame")},
    "full_4pt-dt-0.05": (FULL_4PT + "[procedure]\ntimestep = 0.05\n", "full", range(4)),
    **{f"slip-leftover-{mission}": ("[robot]\nslip_coefficient = 1e-5\n", mission, (7,))
       for mission in ("nut", "hammer", "insert")},
}
EVENT_CI = ("dt-0.05-full", "dt-0.002-insert", "slip-leftover-nut")


def cases(slice_: str):
    """``(name, scenario text, mission, seed)`` per case; text None is the default."""
    import anchorsim.procedure as procedure

    missions = sorted(procedure.MISSIONS)
    seeds = range(50) if slice_ == "all" else range(4)
    for seed in seeds:
        for mission in missions:
            yield f"{mission}/{seed}", None, mission, seed
    # At seeds 7 and 9 a timed phase ticks per tick beside the other arm's
    # insertion, which runs only per tick: ``Fitting`` and ``RunDown`` at 7,
    # ``Hammering`` at 9.
    for seed in range(60) if slice_ == "all" else (0, 1, 7, 9):
        yield f"full_4pt/{seed}", FULL_4PT, "full", seed
    for seed in (2009, 9001, 10007) if slice_ == "all" else (2009,):
        yield f"full/{seed}", None, "full", seed
    yield "full-crowded-holes/22", CROWDED_HOLES, "full", 22
    for seed in range(100) if slice_ == "all" else range(4):
        yield f"insert_sweep/{seed}", INSERT_SWEEP, "insert", seed
    for name, text in HAMMER_CASES.items():
        if slice_ == "all" or name != "hammer-ceiling":
            yield f"{name}/7", text, "hammer", 7
    yield "hammer-short-hole/2", SHORT_HOLE, "hammer-short-hole", 2
    for name, (text, mission) in FEED_CASES.items():
        for seed in (7, 0, 1, 2, 3) if slice_ == "all" else (7,):
            if slice_ == "all" or name in FEED_CI:
                yield f"{name}/{seed}", text, mission, seed
    yield "drill-far-wall/7", FAR_WALL, "drill", 7
    for name, text in FULL_4PT_CASES.items():
        for seed in range(10):
            if slice_ == "all" or (name, seed) == ("full_4pt-noise-free", 7):
                yield f"{name}/{seed}", text, "full", seed
    for name, (text, mission) in NUT_CASES.items():
        for seed in (0, 1, 2, 3, 7) if slice_ == "all" else (0,):
            yield f"{name}/{seed}", text, mission, seed
    for name, (text, mission, seeds) in {**SHORT_STRETCH_CASES, **TWO_FEED_CASES}.items():
        for seed in seeds if slice_ == "all" else seeds[:1]:
            yield f"{name}/{seed}", text, mission, seed
    for name, (text, mission) in SEARCH_CASES.items():
        for seed in range(5) if slice_ == "all" else (0,):
            if slice_ == "all" or name in SEARCH_CI:
                yield f"{name}/{seed}", text, mission, seed
    for name, text in PUSH_CASES.items():
        for seed in range(5) if slice_ == "all" else (0,):
            if slice_ == "all" or name in PUSH_CI:
                yield f"{name}/{seed}", text, "insert", seed
    for name, (text, mission, seeds) in EVENT_CASES.items():
        for seed in seeds:
            if slice_ == "all" or name in EVENT_CI:
                yield f"{name}/{seed}", text, mission, seed


def short_hole(scenario, seed):
    """The ``hammer`` mission on a 40 mm hole, which bottoms out before the
    success depth: the set-up of ``test_hammer_short_hole_fails_with_diagnostic``.
    Validation refuses so shallow a drill target, so it is set after the
    world has validated the scenario."""
    from anchorsim.engine import World
    from anchorsim.procedure import drive_mission

    world = World(scenario, seed)
    scenario.procedure.drill_depth_target = 0.040
    return drive_mission(world, "hammer")


def digest(text: str | None, mission: str, seed: int) -> tuple[str, Exception | None]:
    """The run's SHA-256, and the exception it raised, if any."""
    import anchorsim
    from anchorsim.cli import render_machine_report
    from anchorsim.scenario import parse_scenario

    h = hashlib.sha256()
    try:
        scenario = anchorsim.Scenario() if text is None else parse_scenario(text)
        if mission == "hammer-short-hole":
            report, traces = short_hole(scenario, seed)
        else:
            report, traces = anchorsim.run(scenario, seed, mission)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome hashed
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest(), exc
    h.update(render_machine_report(report).encode())
    for trace_id in sorted(traces):
        trace = traces[trace_id]
        h.update(trace_id.encode() + b"\0")
        h.update(array("d", trace.times).tobytes() + array("d", trace.values).tobytes())
    return h.hexdigest(), None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the anchorsim source tree to run")
    parser.add_argument("--slice", choices=("all", "ci"), default="all")
    parser.add_argument("--against", help="a census file to compare with; lists the cases that differ")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from anchorsim.errors import ScenarioInvalid

    lines = []
    for name, text, mission, seed in cases(args.slice):
        sha, exc = digest(text, mission, seed)
        line = f"{name} {sha}"
        lines.append(line)
        print(line, flush=True)
        if exc is not None and not isinstance(exc, ScenarioInvalid):
            print(f"# raised: {name} {type(exc).__name__}: {exc}", flush=True)
    if args.against:
        lines_before = Path(args.against).read_text().splitlines()
        before = dict(line.split() for line in lines_before if line.strip() and not line.startswith("#"))
        differ = [line.split()[0] for line in lines if before.get(line.split()[0]) != line.split()[1]]
        print(f"# {len(differ)} of {len(lines)} cases differ" + "".join(f"\n# differs: {n}" for n in differ))


if __name__ == "__main__":
    main()
