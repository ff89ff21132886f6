"""Benchmark of the anchorsim simulator: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload full_1pt --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Mission seeds are ``seed * 1000, seed * 1000 + 1, ...``. One untimed warm-up
mission at the first seed comes first; the timed phase then starts again at
that seed, so every run checks that a repeat in the same process is
byte-identical. Missions of the default seed 0 are also checked against the
digests in ``reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with host times scaled to a reference host speed by a calibration kernel
timed around each mission and every 0.1 s inside it (see perfbench/README.md).
With ``--trace 1`` it alternates untraced and traced missions of the same
seed, checks that each pair exports the same bytes, and reports the
per-layer metrics, per traced mission. Records of every mission go to
``.perfbench/`` in the checkout; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import ROOT, WORKLOADS, Mission, import_anchorsim

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SEED_STRIDE = 1000
SETUP_RUNS = 9
#: The calibration kernel's median time on the reference VM (2-core x86_64,
#: Python 3.11.7). Mission host times are scaled to this host speed.
CALIBRATION_REF_S = 0.0044
#: Wall seconds between calibration samples taken while a mission runs, and
#: samples taken between missions.
SAMPLE_INTERVAL_S = 0.1
GAP_SAMPLES = 3


@dataclass(frozen=True)
class _Vec:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("non-finite vector")


def calibrate() -> float:
    """Host seconds for a fixed pure-Python kernel shaped like the
    simulator's hot path: frozen dataclasses, a moving average, and CSV
    formatting. It uses no anchorsim code, so it measures the host alone."""
    t0 = time.perf_counter()
    p = _Vec(0.0, 0.0, 0.0)
    window: deque = deque(maxlen=25)
    lines = []
    for i in range(1000):
        p = _Vec(p.x + 1e-3, p.y + 2e-3, p.z + 3e-3)
        window.append(p.x * 0.5 + p.y * 0.25 + p.z)
        lines.append(f"{i * 0.01:.4f},{sum(window) / len(window)!r}\n")
    "".join(lines)
    return time.perf_counter() - t0


class HostSampler:
    """Runs the calibration kernel from a wall-clock timer signal every
    ``SAMPLE_INTERVAL_S`` while a mission runs, so host speed changes inside
    a long mission are seen. The handler touches no anchorsim state."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(calibrate())

    def wrap(self, entry):
        def sampled(*args):
            self.samples = []
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            try:
                return entry(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)

        return sampled


def environment(seed: int) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "seed": seed}


def measure_setup(prepared) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import anchorsim, load the scenario
    and build a first World, which every CLI invocation pays; raw, and
    scaled by the calibration samples taken just before and after each."""
    raw, scaled = [], []
    gap = [calibrate() for _ in range(GAP_SAMPLES)]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-I", "-c", prepared.setup_code()])
        # wait() without a timeout blocks in waitpid; with one it polls in
        # sleeps of up to 50 ms, which rounds the measured time.
        guard = threading.Timer(120, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
            guard.join()
        raw.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        after = [calibrate() for _ in range(GAP_SAMPLES)]
        scaled.append(raw[-1] * CALIBRATION_REF_S / statistics.harmonic_mean(gap + after))
        gap = after
    return raw, scaled


def run_mission(prepared, seed, entry=None) -> Mission:
    try:
        return prepared.run(seed, entry)
    except Exception:  # a mission that raises is a failed operation
        return Mission(seed, problems=[f"raised:\n{traceback.format_exc()}"])


def tail_percentile(values: list[float]):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for pct in (90, 99):
        if len(values) < 2:
            break
        cut = statistics.quantiles(values, n=100)[pct - 1]
        if sum(v > cut for v in values) >= 10:
            best = (f"p{pct}", cut)
    return best


def end_to_end(timed, setup) -> tuple[dict, dict]:
    """End-to-end metrics. Mission times, less the calibration samples taken
    inside them, are scaled to the reference host speed; the unscaled times
    go to ``extra``. ``mission_s.p50`` is taken over the missions that ran
    to the end (exit 0), since one ended early by a simulated outcome does
    only part of the work; over all missions if none did."""
    host = [m.host_s - m.calib_in_s for m in timed]
    scaled = [h * CALIBRATION_REF_S / m.calib_s for h, m in zip(host, timed)]
    complete = [s for s, m in zip(scaled, timed) if m.exit_code == 0] or scaled
    sim = sum(m.sim_s for m in timed)
    metrics = {
        "sim_speed": (sim / sum(scaled), "sim_s/s"),
        "mission_s.p50": (statistics.median(complete), "s"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "missions_timed": len(host),
        "missions_complete": sum(m.exit_code == 0 for m in timed),
        "raw.sim_speed": sim / sum(host),
        "raw.mission_s.p50": statistics.median(
            [h for h, m in zip(host, timed) if m.exit_code == 0] or host),
        "raw.setup_s": statistics.median(setup[0]),
        "calibration_s.p50": statistics.median(m.calib_s for m in timed),
    }
    tail = tail_percentile(complete)
    if tail is not None:
        extra[f"mission_s.{tail[0]}"] = tail[1]
    return metrics, extra


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics, each a mean per traced mission."""
    from tracing import STEPS

    n = len(traced)
    stats, counters = tracer.summary(), tracer.counters

    def total(name, key):
        return stats.get(name, {}).get(key, 0)

    def calls(name):
        return total(name, "calls") / n

    def self_s(*names):
        return sum(total(name, "self_s") for name in names) / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def sim_speed(missions):
        return sum(m.sim_s for m in missions) / sum(m.host_s for m in missions)

    ticks = total("engine.step", "calls")
    metrics = {
        "engine.step.calls": (calls("engine.step"), "count"),
        "engine.step.self_s": (self_s("engine.step"), "s"),
        "engine.idle_tick_share": (ratio(counters.get("engine.idle_ticks", 0), ticks), "share"),
        "engine.dual_active_share": (ratio(counters.get("engine.dual_active_ticks", 0), ticks), "share"),
        "engine.world_init.self_s": (self_s("engine.world_init"), "s"),
    }
    for layer in ("engine.trace_record", "engine.laser_distance", "sensors.read_ft",
                  "sensors.guard_push", "sensors.overload_guard", "sensors.read_laser",
                  "robot.advance", "robot.platform_step", "geometry.point3",
                  "worksite.anchor_engagement"):
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    metrics.update({
        "sensors.camera_detect.calls": (calls("sensors.camera_detect"), "count"),
        "sensors.camera_detect.miss_ratio": (
            ratio(counters.get("sensors.camera_misses", 0), total("sensors.camera_detect", "calls")),
            "share"),
        "robot.tool_changes": (calls("robot.attach_tool") + calls("robot.detach_tool"), "count"),
        "tools.self_s": (self_s("tools.hammer_blow", "tools.nut_pulse", "tools.drill_thrust",
                                "tools.drill_moment"), "s"),
        "tools.hammer_blow.calls": (calls("tools.hammer_blow"), "count"),
        "tools.nut_pulse.calls": (calls("tools.nut_pulse"), "count"),
        "worksite.search_hit_ratio": (
            ratio(sum(m.search_hits for m in traced), sum(m.searches for m in traced)), "share"),
        "procedure.self_s": (self_s("procedure.drive_mission"), "s"),
        "procedure.spiral_probes": (counters.get("procedure.spiral_probes", 0) / n, "count"),
        "scenario.parse.self_s": (self_s("scenario.parse"), "s"),
        "scenario.hash.self_s": (self_s("scenario.hash"), "s"),
        "cli.export_traces.self_s": (self_s("cli.export_traces"), "s"),
        "cli.export_bytes": (sum(m.export_bytes for m in traced) / n, "B"),
        "cli.write_manifest.self_s": (self_s("cli.write_manifest"), "s"),
        "cli.render_report.self_s": (self_s("cli.render_report"), "s"),
        "tracing.sim_speed": (sim_speed(traced), "sim_s/s"),
        "tracing.untraced_sim_speed": (sim_speed(untraced), "sim_s/s"),
    })
    for step in STEPS:
        metrics[f"procedure.step.{step}.host_s"] = (
            counters.get(f"procedure.step.{step}.host_s", 0.0) / n, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from tracing import Tracer, instrumented

    workload = WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{name}-{seed}-{os.getpid()}"
    try:
        prepared = workload.prepare(workdir)
        setup = ([], []) if trace else measure_setup(prepared)
        base = seed * SEED_STRIDE
        warmup = run_mission(prepared, base)
        missions, timed, untraced = [warmup], [], []
        tracer = Tracer()
        entry = tracer.wrap("mission", prepared.entry(), keep=True)
        sampler = HostSampler()
        sampled = sampler.wrap(prepared.entry())
        start = time.perf_counter()
        gap = [calibrate() for _ in range(GAP_SAMPLES)]
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            if trace:
                plain = run_mission(prepared, base + k)
                tracer.mission = base + k
                with instrumented(tracer):
                    traced = run_mission(prepared, base + k, entry)
                missions += [plain, traced]
                if not plain.problems and not traced.problems and plain.digest != traced.digest:
                    traced.problems.append("traced output differs from the untraced run")
                untraced.append(plain)
                timed.append(traced)
            else:
                mission = run_mission(prepared, base + k, sampled)
                inside = sampler.samples
                after = [calibrate() for _ in range(GAP_SAMPLES)]
                # Samples are evenly spaced in wall time, so the harmonic
                # mean scales the mission's time by its mean host speed.
                mission.calib_in_s = sum(inside)
                mission.calib_s = statistics.harmonic_mean(gap + inside + after)
                gap = after
                missions.append(mission)
                timed.append(mission)
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = timed[0]
    if not warmup.problems and not first.problems and warmup.digest != first.digest:
        first.problems.append("repeat of the first mission is not byte-identical")
    for mission in missions:
        if mission.problems:
            continue
        expected = reference.get(str(mission.seed))
        if expected is not None and expected != mission.digest:
            mission.problems.append("digest differs from reference.json")

    failed = sum(1 for m in missions if m.problems)
    record = {"workload": name, "seconds": seconds, "trace": int(trace), "env": environment(seed),
              "missions": [asdict(m) for m in missions]}
    metrics = {}
    if failed == 0:
        if trace:
            metrics = per_layer(tracer, timed, untraced)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        else:
            metrics, record["extra"] = end_to_end(timed, setup)
            record["setup_s"] = {"raw": setup[0], "scaled": setup[1]}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {seed}  env {json.dumps(record['env'])}")
    for m in missions:
        for problem in m.problems:
            print(f"FAILED mission seed {m.seed}: {problem}")
    for key, value in record.get("extra", {}).items():
        print(f"  {key:40s} {value}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(missions), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        import_anchorsim()
    except ImportError as exc:
        print(f"cannot import anchorsim from this checkout: {exc}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
