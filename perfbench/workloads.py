"""The benchmark's workloads: one mission each, run and checked.

A mission is one call into a public entry point, ``anchorsim.cli.main`` or
``anchorsim.run``, timed from the call until it returns. Its outputs are the
machine report plus the exported files (CLI) or the returned traces
(library); their SHA-256 digest is what every byte-identity check compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``demos/dual_arm_parallel.py``: four holes, both arms after the first point.
FULL_4PT_SCENARIO = """\
[part]
holes = 4
hole_spacing = 0.05

[robot]
tool_change_time = 5.0

[tools]
blow_advance = 0.004
blow_rate = 12.0
"""

#: Acceptance criterion 7: short fixed costs and a camera that always finds
#: the hole, so the mission is the insertion search itself.
INSERT_SCENARIO = """\
[robot]
tool_change_time = 2.0

[sensors]
detect_time = 0.5
p_detect = 1.0

[tools]
grip_time = 0.5
"""


def import_anchorsim():
    """Import the package from this checkout's ``src``, never another copy."""
    if not (SRC / "anchorsim" / "__init__.py").is_file():
        raise ImportError(f"no anchorsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import anchorsim

    if Path(anchorsim.__file__).resolve().parent != SRC / "anchorsim":
        raise ImportError(f"anchorsim imported from {anchorsim.__file__}, not {SRC}")
    return anchorsim


@dataclass
class Mission:
    """What one mission did, and whether its outputs passed the checks."""

    seed: int
    host_s: float = 0.0
    exit_code: int | None = None
    failure_class: str | None = None
    ticks: int = 0
    sim_s: float = 0.0
    statuses: list = field(default_factory=list)
    samples: int = 0
    export_bytes: int = 0
    digest: str = ""
    searches: int = 0
    search_hits: int = 0
    calib_s: float = 0.0  # mean calibration time around and in the mission, see run.calibrate
    calib_in_s: float = 0.0  # calibration time spent inside the mission
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_text: str | None  # None: the default scenario, no --scenario file
    via_cli: bool
    #: Failure classes that are simulated outcomes, reported with exit 1: a
    #: camera miss (p_detect < 1), a spiral search that runs out of time, or
    #: the guard stopping an insertion push whose tip left the clearance.
    expected_failures: frozenset

    def prepare(self, workdir: Path):
        """Write the scenario file and load what each mission needs."""
        workdir.mkdir(parents=True, exist_ok=True)
        path = None
        if self.scenario_text is not None:
            path = workdir / f"{self.name}.ini"
            path.write_text(self.scenario_text, encoding="ascii")
            path = str(path)
        return _Prepared(self, workdir, path)


class _Prepared:
    def __init__(self, workload: Workload, workdir: Path, scenario_path: str | None):
        from anchorsim.scenario import load_scenario

        self.workload = workload
        self.workdir = workdir
        self.scenario_path = scenario_path
        self.scenario = load_scenario(scenario_path)

    def setup_code(self) -> str:
        """Python source a fresh process runs to measure set-up."""
        return (
            f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            "from anchorsim.engine import World\n"
            "from anchorsim.scenario import load_scenario\n"
            f"World(load_scenario({self.scenario_path!r}), 0)\n"
        )

    def entry(self):
        """The public entry point a mission calls."""
        if self.workload.via_cli:
            from anchorsim.cli import main

            return main
        from anchorsim import run

        return run

    def run(self, seed: int, entry=None) -> Mission:
        """Run and check one mission; ``entry`` replaces the entry point
        (the traced run passes it wrapped)."""
        entry = entry or self.entry()
        if self.workload.via_cli:
            return self._run_cli(seed, entry)
        return self._run_library(seed, entry)

    def _run_cli(self, seed: int, entry) -> Mission:
        out = self.workdir / f"trace-{seed}"
        argv = ["run", "--seed", str(seed), "--trace-out", str(out), "--report", "machine-readable"]
        if self.scenario_path is not None:
            argv += ["--scenario", self.scenario_path]
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                t0 = time.perf_counter()
                code = entry(argv)
                host_s = time.perf_counter() - t0
            machine = stdout.getvalue()
            digest = hashlib.sha256(machine.encode())
            names = sorted(os.listdir(out))
            samples = export_bytes = 0
            for name in names:
                data = (out / name).read_bytes()
                digest.update(name.encode() + b"\0" + data)
                export_bytes += len(data)
                if name.endswith(".csv"):
                    samples += data.count(b"\n") - 1
        finally:
            shutil.rmtree(out, ignore_errors=True)
        mission = self._checked(seed, host_s, code, json.loads(machine), digest.hexdigest(),
                                samples, export_bytes)
        if "manifest.json" not in names:
            mission.problems.append("no manifest.json")
        return mission

    def _run_library(self, seed: int, entry) -> Mission:
        t0 = time.perf_counter()
        report, traces = entry(self.scenario, seed, "insert")
        host_s = time.perf_counter() - t0
        report = report.to_dict()
        digest = hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode())
        samples = 0
        for trace_id in sorted(traces):
            trace = traces[trace_id]
            digest.update(trace_id.encode() + b"\0")
            digest.update(array("d", trace.times).tobytes() + array("d", trace.values).tobytes())
            samples += len(trace)
        return self._checked(seed, host_s, 0 if report["success"] else 1, report,
                             digest.hexdigest(), samples, 0)

    def _checked(self, seed, host_s, code, report, digest, samples, export_bytes) -> Mission:
        steps = report["steps"]
        failed = [s for s in steps if s["status"] == "failed"]
        failure_class = failed[0]["error"].split(":", 1)[0] if failed else None
        searches = hits = 0
        for s in steps:
            if s["step"] != "insert_anchor":
                continue
            if s["status"] == "ok" and s["diagnostics"].get("search_used"):
                searches += 1
                hits += 1
            elif s["status"] == "failed" and s["error"].startswith("SearchTimeout"):
                searches += 1
        dt = self.scenario.procedure.timestep
        mission = Mission(
            seed=seed,
            host_s=host_s,
            exit_code=code,
            failure_class=failure_class,
            ticks=round(report["total_duration"] / dt),
            sim_s=report["total_duration"],
            statuses=[[s["step"], s["point"], s["arm"], s["status"]] for s in steps],
            samples=samples,
            export_bytes=export_bytes,
            digest=digest,
            searches=searches,
            search_hits=hits,
        )
        if code not in (0, 1) or (code == 0) != report["success"]:
            mission.problems.append(f"exit code {code} with success={report['success']}")
        if report["success"] and any(s["status"] != "ok" for s in steps):
            mission.problems.append("success reported with a step not ok")
        if not report["success"] and failure_class not in self.workload.expected_failures:
            mission.problems.append(f"unexpected outcome: {report['failure']}")
        if samples < 1:
            mission.problems.append("no trace samples")
        return mission


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full_1pt",
            scenario_text=None,
            via_cli=True,
            expected_failures=frozenset({"DetectionMissing", "SearchTimeout", "HaltedByGuard"}),
        ),
        Workload(
            name="full_4pt",
            scenario_text=FULL_4PT_SCENARIO,
            via_cli=True,
            expected_failures=frozenset({"DetectionMissing", "SearchTimeout", "HaltedByGuard"}),
        ),
        Workload(
            name="insert_sweep",
            scenario_text=INSERT_SCENARIO,
            via_cli=False,
            expected_failures=frozenset({"SearchTimeout"}),
        ),
    )
}
