"""Command-line front end: run presets, export traces, render reports.

Subcommands map to the experiment protocols: ``run`` executes the complete
fixation, ``drill-test`` / ``hammer-test`` / ``nut-test`` exercise one tool
each, and ``frame-test`` runs the wall orientation estimation. Exit code 0
means success, 1 a failed step, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .engine import Trace, TraceRow, run
from .errors import IoFailure, ScenarioInvalid
from .procedure import FixationReport
from .scenario import STAMP_DECIMALS, Scenario, load_scenario, render_scenario

SUBCOMMAND_MISSIONS = {
    "run": "full",
    "drill-test": "drill",
    "hammer-test": "hammer",
    "insert-test": "insert",
    "nut-test": "nut",
    "frame-test": "frame",
}

#: Format spec of the exported time stamps.
STAMP_SPEC = f".{STAMP_DECIMALS}f"


def export_traces(traces: dict[str, Trace], out_dir) -> list[str]:
    """One delimited text file per channel plus a machine-readable manifest.

    Files use LF line endings, ASCII, and a fixed float format so identical
    runs export byte-identical data. The traces of one row share their
    times, so their files are written side by side, one stored chunk of the
    row at a time (``TraceRow``).
    """
    import os
    from contextlib import ExitStack

    order = sorted(traces)
    rows: dict[TraceRow, list[Trace]] = {}
    for trace_id in order:
        rows.setdefault(traces[trace_id].row, []).append(traces[trace_id])
    try:
        os.makedirs(out_dir, exist_ok=True)
        for row, row_traces in rows.items():
            with ExitStack() as stack:
                files = []
                for trace in row_traces:
                    path = os.path.join(out_dir, trace.id.replace("/", "_") + ".csv")
                    fh = stack.enter_context(open(path, "w", encoding="ascii", newline="\n"))
                    # Each line is "\n<t>,<v>": the header ends without a
                    # newline and the file with one.
                    fh.write(f"t,{trace.channel}")
                    files.append((fh, trace.index))
                for times, columns in row.chunks():
                    _write_chunk([(fh, columns[i]) for fh, i in files], times)
                for fh, _ in files:
                    fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot export traces to {out_dir}: {exc}") from None
    return [trace_id.replace("/", "_") + ".csv" for trace_id in order]


def _write_chunk(files, times):
    """Write one chunk of a row's ``(file, values)`` pairs at ``times``;
    ``None`` values are all ``+0.0``.

    Each time stamp is formatted once for all the files, all of them by one
    ``%`` template whose stamps end in NUL, to split on. The all-``+0.0``
    values have the same text in every file; it is built once, after the
    other files are written, and freed on return.
    """
    stamps = (f"\n%{STAMP_SPEC},\0" * len(times) % tuple(times)).split("\0")
    del stamps[-1]  # the empty text after the last NUL
    zero_files = []
    for fh, values in files:
        if values is None:
            zero_files.append(fh)
        else:
            fh.write("".join(chain.from_iterable(zip(stamps, map(repr, values)))))
    if zero_files:
        text = "0.0".join(stamps) + "0.0"
        for fh in zero_files:
            fh.write(text)


def write_manifest(report: FixationReport, out_dir, trace_files: list[str]):
    """The machine report without trace ids and with per-step status and
    duration only, plus the exported file names."""
    import os

    payload = report.to_dict()
    del payload["traces"]
    payload["steps"] = [
        {key: step[key] for key in ("step", "point", "arm", "status", "duration")}
        for step in payload["steps"]
    ]
    payload["trace_files"] = trace_files
    try:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write manifest: {exc}") from None


def render_text_report(report: FixationReport) -> str:
    lines = []
    lines.append(f"seed {report.seed}  scenario {report.scenario_hash[:12]}")
    lines.append(f"{'step':24s} {'pt':>2s} {'arm':8s} {'status':8s} {'duration':>10s}")
    for r in report.steps:
        lines.append(
            f"{r.step.value:24s} {r.point_index:2d} {r.arm:8s} {r.status:8s} {r.duration:9.2f}s"
        )
        if r.error:
            lines.append(f"    {r.error}")
    minutes, seconds = divmod(report.total_duration, 60.0)
    lines.append(f"total {report.total_duration:.2f} s ({int(minutes)} min {seconds:.0f} s)")
    lines.append("result: " + ("success" if report.success else f"FAILED ({report.failure})"))
    return "\n".join(lines) + "\n"


def render_machine_report(report: FixationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def non_negative_int(text: str) -> int:
    """Parse ``--seed``: numpy's seed sequence takes only non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorsim",
        description="Deterministic simulator for dual-arm anchor-bolt fixation to concrete.",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print all scenario defaults and exit")
    sub = parser.add_subparsers(dest="command")
    for name, mission in SUBCOMMAND_MISSIONS.items():
        p = sub.add_parser(name, help=f"run the {mission} mission")
        p.add_argument("--scenario", metavar="PATH", default=None,
                       help="scenario file (defaults to the nominal setup)")
        p.add_argument("--seed", type=non_negative_int, default=7, help="random seed (default 7)")
        p.add_argument("--trace-out", metavar="DIR", default=None,
                       help="export per-channel trace files and a manifest")
        p.add_argument("--variant", default=None,
                       help="override the drill tool variant")
        p.add_argument("--report", choices=("text", "machine-readable"), default="text",
                       help="report format on stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        # Every scenario key with its default; units and meanings are the
        # comments beside each field in ``scenario.py``.
        sys.stdout.write(render_scenario(Scenario()))
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        scenario = load_scenario(args.scenario)
        if args.variant is not None:
            scenario.tools.variant = args.variant
            scenario.validate()
    except ScenarioInvalid as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2

    mission = SUBCOMMAND_MISSIONS[args.command]
    report, traces = run(scenario, seed=args.seed, mission=mission)

    if args.trace_out:
        try:
            files = export_traces(traces, args.trace_out)
            write_manifest(report, args.trace_out, files)
        except IoFailure as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.report == "machine-readable":
        sys.stdout.write(render_machine_report(report))
    else:
        sys.stdout.write(render_text_report(report))
    return 0 if report.success else 1


if __name__ == "__main__":
    sys.exit(main())
