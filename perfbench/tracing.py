"""In-memory span tracer and the wrappers that time each anchorsim layer.

The traced run replaces each instrumented name where its caller looks it up
(a module global such as ``anchorsim.engine.read_ft`` or a class attribute
such as ``World.step``) with a wrapper that records a span, and puts the
original back afterwards. No library source is edited and no wrapper draws
randomness, so a traced mission exports the same bytes as an untraced one.

Self time is a span's duration minus the time its child spans cover. Calls
are single-threaded and properly nested, so children never overlap and the
covered time is the sum of their durations; it is added to the parent's
frame when each child ends. Per-tick layers run millions of times per
mission, so their spans are folded into per-name totals as they end; every
other span is kept in memory with its name, start, end, parent and mission
id, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Span stack, per-name totals, kept spans and plain event counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.mission = None  # id stamped on kept spans
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list = []  # kept: (mission, name, start, end, parent index)
        self._stack: list = []  # open frames: [start, covered_s]
        self._kept_parent = None

    def wrap(self, name: str, fn, keep: bool = False):
        """Return ``fn`` timed as span ``name``; ``keep`` retains each span."""
        stack, clock, spans = self._stack, self.clock, self.spans
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def close(frame, end):
            stack.pop()
            dur = end - frame[0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

        if not keep:
            def traced(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, clock())
        else:
            def traced(*args, **kwargs):
                parent = tracer._kept_parent
                index = len(spans)
                spans.append(None)
                tracer._kept_parent = index
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    close(frame, end)
                    spans[index] = (tracer.mission, name, frame[0], end, parent)
                    tracer._kept_parent = parent

        return traced

    def count(self, name: str, n: float = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def summary(self) -> dict[str, dict]:
        """Per-name calls, total and self seconds, and share of traced time.

        The share is self time over the summed duration of root spans, so the
        shares of all names add up to one.
        """
        roots = sum(end - start for _, _, start, end, parent in self.spans if parent is None)
        return {
            name: {
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
                "share": self_s / roots if roots else 0.0,
            }
            for name, (calls, total, self_s) in self.stats.items()
        }

    def write(self, path):
        """Write the kept spans, one JSON object per line, then the totals."""
        with open(path, "w", encoding="ascii") as fh:
            for mission, name, start, end, parent in self.spans:
                fh.write(json.dumps({"mission": mission, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"summary": self.summary(), "counters": self.counters}) + "\n")


#: Step names of the ten-step procedure, as the machine report spells them.
STEPS = (
    "estimate_orientation", "pick_place_part", "detect_part_hole", "drill_hole",
    "detect_wall_hole", "pick_anchor", "insert_anchor", "hammer_anchor",
    "tighten_nut", "release_repeat",
)

#: Names wrapped with per-tick frequency; their spans are folded, not kept.
PER_TICK = {
    "engine.step", "engine.trace_record", "engine.laser_distance", "sensors.read_ft",
    "sensors.guard_push", "sensors.overload_guard", "sensors.read_laser",
    "robot.advance", "robot.platform_step", "geometry.point3",
    "worksite.anchor_engagement", "tools.hammer_blow", "tools.nut_pulse",
    "tools.drill_thrust", "tools.drill_moment",
}


@contextmanager
def instrumented(tracer: Tracer):
    """Install a wrapper on every instrumented name; restore them on exit."""
    import anchorsim.cli as cli
    import anchorsim.engine as engine
    import anchorsim.procedure as procedure
    import anchorsim.scenario as scenario
    from anchorsim.engine import TraceRecorder, World
    from anchorsim.geometry import Point3
    from anchorsim.procedure import MissionContext
    from anchorsim.robot import ArmState, PlatformState
    from anchorsim.sensors import GuardFilter

    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(owner, attr, name):
        replace(owner, attr, tracer.wrap(name, owner.__dict__[attr], keep=name not in PER_TICK))

    span(World, "__init__", "engine.world_init")
    span(World, "step", "engine.step")
    span(World, "laser_distance", "engine.laser_distance")
    span(TraceRecorder, "record", "engine.trace_record")
    span(engine, "read_ft", "sensors.read_ft")
    span(GuardFilter, "push", "sensors.guard_push")
    span(engine, "overload_guard", "sensors.overload_guard")
    span(engine, "read_laser", "sensors.read_laser")
    span(procedure, "camera_detect", "sensors.camera_detect")
    span(ArmState, "advance", "robot.advance")
    span(PlatformState, "step", "robot.platform_step")
    span(procedure, "attach_tool", "robot.attach_tool")
    span(procedure, "detach_tool", "robot.detach_tool")
    span(Point3, "__post_init__", "geometry.point3")
    span(procedure, "hammer_blow", "tools.hammer_blow")
    span(procedure, "nutrunner_pulse", "tools.nut_pulse")
    span(procedure, "drill_thrust", "tools.drill_thrust")
    span(procedure, "drill_reaction_moment", "tools.drill_moment")
    span(procedure, "anchor_engagement", "worksite.anchor_engagement")
    span(procedure, "drive_mission", "procedure.drive_mission")
    span(scenario, "parse_scenario", "scenario.parse")
    span(engine, "scenario_hash", "scenario.hash")
    span(cli, "export_traces", "cli.export_traces")
    span(cli, "write_manifest", "cli.write_manifest")
    span(cli, "render_machine_report", "cli.render_report")

    # Counters read at the same boundaries; these wrap a span wrapper or the
    # original and only add counts.
    step = World.__dict__["step"]

    def counted_step(world):
        step(world)
        active = [rt.active for rt in world.arms.values()]
        if not any(active):
            tracer.count("engine.idle_ticks")
        elif all(active):
            tracer.count("engine.dual_active_ticks")

    replace(World, "step", counted_step)

    detect = procedure.camera_detect

    def counted_detect(*args, **kwargs):
        det = detect(*args, **kwargs)
        if det is None:
            tracer.count("sensors.camera_misses")
        return det

    replace(procedure, "camera_detect", counted_detect)

    offsets = procedure.spiral_offsets

    def counted_offsets(*args, **kwargs):
        for offset in offsets(*args, **kwargs):
            tracer.count("procedure.spiral_probes")
            yield offset

    replace(procedure, "spiral_offsets", counted_offsets)

    # Step host time: steps of the two arms overlap in a parallel phase, so
    # they are intervals beside the span tree rather than spans in it.
    begin, end, fail = (MissionContext.__dict__[a] for a in ("begin", "end", "fail"))
    open_steps: dict = {}

    def close_step(ctx, arm):
        opened = open_steps.pop((id(ctx), arm), None)
        if opened is not None:
            tracer.count(f"procedure.step.{opened[0]}.host_s", tracer.clock() - opened[1])

    def timed_begin(ctx, step_, point, arm):
        rec = begin(ctx, step_, point, arm)
        open_steps[(id(ctx), arm)] = (step_.value, tracer.clock())
        return rec

    def timed_end(ctx, arm, **diag):
        close_step(ctx, arm)
        return end(ctx, arm, **diag)

    def timed_fail(ctx, arm, exc):
        close_step(ctx, arm)
        return fail(ctx, arm, exc)

    replace(MissionContext, "begin", timed_begin)
    replace(MissionContext, "end", timed_end)
    replace(MissionContext, "fail", timed_fail)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
