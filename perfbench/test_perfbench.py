"""Tests of the benchmark itself: span arithmetic, and seed-7 counts pinned
at the time the benchmark was defined.

    python3 -m pytest -q perfbench
"""

import json

import pytest

from run import HERE
from tracing import Tracer, instrumented
from workloads import WORKLOADS, import_anchorsim

import_anchorsim()


def test_self_time_and_share_on_synthetic_tree():
    # a [0, 10] holds b [1, 3] and d [3, 4] back to back, then e [6, 9];
    # b holds c [1.5, 2.5]. d is folded into totals, the others are kept.
    times = iter([0.0, 1.0, 1.5, 2.5, 3.0, 3.0, 4.0, 6.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(times))
    c = tracer.wrap("c", lambda: None, keep=True)
    b = tracer.wrap("b", lambda: c(), keep=True)
    d = tracer.wrap("d", lambda: None)
    e = tracer.wrap("e", lambda: None, keep=True)

    def body():
        b()
        d()
        e()

    tracer.mission = 3
    tracer.wrap("a", body, keep=True)()

    summary = tracer.summary()
    expected_self = {"a": 4.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 3.0}
    for name, self_s in expected_self.items():
        assert summary[name]["calls"] == 1
        assert summary[name]["self_s"] == pytest.approx(self_s)
        assert summary[name]["share"] == pytest.approx(self_s / 10.0)
    assert summary["a"]["total_s"] == pytest.approx(10.0)
    assert summary["b"]["total_s"] == pytest.approx(2.0)
    assert sum(s["share"] for s in summary.values()) == pytest.approx(1.0)
    assert tracer.spans == [
        (3, "a", 0.0, 10.0, None),
        (3, "b", 1.0, 3.0, 0),
        (3, "c", 1.5, 2.5, 1),
        (3, "e", 6.0, 9.0, 0),
    ]


def test_instrumentation_is_removed_afterwards():
    from anchorsim.engine import World
    from anchorsim.geometry import Point3
    import anchorsim.engine as engine

    before = (World.__dict__["step"], Point3.__dict__["__post_init__"], engine.read_ft)
    with instrumented(Tracer()):
        assert World.__dict__["step"] is not before[0]
    assert (World.__dict__["step"], Point3.__dict__["__post_init__"], engine.read_ft) == before


@pytest.mark.parametrize(
    "name, ticks, counter, count, samples, export_bytes",
    [
        ("full_1pt", 62_206, "engine.idle_ticks", 18_772, 307_089, 4_908_501),
        ("full_4pt", 97_820, "engine.dual_active_ticks", 28_772, 764_541, 11_515_855),
    ],
)
def test_seed_7_counts_and_traced_output(tmp_path, name, ticks, counter, count, samples, export_bytes):
    prepared = WORKLOADS[name].prepare(tmp_path)
    tracer = Tracer()
    with instrumented(tracer):
        mission = prepared.run(7)
    assert mission.problems == []
    assert mission.exit_code == 0
    assert mission.ticks == ticks
    assert tracer.stats["engine.step"][0] == ticks
    assert tracer.counters[counter] == count
    assert mission.samples == samples
    assert mission.export_bytes == export_bytes
    # The reference digests were taken untraced: the wrappers changed no output.
    reference = json.loads((HERE / "reference.json").read_text())
    assert mission.digest == reference[name]["7"]
