"""Byte-identity pins for the single-tool CLI commands.

Each case runs one subcommand at seed 7 with ``--trace-out`` and a machine
report, then hashes the report followed by every exported file (name, a NUL
byte, then the file bytes, in sorted name order). The digests were recorded
when this file was added; a change that moves any output byte fails here.
The ``run`` command is pinned by ``perfbench/test_perfbench.py``; its
noise-free variant (every FT and laser sigma at zero, so no sensor stream is
drawn) is pinned here from a scenario file, and so is a run whose FT force
noise alone trips the guard during a free move. The
``nut-missing`` mission, which has no subcommand, the 2-point ``full``
mission, whose second point runs as a sequential phase, and the seed-2009
``full`` mission, which the guard halts mid-insertion, are pinned through
``anchorsim.run``: the machine report, then each trace's id, a NUL byte and
its times and values as doubles.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array

import pytest

import anchorsim
from anchorsim.cli import main, render_machine_report

GOLDEN = [
    (("drill-test", "--variant", "aligned_axis"), 1,
     "2428523934f5f5c9570f5c9314a40c94253e95184ced719b697312c3aa577784"),
    (("drill-test", "--variant", "offset_uncompensated"), 1,
     "741941e2a1d3ce3e2151b36b4890c8dab24dafa27d327703f2cab78f7038c069"),
    (("drill-test", "--variant", "regular_spring"), 1,
     "944713921103f490c9620ed03524af5a91ffeee10bd80be7d1fa131319d2a85a"),
    (("drill-test", "--variant", "constant_load_spring"), 0,
     "b21488033615063d8f0883e811aa6b09375c63e280c93dce7d3d04f48bbad325"),
    (("insert-test",), 0,
     "2881818d3cbd735cfb1c03e4077e78b4f01247707a5100597e97eabaf031130f"),
    (("hammer-test",), 0,
     "9ce753a80e879674eab887b4979157e1cb78571ae4d125b5c8448d06543bc8a5"),
    (("nut-test",), 0,
     "84a371925e0ff0bcf13dcd324b069dc8d727b595e063565eb2f0f1cad65b8aae"),
    (("frame-test",), 0,
     "c1ed8aaf2a5a236ba10a57fa618fbb8c0f09c95bc14a8c7a45f904de9246d50a"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_seed_7_outputs_unchanged(capsys, tmp_path, argv, exit_code, digest):
    assert cli_digest(capsys, tmp_path, argv) == (exit_code, digest)


def cli_digest(capsys, tmp_path, argv):
    out = tmp_path / "traces"
    code = main([*argv, "--seed", "7", "--trace-out", str(out), "--report", "machine-readable"])
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return code, h.hexdigest()


def test_seed_7_noise_free_run_unchanged(capsys, tmp_path):
    path = tmp_path / "noise_free.ini"
    path.write_text("[sensors]\nft_sigma_force = 0\nft_sigma_moment = 0\nlaser_sigma = 0\n")
    assert cli_digest(capsys, tmp_path, ("run", "--scenario", str(path))) == (
        0, "11fcee5a85f1e8f1d4693a7b893d25a27508e5acb98509b511413531677dcab3"
    )


def test_seed_7_guard_halt_in_a_free_move_unchanged(capsys, tmp_path):
    # Robot 2's first move carries no contact model: noise alone trips the
    # guard while its filter fills.
    path = tmp_path / "noisy_ft.ini"
    path.write_text("[sensors]\nft_sigma_force = 500\n")
    assert cli_digest(capsys, tmp_path, ("run", "--scenario", str(path))) == (
        1, "4c76ee65caa678666bd36af376cb53aca69c55dd6dff85a813207bd94141257c"
    )
    manifest = json.loads((tmp_path / "traces" / "manifest.json").read_text())
    assert manifest["failure"] == "pick_place_part: HaltedByGuard: guard stop on fz after 0.60 mm"


def run_digest(scenario, mission, seed=7):
    report, traces = anchorsim.run(scenario, seed, mission)
    h = hashlib.sha256(render_machine_report(report).encode())
    for trace_id in sorted(traces):
        trace = traces[trace_id]
        h.update(trace_id.encode() + b"\0")
        h.update(array("d", trace.times).tobytes() + array("d", trace.values).tobytes())
    return report, h.hexdigest()


def test_seed_7_socket_fit_timeout_unchanged():
    report, digest = run_digest(anchorsim.Scenario(), "nut-missing")
    assert report.failure == "tighten_nut: SocketFitTimeout: socket never slotted on within 10.0 s"
    assert digest == "ab6f26ef3dc721d1e8ff8a23e099c34412145c62a86e175777e5124203260669"


def test_seed_7_two_point_sequential_unchanged():
    scenario = anchorsim.Scenario()
    scenario.part.holes = 2
    report, digest = run_digest(scenario, "full")
    assert report.success
    assert [(r.step.value, r.point_index, r.arm) for r in report.steps[-8:]] == [
        (step, 1, "robot1") for step in (
            "detect_part_hole", "drill_hole", "detect_wall_hole", "pick_anchor",
            "insert_anchor", "hammer_anchor", "tighten_nut", "release_repeat",
        )
    ]
    assert digest == "b4bbef25bad303aa62d61e41dadd3862c7b3aca24d8f1db5df55c75308adbb17"


def test_seed_2009_guard_halt_unchanged():
    report, digest = run_digest(anchorsim.Scenario(), "full", seed=2009)
    assert report.failure == "insert_anchor: HaltedByGuard: guard stop on fz after 5.76 mm"
    assert digest == "479cbb9a9dc15edd1deea141d6340389a944b67570de969de801ffbb813e5cb5"
