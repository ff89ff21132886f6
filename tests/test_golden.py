"""Byte-identity pins for the single-tool CLI commands.

Each case runs one subcommand at seed 7 with ``--trace-out`` and a machine
report, then hashes the report followed by every exported file (name, a NUL
byte, then the file bytes, in sorted name order). The digests were recorded
when this file was added; a change that moves any output byte fails here.
The ``run`` command is pinned by ``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from anchorsim.cli import main

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
    out = tmp_path / "traces"
    code = main([*argv, "--seed", "7", "--trace-out", str(out), "--report", "machine-readable"])
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    assert code == exit_code
    assert h.hexdigest() == digest
