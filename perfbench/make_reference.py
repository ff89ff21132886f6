"""Regenerate ``reference.json``: output digests of the default-seed missions.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter simulated output, and say why
in CHANGES.md; a speed-only change must leave every digest as it is.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT
from workloads import WORKLOADS, import_anchorsim

#: Missions per workload with a reference digest; more than a run of the
#: default seed 0 times here, and including mission seed 7 for the tests.
MISSIONS = {"full_1pt": 24, "full_4pt": 12, "insert_sweep": 240}


def main() -> int:
    import_anchorsim()
    reference = {}
    workdir = OUT / "tmp-reference"
    try:
        for name, count in MISSIONS.items():
            prepared = WORKLOADS[name].prepare(workdir)
            reference[name] = {}
            for seed in range(count):
                mission = prepared.run(seed)
                if mission.problems:
                    print(f"{name} seed {seed}: {mission.problems}", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = mission.digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
