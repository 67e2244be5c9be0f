"""Record the reference outputs that bench/run.py checks every op against.

For each workload and each seed in SEEDS it runs one battery and stores, per
op, the exit code, whether it aborted, each check's pass/fail status, the
exact fields and the output fingerprints (see outputs.py).  Run it from the
root of a checkout, only on the commit the reference is meant to describe:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from outputs import ABS_TOL, REL_TOL

SEEDS = range(32)


def main() -> int:
    modules = run._import_alignlab()
    workloads = {}
    for name, workload in run.WORKLOADS.items():
        per_seed = {}
        for seed in SEEDS:
            battery = run.run_battery(modules["cli"], name, workload.ops, seed)
            per_seed[str(seed)] = [out.to_record() for out in battery.outputs]
            print(f"{name} seed {seed}: {battery.wall_s:.2f} s", file=sys.stderr)
        workloads[name] = per_seed
    data = {
        "commit": run._commit(),
        "tolerance": {"abs": ABS_TOL, "rel": REL_TOL},
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "workloads": workloads,
    }
    run.REFERENCE.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
