"""Write the reference aggregates the benchmark checks every call against.

Usage (from the repository root)::

    python3 bench/make_refs.py mc_small_letcc sweep_large ...

For each named workload, runs its experiment call once per seed of the
pool (untimed) and writes ``bench/refs/<workload>.json``: one list of
aggregates per pool seed.  The references pin what the commit that wrote
them produces; regenerate them only when a change is meant to alter
results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_VARS, import_letcc

# Seeds per pool: several times the operations a 20 s run makes today.
POOL = {
    "mc_small": 2048,
    "sweep_large": 48,
    "crossval_noisy": 96,
}


def main(names) -> int:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    workloads = import_letcc()
    os.makedirs(workloads.REFS, exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name](0, with_refs=False)
        refs = [workload.aggregates(workload.run(key).out) for key in range(POOL[name])]
        with open(os.path.join(workloads.REFS, f"{name}.json"), "w") as fh:
            json.dump(refs, fh)
            fh.write("\n")
        print(f"{name}: {len(refs)} pool seeds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(POOL)))
