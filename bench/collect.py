"""Run the benchmark over many seeds and summarise its spread.

Usage (from the repository root)::

    python3 bench/collect.py --seeds 10 [--workloads a b] [--record LABEL]

For each workload, runs ``bench/run.py --trace 0`` once per seed, then once
with ``--trace 1``.  Prints, per end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median next to a third
of the metric's bound in BENCHMARK.json.  ``--record`` appends the medians,
quartiles, the medians of the detail line and the traced per-layer metrics
and self-time shares to ``bench/history.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--record", default=None, help="label of the history entry")
    args = p.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)
    entry = {"label": args.record, "run_seconds": spec["run_seconds"],
             "seeds": list(seeds), "workloads": {}}
    ok = True
    for name in names:
        results, details = [], []
        for seed in seeds:
            detail, result = run(spec, name, seed, 0)
            ok &= result["correct"]
            results.append(result)
            details.append(detail)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        summary = {}
        for metric in spec["end_to_end"]:
            s = summarise([r["metrics"][metric["name"]]["value"] for r in results])
            summary[metric["name"]] = s
            steady = s["spread"] < metric["bound"] / 3
            ok &= steady or metric["name"] == "setup_s"
            print(f"{name:16s} {metric['name']:14s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"(bound/3 {metric['bound'] / 3:.3f}){'' if steady else '  WIDE'}")
        trace_detail, traced = run(spec, name, seeds[0], 1)
        ok &= traced["correct"]
        layers = traced["metrics"]
        wall = layers["bench.traced_wall_s"]["value"]
        shares = {k[:-len(".self_s")]: v["value"] / wall for k, v in layers.items()
                  if k.endswith(".self_s") and isinstance(v["value"], float)}
        shares["unattributed"] = layers["bench.unattributed_s"]["value"] / wall
        print(f"{name:16s} self-time shares: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            if v >= 0.005))
        entry["env"] = dict(details[0]["env"], seed=None)
        entry["workloads"][name] = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "detail_medians": {k: statistics.median(d[k] for d in details)
                               for k, v in details[0].items()
                               if isinstance(v, (int, float))},
            "per_layer": {k: v["value"] for k, v in layers.items()},
            "self_share": shares,
        }
    if args.record:
        path = os.path.join(HERE, "history.json")
        history = []
        if os.path.exists(path):
            with open(path) as fh:
                history = json.load(fh)
        history.append(entry)
        with open(path, "w") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
