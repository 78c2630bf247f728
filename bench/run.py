"""letcc benchmark: one workload, one closed loop, one JSON result line.

Usage (from the repository root)::

    python3 bench/run.py --workload mc_small --seed 1 --seconds 20 --trace 0

A single caller on one thread repeats the workload's operation for
``--seconds``, checking each output against ``refs/`` and the kernel-form
oracle outside the timed region.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
details (per-batch latency percentiles, sample counts, environment).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Throughput
and set-up time are scaled by the speed gauge of ``speed.py`` to what the
machine would do at full speed; the detail line also gives them raw.
``--trace 1`` alternates untraced and traced operations, reports the
per-layer metrics, and writes the spans to ``bench/out/``.

Exit codes: 0 when every check passed, 1 when an operation failed or a
check did not hold, 2 when letcc cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
GAUGE_EVERY_S = 0.2
GAUGE_PER_SETUP = 5
NOTE = ("Shared 2-core machine: single-thread speed varies 1.2-1.7x over time and "
        "wall-clock medians of one workload spread 5-30% between processes. "
        "trials_per_s and setup_s are scaled to full speed by bench/speed.py; "
        "*_wall figures and latencies are raw wall-clock.")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build inputs and warm up, then exit")
    return p.parse_args(argv)


def import_letcc():
    """Import letcc from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(REPO, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import letcc
    if not os.path.abspath(letcc.__file__).startswith(src + os.sep):
        raise ImportError(f"letcc imported from {letcc.__file__}, not {src}")
    import workloads
    return workloads


def setup_seconds(args, gauge) -> float:
    """Median wall time of fresh processes that only set the workload up.

    The gauge is sampled around each process; the caller scales by it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(GAUGE_PER_SETUP):
            gauge.sample()
        start = time.perf_counter()
        # No timeout: waiting with one polls in 50 ms steps, coarser than
        # the differences this metric has to show.
        subprocess.run(cmd, cwd=REPO, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    for _ in range(GAUGE_PER_SETUP):
        gauge.sample()
    return statistics.median(samples)


def git_sha():
    """Commit of the checkout, read from .git when the checkout has one."""
    head = os.path.join(REPO, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(REPO, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha(),
        "seed": seed,
        "note": NOTE,
    }


def measure(workload, seconds, gauge, tracer=None):
    """Run operations until ``seconds`` pass or the seed pool is used up.

    Each output is checked as soon as its operation returns, outside the
    timed region, and then dropped, so that kept outputs do not add to the
    peak memory measured.  Between operations the gauge is sampled once per
    GAUGE_EVERY_S passed since it was last sampled, so its samples spread
    evenly over the run.  With a tracer, operations alternate untraced and
    traced.  Returns the untraced and traced operations, the number of
    operations attempted and failed, and the problems found.
    """
    plain, traced, problems = [], [], []
    attempted = failed = 0
    gauge.sample()
    last = start = time.perf_counter()
    for i, key in enumerate(workload.order()):
        owed = int((time.perf_counter() - last) / GAUGE_EVERY_S)
        for _ in range(owed):
            gauge.sample()
        if owed:
            last = time.perf_counter()
        if time.perf_counter() - start >= seconds:
            break
        attempted += 1
        trace = tracer is not None and i % 2 == 1
        try:
            if trace:
                with tracer.installed():
                    op = tracer.op(i, lambda: workload.run(key))
            else:
                op = workload.run(key)
            found = workload.check(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            found = [f"pool seed {key}: {type(exc).__name__}: {exc}"]
        else:
            op.out = None
            (traced if trace else plain).append(op)
        failed += bool(found)
        problems.extend(found)
    gauge.sample()
    return plain, traced, attempted, failed, problems


def traced_metrics(workloads, workload, tracer, plain, traced, problems):
    """Per-layer metrics, plus one profiled operation for inputs and memory."""
    import spans
    profile = spans.Tracer()
    with profile.installed(), profile.profiled():
        profile.op(-1, lambda: workload.run(next(iter(workload.order()))))
    _, worst = tracer.self_times()
    if worst > 1e-9:
        problems.append(f"a span ends outside its parent by {worst:.3g} s")
    metrics = spans.layer_metrics(tracer, profile)
    metrics["trace.overhead"] = {
        "value": workloads.rate(traced) / workloads.rate(plain), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        workloads = import_letcc()
    except ImportError as exc:
        sys.stderr.write(f"cannot import letcc from this checkout: {exc}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choices: {sorted(workloads.WORKLOADS)}\n")
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed).warm_up()
        return 0
    import speed
    setup_gauge, gauge = speed.Gauge(), speed.Gauge()
    if not args.trace:
        setup_s = setup_seconds(args, setup_gauge) / setup_gauge.slowdown()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    plain, traced, attempted, failed, problems = measure(workload, args.seconds, gauge,
                                                         tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    detail = {"workload": args.workload, "ops": len(plain), "traced_ops": len(traced),
              "trials": sum(op.trials for op in plain + traced),
              "failed_frac": failed / max(attempted, 1),
              "env": environment(args.seed)}
    if not plain or (args.trace and not traced):
        metrics = None
    elif args.trace:
        metrics = traced_metrics(workloads, workload, tracer, plain, traced, problems)
        os.makedirs(workloads.OUT, exist_ok=True)
        path = os.path.join(workloads.OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        detail["spans"] = os.path.relpath(path, REPO)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "trials_per_s": {"value": workloads.rate(plain) * gauge.slowdown(),
                             "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail.update(workload.details(plain), trials_per_s_wall=workloads.rate(plain),
                      slowdown=gauge.slowdown(), setup_slowdown=setup_gauge.slowdown())

    for line in problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    if metrics is None:
        sys.stderr.write("no operation completed; nothing to report\n")
        return 1
    correct = not problems
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
