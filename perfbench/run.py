"""qptycho benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs passes of the workload for about S seconds, checks every pass's
outputs, and prints a human-readable report followed, as the last line, by
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` list. ``--out`` appends the full record
(environment header, every metric, per-pass times) to a JSON-lines file that
``perfbench/suite.py`` summarises and compares. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected_fidelity.json"

# One BLAS thread, set before numpy loads and inherited by child processes.
# With two, each BLAS call waits on a second CPU that a shared host may not
# schedule in time: n=10 matvecs then take 8 ms instead of 0.4 ms for up to
# a second at a stretch, which swamps the kernel timings.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

#: Fresh processes whose set-up is timed per run; setup_s is their median.
SETUP_REPEATS = 9
#: Allowed distance from the stored mean fidelity of a seed.
FIDELITY_ATOL = 1e-6


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    p.add_argument("--spans-out", default=None,
                   help="with --trace 1, also save every span to this .npz file")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def load_program():
    """Import qptycho from this checkout's src/, never from elsewhere."""
    if not (SRC / "qptycho" / "__init__.py").is_file():
        sys.exit(f"run.py: no qptycho sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qptycho

    if Path(qptycho.__file__).resolve().parent != (SRC / "qptycho").resolve():
        sys.exit(f"run.py: imported qptycho from {qptycho.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def time_setup(args) -> float:
    """Time from starting a fresh process to its workload being ready.

    The child prints its CLOCK_MONOTONIC reading when ready; that clock is
    shared by all processes on Linux, so its exit is not timed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(words[1]) - t0


def expected_fidelity(workload: str, seed: int):
    try:
        with open(EXPECTED) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def _number(value):
    """JSON has no NaN: a value that could not be measured is null."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS, import_startup_s, kernel_probe

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = None
    if args.trace:
        from tracing import PROBE_PASS, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, WORK)
    if args.setup_only:
        print("ready", repr(time.monotonic()), flush=True)
        workload.close()
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    attempted, failed = workload.setup_ops
    #: operations checked in the passes, whose fidelities mean_fidelity covers
    pass_attempted = pass_failed = 0
    steps, fidelities = [], []
    started = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                tracer.current_pass = len(steps)
            t0 = time.perf_counter()
            try:
                out, step_times = workload.run_pass(tracer)
            except Exception:  # an operation raised: count it, report, stop
                traceback.print_exc()
                steps.append([time.perf_counter() - t0])
                attempted, failed = attempted + 1, failed + 1
                break
            steps.append(step_times)
            if tracer is not None:
                tracer.current_pass = -1
            a, f, fid = workload.check_pass(out)
            pass_attempted, pass_failed = pass_attempted + a, pass_failed + f
            attempted, failed = attempted + a, failed + f
            fidelities.append(fid)
            elapsed = time.perf_counter() - started
            if f or elapsed + statistics.median(map(sum, steps)) > args.seconds:
                break
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF)
        peak_rss_mb = usage.ru_maxrss / 1024
    finally:
        workload.close()

    mean_fidelity = fidelities[0] if fidelities else float("nan")
    stored = expected_fidelity(args.workload, args.seed)
    if any(fid != mean_fidelity for fid in fidelities):
        print(f"# mean_fidelity differs between passes: {fidelities}", file=sys.stderr)
        mismatch = True
    elif stored is not None and not abs(mean_fidelity - stored) <= FIDELITY_ATOL:
        print(f"# mean_fidelity {mean_fidelity!r} != stored {stored!r} for seed {args.seed}",
              file=sys.stderr)
        mismatch = True
    else:
        mismatch = False
    if mismatch:  # every operation the fidelity covers is suspect: count them all
        failed += pass_attempted - pass_failed
    correct = failed == 0 and bool(fidelities)

    # One pass, with each step at its median over the passes: a burst of
    # load from outside then spoils one step of one pass, not the result.
    wall_s = sum(map(statistics.median, zip(*steps))) if failed == 0 else sum(steps[-1])
    metrics = {}
    if tracer is None:
        metrics["wall_s"] = (wall_s, "s")
        metrics["setup_s"] = (statistics.median(time_setup(args) for _ in range(SETUP_REPEATS)), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["mean_fidelity"] = (mean_fidelity, "ratio")
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
        wanted = bench["end_to_end"]
    else:
        kernel_probe(tracer, args.seed, PROBE_PASS)
        if args.spans_out:
            tracer.save(args.spans_out)
        metrics.update(layer_metrics(tracer, len(steps)))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        metrics["cli.startup_s"] = (import_startup_s(env), "s")
        metrics["traced.wall_s"] = (wall_s, "s")
        wanted = bench["per_layer"]

    header = environment(args.seed)
    print(f"# workload {args.workload}  trace {args.trace}  passes {len(steps)}: "
          + " ".join(f"{sum(p):.4f}" for p in steps) + " s")
    for key, value in header.items():
        print(f"# {key}: {value}")
    print(f"failed_frac {failed / attempted!r} ratio  ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if args.out:
        record = {
            "env": header, "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "pass_wall_s": [sum(p) for p in steps], "step_s": steps,
            "correct": correct, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": _number(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
