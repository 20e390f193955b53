"""Run, summarise and compare qptycho benchmark runs.

    python3 perfbench/suite.py run [--seeds N ...] [--out FILE]
    python3 perfbench/suite.py summary FILE
    python3 perfbench/suite.py compare OLD NEW
    python3 perfbench/suite.py record-expected FILE

``run`` executes perfbench/run.py for every workload in BENCHMARK.json,
every seed and both trace modes, for BENCHMARK.json's run_seconds, appends every record to FILE (JSON lines, default
.perfbench_work/results.jsonl) and prints the summary. ``summary`` prints,
per workload, the median, quartiles and spread of every metric, the tracing
overhead, and any count that did not repeat between traced runs of one
seed. ``compare`` reports only: per workload and metric it prints each
side's median and quartiles and the ratio NEW/OLD, and marks end-to-end
metrics that are worse beyond their bound or whose spread exceeds it. Any
drop of ``ok_frac`` (rise of ``failed_frac``) is marked worse, whatever the
bound.
``record-expected`` stores the untraced mean_fidelity of each (workload,
seed) in perfbench/expected_fidelity.json, which run.py checks against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The seed to tune a change against. Confirm a gain on the held-out seed 2.
DEFAULT_SEED = 1
#: Ratios of failed operations, better high or low; they have no tolerance.
FAILURE_RATIOS = {"ok_frac": "higher", "failed_frac": "lower"}


def load_bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_records(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def collect(records, trace: int) -> dict:
    """{workload: {metric: ([values], unit)}} over records of one trace mode,
    with each record's ``failed_frac`` among the metrics."""
    out = defaultdict(dict)
    for rec in records:
        if rec["trace"] != trace:
            continue
        metrics = dict(rec["metrics"], failed_frac={"value": rec["failed_frac"], "unit": "ratio"})
        for name, m in metrics.items():
            out[rec["workload"]].setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return out


def cmd_run(args) -> int:
    bench = load_bench()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", str(trace), "--out", str(out)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["<no output>"]
                print(f"{workload} seed={seed} trace={trace}: exit {proc.returncode} {last[0][:120]}")
                if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
                    sys.stderr.write(proc.stderr)
                    status = 1
    cmd_summary(argparse.Namespace(file=str(out)))
    return status


def cmd_summary(args) -> int:
    records = load_records(args.file)
    untraced, traced = collect(records, 0), collect(records, 1)
    for workload in sorted(set(untraced) | set(traced)):
        print(f"\n== {workload}")
        for label, table in (("end-to-end", untraced), ("per-layer", traced)):
            for name, (values, unit) in table.get(workload, {}).items():
                q1, med, q3 = quartiles(values)
                print(f"  {label:10} {name:32} median {med:<12.6g} [{q1:.6g}, {q3:.6g}] {unit:6} "
                      f"spread {100 * spread(values):5.1f}%  n={len(values)}")
        if "wall_s" in untraced.get(workload, {}) and "traced.wall_s" in traced.get(workload, {}):
            plain = statistics.median(untraced[workload]["wall_s"][0])
            with_trace = statistics.median(traced[workload]["traced.wall_s"][0])
            print(f"  tracing overhead: {with_trace - plain:+.4f} s per pass "
                  f"({100 * (with_trace / plain - 1):+.1f}% of {plain:.4f} s)")
        by_seed = defaultdict(list)
        for rec in records:
            if rec["workload"] == workload and rec["trace"] == 1:
                by_seed[rec["seed"]].append(rec["metrics"])
        for seed, runs in sorted(by_seed.items()):
            for name, m in runs[0].items():
                if m["unit"] == "count" and any(r[name]["value"] != m["value"] for r in runs[1:]):
                    print(f"  COUNT DID NOT REPEAT: {name} for seed {seed}: "
                          f"{[r[name]['value'] for r in runs]}")
    return 0


def cmd_compare(args) -> int:
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    old_recs, new_recs = load_records(args.old), load_records(args.new)
    print(f"# OLD {args.old}: commit {old_recs[0]['env']['git_commit'] if old_recs else '-'}")
    print(f"# NEW {args.new}: commit {new_recs[0]['env']['git_commit'] if new_recs else '-'}")
    for trace in (0, 1):
        old, new = collect(old_recs, trace), collect(new_recs, trace)
        for workload in sorted(set(old) & set(new)):
            print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'})")
            for name in old[workload]:
                if name not in new[workload]:
                    continue
                (ov, unit), (nv, _) = old[workload][name], new[workload][name]
                oq, nq = quartiles(ov), quartiles(nv)
                ratio = nq[1] / oq[1] if oq[1] else (1.0 if nq[1] == 0 else float("inf"))
                flag = ""
                if name in FAILURE_RATIOS:
                    # Any failure is a regression: compare each side's worst run.
                    if FAILURE_RATIOS[name] == "higher":
                        flag = "WORSE" if min(nv) < min(ov) else ""
                    else:
                        flag = "WORSE" if max(nv) > max(ov) else ""
                elif not trace and name in bounds:
                    bound = bounds[name]["bound"]
                    worse = ratio - 1 if better[name] == "lower" else 1 - ratio
                    if spread(ov) > bound or spread(nv) > bound:
                        flag = "unresolved"
                    elif worse > bound:
                        flag = "WORSE"
                print(f"  {name:32} old {oq[1]:<11.6g} [{oq[0]:.6g}, {oq[2]:.6g}]  "
                      f"new {nq[1]:<11.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {unit:6} "
                      f"new/old {ratio:7.4f} {flag}")
    return 0


def cmd_record_expected(args) -> int:
    path = HERE / "expected_fidelity.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for rec in load_records(args.file):
        if rec["trace"] != 0 or not rec["correct"]:
            continue
        value = rec["metrics"]["mean_fidelity"]["value"]
        table = stored.setdefault(rec["workload"], {})
        old = table.setdefault(str(rec["seed"]), value)
        if abs(old - value) > 1e-6:
            sys.exit(f"{rec['workload']} seed {rec['seed']}: stored {old!r}, measured {value!r}")
    stored = {w: dict(sorted(t.items(), key=lambda kv: int(kv[0]))) for w, t in sorted(stored.items())}
    path.write_text(json.dumps(stored, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", type=int, nargs="+", default=[DEFAULT_SEED])
    p.add_argument("--out", default=str(ROOT / ".perfbench_work" / "results.jsonl"))
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p.set_defaults(func=cmd_summary)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("record-expected")
    p.add_argument("file")
    p.set_defaults(func=cmd_record_expected)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
