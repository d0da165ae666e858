#!/usr/bin/env python3
"""The adicop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
                             [--smoke]

Run from the root of a checkout.  Workloads, metrics and bounds are listed
in BENCHMARK.json; the ops of each workload are in perfbench/workloads.py.

Each pass of a workload runs in a fresh child process (perfbench/child.py)
that imports adicop from `src/`, builds the workload's samplers and runs
its ops through `adicop.cli.main(argv)` with `--workers 1`.  Passes repeat
while another one still fits in `--seconds`; there is always at least one.

With `--trace 0` the metrics are the end-to-end ones, each the median over
passes: `wall_s` and `cpu_s` (user plus system, BLAS threads included) of
the ops, `peak_rss_mb` of the child, and `setup_s`, the child's import of
adicop.cli plus sampler construction, over the passes and SETUP_PROBES
set-up-only children.  With `--trace 1` untraced and traced passes
alternate, and the metrics are the per-layer totals of the traced passes
(medians over passes) plus `trace.overhead_s`, traced minus untraced wall
time.  The spans of the last traced pass are kept in
`.bench_work/trace-<workload>-seed<N>.jsonl`.

Every op passes a correctness gate: exit code 0, the expected classify
verdicts, the exact orbit anchors, and byte-identical `--out` files to the
committed results/ files where they exist for the seed (version line
removed).  Each op's output digest, version removed, must also repeat
across the passes of a run, traced or not.  Failed ops count in `failed`.

The last stdout line is the result object; the line before it holds the
quartiles, pass counts, digests, failures and provenance.  The benchmark
exits non-zero without a result when adicop cannot be run from the
checkout.  The smoke mode runs every workload at tiny sizes in seconds.

No threaded workload is included: `classify periodic k=2 --workers 2`
measured 1.23-1.76 s over 3 runs against 2.38-2.46 s at `--workers 1` on a
2-core machine, too unsteady for a bound.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 16
DEADLINE_S = 170   # a run must end within 180 s
LIMITS = ("Measures only its own processes (wall clock, getrusage CPU time "
          "and peak RSS of each child); no hardware counters, no cache "
          "dropping, no CPU pinning; the machine may be shared with other "
          "work.")


class BenchError(RuntimeError):
    pass


def quartiles(values) -> dict:
    vals = sorted(values)
    q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                   else vals * 3)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals)}


def run_child(args, mode, work_dir, deadline, trace_file=None) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--work-dir", str(work_dir)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child passed the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, work_dir, deadline) -> tuple[list, list]:
    """Passes while another fits in --seconds, with set-up probes (untraced
    runs only) half before and half after them, so that the set-up median
    spans the run.  Returns (setup reports, pass reports); in trace mode
    passes alternate untraced and traced."""
    def probes(n):
        return [] if args.trace else [
            run_child(args, "setup", work_dir, deadline) for _ in range(n)]

    start = time.monotonic()
    setups = probes(SETUP_PROBES // 2)
    passes, lengths = [], []
    while True:
        t0 = time.monotonic()
        passes.append(run_child(args, "pass", work_dir, deadline))
        if args.trace:
            trace_file = work_dir / f"trace-{len(passes)}.jsonl"
            rep = run_child(args, "pass", work_dir, deadline, trace_file)
            rep["layers"] = tracing.layer_metrics(*tracing.read(trace_file))
            shutil.copy(trace_file,
                        WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            rep["traced"] = True
            passes.append(rep)
        lengths.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(lengths) > args.seconds:
            return setups + probes(SETUP_PROBES - SETUP_PROBES // 2), passes


def provenance(child: dict) -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True)
            return int(out.stdout) if out.returncode == 0 else None
        except (OSError, ValueError):
            return None

    rev = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            rev = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            pass
    return {"nproc": os.cpu_count(),
            "nproc_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **child["provenance"],
            "git_rev": rev, "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "limits": LIMITS}


def summarize(args, spec, setups, passes) -> tuple[dict, dict]:
    untraced = [p for p in passes if not p.get("traced")]
    traced = [p for p in passes if p.get("traced")]
    n_ops = len(workloads.ops(args.workload, args.smoke))
    first = passes[0]["digests"]
    failures = sorted({f for p in passes for f in p["failures"]})
    failed = sum(len(p["failed_ops"]) for p in passes)
    for i, p in enumerate(passes):
        for op, digest in p["digests"].items():
            if digest != first[op] and op not in p["failed_ops"]:
                failed += 1
                failures.append(f"{op}: output digest of pass {i} differs "
                                f"from pass 0")
    attempted = n_ops * len(passes)
    stats = {
        "wall_s": quartiles([p["wall_s"] for p in untraced]),
        "cpu_s": quartiles([p["cpu_s"] for p in untraced]),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in untraced]),
        "setup_s": quartiles([p["setup_s"] for p in setups + untraced]),
    }
    if args.trace:
        layers = {m["name"]: statistics.median(p["layers"].get(m["name"], 0.0)
                                               for p in traced)
                  for m in spec["per_layer"]}
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - stats["wall_s"]["median"])
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": stats[m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "closed_loop": "single process, --workers 1, one op at a time",
        "passes": len(untraced), "traced_passes": len(traced),
        "setup_samples": stats["setup_s"]["n"], "stats": stats,
        "fail_frac": failed / attempted, "failures": failures[:20],
        "digests": first,
        "untraced_targets": passes[-1].get("untraced_targets", []),
        "provenance": provenance(passes[0]),
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return details, result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not ((ROOT / "src" / "adicop" / "cli.py").is_file()
            and spec_path.is_file()):
        print("error: run from a checkout holding src/adicop and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setups, passes = measure(args, work_dir, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    details, result = summarize(args, spec, setups, passes)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
