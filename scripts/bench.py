#!/usr/bin/env python3
"""Run the benchmark and keep its result lines as BENCH_<tag>.json.

    python3 scripts/bench.py --tag TAG --workloads W [W ...] --seeds N [N ...]
                             [--checkout NAME=DIR ...] [--trace {0,1}]

Each run is `perfbench/run.py --workload W --seed N --seconds S --trace T`
started in a checkout (by default this one), with S the `run_seconds` of
BENCHMARK.json and T the --trace flag (default 0): with 0 the metrics are
the end-to-end ones, with 1 the per-layer ones, such as
entropy.greedy_cover.s.  With several checkouts, say a parent commit and a
change, each (seed, workload) runs once in every checkout, in an order
that alternates from one seed to the next.  The file holds the --trace
flag; per checkout, its git commit, the git trees of its src/, tests/ and
perfbench/, whether it had uncommitted changes and whether cached bytecode
(*.pyc) lay under its src/; the values of PYTHONDONTWRITEBYTECODE and
OPENBLAS_NUM_THREADS, None when unset (unless the latter is 1, idle
OpenBLAS threads spin and add to cpu_s); per run, the checkout, workload
and seed, the 1-minute load average just before the run (`load1`), and
the details line and the result line of perfbench/run.py; and per
workload and checkout the median of each metric over the runs.  A load1
near or above the core count marks a run made while other work shared the
machine.

With two or more checkouts the second is paired with the first by seed:
per workload and metric, the file keeps under "paired" (and the script
prints) the median of the per-seed ratios second / first, its inclusive
quartiles, and the count of pairs in which the second reads lower.  Seeds
where the first reads 0 give no ratio; they are counted, and a metric that
the second reads nonzero there is flagged.

A checkout with cached bytecode skips compiling src/ at start-up, so
checkouts that differ in it are not comparable on setup_s; the script warns
on stderr when they do.

When the checkouts' tests/ or perfbench/ trees differ, the Tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` with the checkout's
src/ on PYTHONPATH) then runs once in each checkout, after every benchmark
run, and the file keeps under "tier1" per checkout the load before it, its
wall time, its exit status and pytest's summary line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def cached_bytecode(checkout) -> bool:
    """Whether any *.pyc lies under the checkout's src/."""
    return any((Path(checkout) / "src").rglob("*.pyc"))


def warn_bytecode(revisions):
    """Warn on stderr when some checkouts hold cached bytecode and others
    do not."""
    cached = [name for name, r in revisions.items() if r["cached_bytecode"]]
    if 0 < len(cached) < len(revisions):
        print(f"warning: only {', '.join(cached)} of the checkouts cached "
              "bytecode under src/, so setup_s is not comparable across them",
              file=sys.stderr)


def bench(checkout, workload, seed, trace) -> dict:
    """One run's record: the load before it, its details and result lines."""
    load1 = os.getloadavg()[0]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    details, result = proc.stdout.splitlines()[-2:]
    return {"load1": load1, "details": json.loads(details),
            "result": json.loads(result)}


def tier1(checkout) -> dict:
    """One timed run of the checkout's Tier-1 suite: the load before it,
    its wall time, exit status and summary line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(checkout) / "src"), env.get("PYTHONPATH")) if p)
    load1, start = os.getloadavg()[0], time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"load1": load1, "wall_s": time.perf_counter() - start,
            "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def paired(runs, first, second, workloads) -> dict:
    """Per workload and metric, the per-seed ratios second / first: their
    median and inclusive quartiles (None when no seed has one), and how
    many pairs read lower on the second checkout.  A seed whose first value
    is 0 (a traced count that never fired) has no ratio: such seeds are
    counted under "zero_first", and those of them where the second checkout
    reads nonzero under "rose_from_zero", with a line printed for them."""
    out = {}
    for w in workloads:
        metrics = {(r["checkout"], r["seed"]): r["result"]["metrics"]
                   for r in runs if r["workload"] == w}
        seeds = sorted({seed for name, seed in metrics if name == first})
        out[w] = {}
        for m in metrics[first, seeds[0]]:
            values = [(metrics[first, s][m]["value"],
                       metrics[second, s][m]["value"]) for s in seeds]
            pairs = [(a, b) for a, b in values if a]
            ratios = [b / a for a, b in pairs]
            q1, q2, q3 = (statistics.quantiles(ratios, method="inclusive")
                          if len(ratios) > 1 else ratios * 3 or [None] * 3)
            out[w][m] = {"median": q2, "q1": q1, "q3": q3, "pairs": len(pairs),
                         "lower": sum(b < a for a, b in pairs)}
            if len(pairs) < len(values):
                rose = sum(not a and b != 0 for a, b in values)
                out[w][m].update(zero_first=len(values) - len(pairs),
                                 rose_from_zero=rose)
                if rose:
                    print(f"{w} {m}: {first} reads 0 and {second} nonzero "
                          f"in {rose} of {len(values)} seeds")
            if ratios:
                print(f"{w} {m}: {second}/{first} median {q2:.3f} "
                      f"[{q1:.3f}, {q3:.3f}], lower in {out[w][m]['lower']} "
                      f"of {len(pairs)}")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--checkout", action="append", metavar="NAME=DIR")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    checkouts = [c.split("=", 1) for c in args.checkout or [f"this={ROOT}"]]
    revisions = {name: {"commit": git(path, "rev-parse", "HEAD"),
                        **{f"{d}_tree": git(path, "rev-parse", f"HEAD:{d}")
                           for d in ("src", "tests", "perfbench")},
                        "dirty": bool(git(path, "status", "--porcelain")),
                        "cached_bytecode": cached_bytecode(path)}
                 for name, path in checkouts}
    warn_bytecode(revisions)
    runs = []
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads:
            for name, path in checkouts[::-1] if i % 2 else checkouts:
                run = {"checkout": name, "workload": workload, "seed": seed,
                       **bench(path, workload, seed, args.trace)}
                runs.append(run)
                print(f"{workload} seed {seed} {name}: correct "
                      f"{run['result']['correct']}", file=sys.stderr)
    # traced runs of different workloads report different layers
    first_run = {w: next(r for r in runs if r["workload"] == w)
                 for w in args.workloads}
    medians = {w: {name: {m: statistics.median(
                       r["result"]["metrics"][m]["value"] for r in runs
                       if r["workload"] == w and r["checkout"] == name)
                          for m in first_run[w]["result"]["metrics"]}
                   for name, _ in checkouts}
               for w in args.workloads}
    record = {
        "tag": args.tag, "seconds": SECONDS, "trace": args.trace,
        "checkouts": revisions,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "medians": medians}
    if len(checkouts) > 1:
        record["paired"] = paired(runs, checkouts[0][0], checkouts[1][0],
                                  args.workloads)
    if len({(r["tests_tree"], r["perfbench_tree"])
            for r in revisions.values()}) > 1:
        record["tier1"] = {name: tier1(path) for name, path in checkouts}
        for name, t in record["tier1"].items():
            print(f"tier-1 {name}: {t['wall_s']:.1f} s, {t['summary']}",
                  file=sys.stderr)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({**record, "runs": runs}, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
