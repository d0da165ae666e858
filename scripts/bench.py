#!/usr/bin/env python3
"""Run the benchmark and keep its result lines as BENCH_<tag>.json.

    python3 scripts/bench.py --tag TAG --workloads W [W ...] --seeds N [N ...]
                             [--checkout NAME=DIR ...]

Each run is `perfbench/run.py --workload W --seed N --seconds S --trace 0`
started in a checkout (by default this one), with S the `run_seconds` of
BENCHMARK.json.  With several checkouts, say a parent commit and a change,
each (seed, workload) runs once in every checkout, in an order that
alternates from one seed to the next.  The file holds, per checkout, its
git commit, the git tree of its src/, whether it had uncommitted changes
and whether cached bytecode (*.pyc) lay under its src/; the value of
PYTHONDONTWRITEBYTECODE; per run, the checkout, workload and seed, the
1-minute load average just before the run (`load1`), and the details line
and the result line of perfbench/run.py; and per workload and checkout the
median of each metric over the runs.  A load1 near or above the core count
marks a run made while other work shared the machine.

A checkout with cached bytecode skips compiling src/ at start-up, so
checkouts that differ in it are not comparable on setup_s; the script warns
on stderr when they do.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
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


def bench(checkout, workload, seed) -> dict:
    """One run's record: the load before it, its details and result lines."""
    load1 = os.getloadavg()[0]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    details, result = proc.stdout.splitlines()[-2:]
    return {"load1": load1, "details": json.loads(details),
            "result": json.loads(result)}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--checkout", action="append", metavar="NAME=DIR")
    args = p.parse_args()
    checkouts = [c.split("=", 1) for c in args.checkout or [f"this={ROOT}"]]
    revisions = {name: {"commit": git(path, "rev-parse", "HEAD"),
                        "src_tree": git(path, "rev-parse", "HEAD:src"),
                        "dirty": bool(git(path, "status", "--porcelain")),
                        "cached_bytecode": cached_bytecode(path)}
                 for name, path in checkouts}
    warn_bytecode(revisions)
    runs = []
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads:
            for name, path in checkouts[::-1] if i % 2 else checkouts:
                run = {"checkout": name, "workload": workload, "seed": seed,
                       **bench(path, workload, seed)}
                runs.append(run)
                print(f"{workload} seed {seed} {name}: correct "
                      f"{run['result']['correct']}", file=sys.stderr)
    medians = {w: {name: {m: statistics.median(
                       r["result"]["metrics"][m]["value"] for r in runs
                       if r["workload"] == w and r["checkout"] == name)
                          for m in runs[0]["result"]["metrics"]}
                   for name, _ in checkouts}
               for w in args.workloads}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({
        "tag": args.tag, "seconds": SECONDS, "checkouts": revisions,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "medians": medians, "runs": runs}, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
