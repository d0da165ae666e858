"""Smoke tests of the benchmark: every workload at tiny sizes, through the
correctness gate and the trace writer, in a few seconds each.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace, seed=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke(workload):
    details, result = smoke(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details["untraced_targets"] == []
    trace = ROOT / ".bench_work" / f"trace-{workload}-seed0.jsonl"
    spans, micro = tracing.read(trace)
    assert spans and all(s["end"] >= s["start"] and s["self"] >= 0
                         for s in spans)
    layers = {m: v["value"] for m, v in result["metrics"].items()}
    if workload.startswith("growth"):
        assert layers["entropy.greedy_cover.calls"] > 0
    if workload == "classify-zoo":
        assert layers["measures.project_theta.calls"] > 0
        assert all(v == 0 for m, v in layers.items()
                   if m.startswith("entropy."))
    if workload == "exact-structure":
        assert layers["coding.psi.calls"] > 0
        assert {"coding.psi", "dyadic.tau"} <= set(micro)


def test_untraced_smoke_reports_every_end_to_end_metric():
    details, result = smoke("growth-d", trace=0, seed=3)
    assert result["correct"], details["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["provenance"]["limits"]
    assert details["stats"]["setup_s"]["n"] >= 2


def test_digests_repeat_across_runs():
    a, _ = smoke("exact-structure", trace=0, seed=5)
    b, _ = smoke("exact-structure", trace=0, seed=5)
    assert a["digests"] == b["digests"]


def test_strip_version_keeps_everything_else():
    csv = "# version = abc-dirty\n# seed = 0\nscale,bits\n"
    js = '{\n  "verdict": 0,\n  "version": "abc"\n}\n'
    assert workloads.strip_version(csv) == "# seed = 0\nscale,bits\n"
    assert workloads.strip_version(js) == '{\n  "verdict": 0,\n}\n'


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: sum(range(100000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    layers = tracing.layer_metrics(tracer.spans, {})
    total = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    assert layers["inner.calls"] == 2
    assert layers["outer.s"] + layers["inner.s"] == pytest.approx(total)
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "growth-d", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
