"""One pass of a workload in a fresh process, so that its peak resident
memory and its set-up cost are its own.

    python3 perfbench/child.py --workload NAME --seed N --mode {setup,pass}
                               --work-dir DIR [--trace-file PATH] [--smoke]

Set-up is the import of adicop.cli (with numpy) plus the construction of
the workload's samplers, without drawing.  In `pass` mode the ops follow;
each is timed around its call only, with the correctness gate applied
outside the timed region.  The process prints one JSON line and exits 0,
or exits non-zero when adicop cannot be imported from the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads(numpy):
    """Threads the bundled OpenBLAS runs with, or None if not found."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _provenance(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy),
            "blas_thread_env": {k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def run_op(op, seed, work_dir, cli, filtration, smoke):
    """Run one op; returns (wall_s, cpu_s, output text, failures)."""
    if not op.argv:
        w0, c0 = time.perf_counter(), _cpu_s()
        anchors = workloads.orbit_anchors(filtration, seed, smoke)
        wall, cpu = time.perf_counter() - w0, _cpu_s() - c0
        return wall, cpu, repr(anchors), workloads.check_anchors(anchors)
    out_path = work_dir / f"{op.name}.out"
    argv = [*op.argv, "--seed", str(seed), "--workers", "1",
            "--out", str(out_path)]
    buf = io.StringIO()
    w0, c0 = time.perf_counter(), _cpu_s()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall, cpu = time.perf_counter() - w0, _cpu_s() - c0
    out_text = out_path.read_text() if out_path.exists() else ""
    out_path.unlink(missing_ok=True)
    fails = workloads.check_cli(op, seed, code, buf.getvalue(), out_text,
                                ROOT / "results")
    text = f"{buf.getvalue()}\n--out--\n{out_text}"
    return wall, cpu, text, fails


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "pass"))
    p.add_argument("--work-dir", required=True, type=Path)
    p.add_argument("--trace-file", type=Path)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from adicop import cli, dyadic, filtration, measures
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"adicop imported from {cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 3
    workloads.build_samplers(args.workload, args.smoke, cli, measures, dyadic)
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s}
    if args.mode == "pass":
        tracer = None
        if args.trace_file:
            import tracing
            tracer = tracing.Tracer()
            report["untraced_targets"] = tracing.install(tracer)
        wall = cpu = 0.0
        digests, failures, failed_ops = {}, [], []
        for op in workloads.ops(args.workload, args.smoke):
            try:
                w, c, text, fails = run_op(op, args.seed, args.work_dir, cli,
                                           filtration, args.smoke)
            except Exception as e:  # an op that raises is a failed op
                w, c, text = 0.0, 0.0, ""
                fails = [f"{op.name}: {type(e).__name__}: {e}"]
            wall += w
            cpu += c
            digests[op.name] = workloads.sha256(workloads.strip_version(text))
            failures += fails
            if fails:
                failed_ops.append(op.name)
        report.update(wall_s=wall, cpu_s=cpu, digests=digests,
                      failures=failures, failed_ops=failed_ops)
        if tracer:
            tracer.write(args.trace_file, {"workload": args.workload,
                                           "seed": args.seed})
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    report["provenance"] = _provenance(numpy)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
