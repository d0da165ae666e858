"""Per-layer tracing of adicop, applied from outside the package.

`install` replaces public functions and methods of the adicop modules with
timing wrappers, in every module that holds a reference to them (so names
re-imported into `cli` or `filtration` are traced too).  Two kinds of
wrapper exist:

* a span records name, start, end, parent and the counters its layer
  defines; spans stay in memory until `Tracer.write` dumps them as JSON
  lines at the end of a pass;
* a micro wrapper, for hot functions of the exhaustive oracle (tens of
  thousands of calls per pass), only adds its self time and call count to
  one running total per name.

A span's self time is its duration minus the time of its children, micro
calls included.  The tracer assumes one thread, which holds because the
benchmark runs every op with `--workers 1`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from functools import partial, update_wrapper


def _greedy(balls, D, eps, *_, **__):
    n = D.shape[0]
    return {"balls": balls, "saturated": int(balls >= n - math.floor(eps * n))}


def _pair_matrix(D, fm, *_, **__):
    return {"bytes_computed": D.nbytes}


def _dedup(out, fm, *_, **__):
    return {"cols_in": fm.X.shape[1], "cols_out": out.X.shape[1]}


def _project_theta(result, sampler, k, r, L, n_accept, *_, **__):
    return {"kept": n_accept, "drawn": n_accept / result[1]}


def _rows(result, sampler, n, *_, **__):
    return {"rows": n}


def _pairs(result, sym1, *_, **__):
    return {"pairs": sym1.shape[0]}


# (module, attribute or Class.method, layer name, counters or None)
SPANS = [
    ("entropy", "greedy_cover_count", "entropy.greedy_cover", _greedy),
    ("entropy", "FeatureMetric.pair_matrix", "entropy.pair_matrix", _pair_matrix),
    ("entropy", "FeatureMetric.dedup", "entropy.dedup", _dedup),
    ("entropy", "feature_entropy_bits", "entropy.feature_entropy", None),
    ("entropy", "group_feature_metric", "entropy.feature_metric", None),
    ("entropy", "z_feature_metric", "entropy.feature_metric", None),
    ("entropy", "z_aligned_metric", "entropy.feature_metric", None),
    ("entropy", "EntropyCurve.to_csv", "cli.emit", None),
    ("measures", "project_theta", "measures.project_theta", _project_theta),
    ("measures", "pack_words", "measures.pack_words", None),
    ("measures", "MSigmaSampler.draw_w", "measures.draw_w", _rows),
    ("measures", "OmegaSigmaSampler.draw", "measures.sampler_draw", _rows),
    ("measures", "ProductSampler.draw", "measures.sampler_draw", _rows),
    ("measures", "PeriodicTypeSampler.draw", "measures.sampler_draw", _rows),
    ("measures", "AperiodicSampler.draw", "measures.sampler_draw", _rows),
    ("measures", "MSigmaSampler.__init__", "measures.sampler_init", None),
    ("measures", "OmegaSigmaSampler.__init__", "measures.sampler_init", None),
    ("measures", "ProductSampler.__init__", "measures.sampler_init", None),
    ("measures", "PeriodicTypeSampler.__init__", "measures.sampler_init", None),
    ("measures", "AperiodicSampler.__init__", "measures.sampler_init", None),
    ("filtration", "reduce_symbols", "filtration.reduce_symbols", None),
    ("filtration", "_split_entropy_bits", "filtration.split_entropy", None),
    ("filtration", "pairwise_dist_matrix", "filtration.pairwise_dist_matrix", None),
    ("filtration", "kantorovich_pairs", "filtration.kantorovich_pairs", _pairs),
    ("filtration", "kantorovich", "filtration.kantorovich", None),
    ("filtration", "max_orbit_size", "filtration.max_orbit_size", None),
    ("filtration", "lemma17_entropy_exact", "filtration.lemma17", None),
    ("filtration", "lemma17_entropy_estimate", "filtration.lemma17", None),
    ("cli", "main", "cli.main", None),
    ("cli", "run_shards", "cli.run_shards", None),
    ("cli", "emit_json", "cli.emit", None),
    ("cli", "version_string", "cli.version_string", None),
]

MICROS = [
    ("coding", "psi", "coding.psi"),
    ("coding", "diag", "coding.diag"),
    ("coding", "adic_on_coded", "coding.adic_on_coded"),
    ("graph", "kappa", "graph.kappa"),
    ("graph", "adic_successor", "graph.adic_successor"),
    ("dyadic", "tau", "dyadic.tau"),
]

# the exhaustive self-checks of `adicop oracle`, found by name prefix
ORACLE_CHECK_PREFIX = "_check_"


class Tracer:
    def __init__(self):
        self.spans = []
        self.micro = defaultdict(lambda: [0.0, 0])   # name -> [self_s, calls]
        self._stack = []   # open frames: [id of the enclosing span, child_s]

    def span(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name,
                   "parent": stack[-1][0] if stack else None}
            spans.append(rec)
            frame = [rec["id"], 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                rec.update(start=start, end=end, self=end - start - frame[1])
            if counters:
                rec.update(counters(result, *args, **kwargs))
            return result

        return update_wrapper(wrapper, fn)

    def micro_total(self, name, fn):
        stack, total = self._stack, self.micro[name]

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0] if stack else None, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                total[0] += dur - frame[1]
                total[1] += 1

        return update_wrapper(wrapper, fn)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"type": "meta", **meta}) + "\n")
            for rec in self.spans:
                f.write(json.dumps({"type": "span", **rec}) + "\n")
            for name, (self_s, calls) in sorted(self.micro.items()):
                f.write(json.dumps({"type": "micro", "name": name,
                                    "self": self_s, "calls": calls}) + "\n")


def _replace_everywhere(original, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "adicop" or name.startswith("adicop."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; returns the targets not found, which a
    renamed function leaves untraced."""
    cli = sys.modules["adicop.cli"]
    checks = [("cli", name, "cli.oracle_check", None) for name in vars(cli)
              if name.startswith(ORACLE_CHECK_PREFIX)]
    targets = [(m, a, partial(tracer.span, n, counters=c))
               for m, a, n, c in SPANS + checks]
    targets += [(m, a, partial(tracer.micro_total, n)) for m, a, n in MICROS]
    missing = []
    for mod_name, attr, wrap in targets:
        mod = sys.modules.get(f"adicop.{mod_name}")
        cls_name, _, meth = attr.rpartition(".")
        cls = getattr(mod, cls_name, None) if cls_name else None
        original = (vars(cls).get(meth) if cls is not None
                    else getattr(mod, attr, None))
        if not callable(original):
            missing.append(f"{mod_name}.{attr}")
        elif cls is not None:
            setattr(cls, meth, wrap(original))
        else:
            _replace_everywhere(original, wrap(original))
    return missing


def read(path) -> tuple[list, dict]:
    spans, micro = [], {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "span":
                spans.append(rec)
            elif rec["type"] == "micro":
                micro[rec["name"]] = rec
    return spans, micro


def layer_metrics(spans, micro) -> dict:
    """Per-layer totals of one traced pass: `<layer>.s` (self time),
    `<layer>.calls` and the sum of each counter, plus the θ-projection
    acceptance ratio."""
    out = defaultdict(float)
    for rec in spans:
        name = rec["name"]
        out[f"{name}.s"] += rec["self"]
        out[f"{name}.calls"] += 1
        for key, val in rec.items():
            if key not in ("type", "id", "name", "parent", "start", "end",
                           "self"):
                out[f"{name}.{key}"] += val
    for name, rec in micro.items():
        out[f"{name}.s"] += rec["self"]
        out[f"{name}.calls"] += rec["calls"]
    drawn = out.pop("measures.project_theta.drawn", 0.0)
    kept = out.pop("measures.project_theta.kept", 0.0)
    out["measures.project_theta.accept_ratio"] = kept / drawn if drawn else 0.0
    return dict(out)
