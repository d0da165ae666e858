"""Command-line experiment runner.

Subcommands bind the samplers, metrics and estimators into the standard
experiments: `oracle` (exhaustive small-depth self-checks), `scaling`
(entropy growth curves with a growth-class verdict), `classify` (periodic
type of a named measure) and `entropy` (one ad-hoc estimate).

Reproducibility: every run is driven by a root seed (flag, config file or
the ADICOP_SEED environment variable).  Work is cut into a fixed number of
shards: scaling and entropy run the library's `entropy.scaling_curve`,
whose `measures.draw_sharded` draws shard s from a generator seeded
`seed XOR s`, and classify gives each (k, shard) a generator spawned from
`default_rng(seed)`.  Workers only set the parallelism and shards are
joined in a fixed order, so outputs are byte-identical for any worker
count.  Output files echo the full config in their header.

Exit codes: 0 pass, 1 check failure, 2 usage error (a malformed command
line or config file, bad input reported before any sampling starts, or an
unreadable or unwritable file), 3 internal error (any other exception,
reported on one line).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np

from . import coding, dyadic, filtration, graph, measures
from .entropy import (EntropyCurve, asymp_compare, curve_sampler,
                      scaling_curve, sigma_target_d, sigma_target_z)
from .measures import run_shards

SEED_ENV = "ADICOP_SEED"


@functools.cache
def version_string() -> str:
    """`git describe` of the package checkout, run once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, cwd=os.path.dirname(__file__))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


class UsageError(ValueError):
    pass


def parse_sigma(text: str) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise UsageError(f"sigma must be a nonempty bit string, got {text!r}")
    return tuple(int(c) for c in text)


def parse_list(text: str, kind) -> list:
    try:
        return [kind(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"expected a list of {kind.__name__}s, got {text!r}")


def load_config(path: str) -> list[str]:
    """Flat `key = value` lines of UTF-8 text as `--key=value` flags; blank
    lines and # comments ignored."""
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as e:
            raise UsageError(f"{path}: not UTF-8 text ({e.reason})") from None
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, val = line.split("=", 1)
        out.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return out


def config_header(cfg: dict) -> list[str]:
    lines = [f"version = {version_string()}"]
    lines += [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    return lines


def emit_json(payload: dict, cfg: dict, out_path: str | None) -> None:
    """The payload with its config and version, as JSON on stdout and out_path."""
    text = json.dumps({**payload, "config": cfg, "version": version_string()},
                      indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# oracle

def _check_group_laws():
    n = 6
    for a in range(1 << n):
        if dyadic.add(a, a) != 0 or dyadic.add(a, 0) != a:
            return f"group law fails at {a}"
        if dyadic.tau_inv(dyadic.tau(a)) != a:
            return f"tau roundtrip fails at {a}"
    return None


def _probe_paths(depth):
    """One path per edge value a into the label 0, 1, ..., 2**depth - 1.  psi,
    psi_inv, kappa and diag read a label through an index map fixed by a and
    g; its distinct values expose that map, so it stands for every label."""
    top = graph.Vertex(depth, np.arange(1 << depth))
    return [graph.PathPrefix.from_value(top, a) for a in range(1 << depth)]


def _check_psi_bijection(depth):
    # a left inverse makes psi injective: a bijection onto its images
    for x in _probe_paths(depth):
        if coding.psi_inv(coding.psi(x)) != x:
            return f"psi roundtrip fails at a={x.a}"
    return None


def _check_group_diagram(depth):
    for x in _probe_paths(depth):
        p = coding.psi(x)
        for g in range(1 << depth):
            if coding.psi(graph.kappa(g, x)) != coding.diag(g, p):
                return f"group diagram fails at a={x.a}, g={g}"
    return None


def _check_adic_diagram(seed=0, n_points=100, res=8, L=6):
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        w = rng.integers(0, 2, 1 << res).astype(np.uint8)
        # digit values L away from both ends resolve both windows
        a = graph.alpha_digits(int(rng.integers(L, (1 << res) - 1 - L)), res)
        p = coding.CodedPoint(w, a)
        win = coding.lambda_window(p, L)
        win_next = coding.lambda_window(coding.adic_on_coded(p), L)
        if not np.array_equal(win.shift().bits, win_next.bits[:2 * L]):
            return f"adic diagram fails at alpha={a}"
    return None


def _check_adic_order(depth):
    top = graph.Vertex(depth, np.zeros(1 << depth, dtype=np.uint8))
    for v in range((1 << depth) - 1):
        x = graph.PathPrefix(top, graph.alpha_digits(v, depth))
        if graph.reverse_lex_key(graph.adic_successor(x)) != v + 1:
            return f"successor is not +1 in reverse-lex order at {v}"
    return None


def _check_kappa_orbits(depth):
    # orbit structure only depends on alpha; one path suffices
    x = _probe_paths(depth)[0]
    if len({graph.kappa(g, x).alpha for g in range(1 << depth)}) != 1 << depth:
        return f"kappa orbit degenerate at depth {depth}"
    return None


def _check_kantorovich_oracle(seed=0):
    rng = np.random.default_rng(seed)

    class L1(filtration.Semimetric):
        def dist(self, x, y):  # left to right, as numpy sums three floats
            return abs(x[0] - y[0]) + abs(x[1] - y[1]) + abs(x[2] - y[2])

    for n in (1, 2, 3):
        for _ in range(3):
            t1 = filtration.OrbitTree(n, [rng.random(3).tolist() for _ in range(1 << n)])
            t2 = filtration.OrbitTree(n, [rng.random(3).tolist() for _ in range(1 << n)])
            dp = filtration.kantorovich(L1(), t1, t2)
            bf = filtration.kantorovich_bruteforce(L1(), t1, t2)
            if abs(dp - bf) > 1e-12:
                return f"recursion != brute force at n={n}: {dp} vs {bf}"
    return None


def _check_orbit_sizes():
    for m, want in enumerate((2, 4, 32, 2048), 1):
        got = filtration.max_orbit_size(m, 2)
        if got != want:
            return f"maximal orbit size at m={m} is {got}, expected {want}"
    return None


def cmd_oracle(args, cfg) -> int:
    """Exhaustive small-depth self-checks."""
    checks = [
        ("group-laws", _check_group_laws, ()),
        ("psi-bijection", _check_psi_bijection, (args.depth,)),
        ("group-action-diagram", _check_group_diagram, (args.depth,)),
        ("adic-diagram", _check_adic_diagram, (args.seed,)),
        ("adic-order", _check_adic_order, (args.depth,)),
        ("kappa-orbits", _check_kappa_orbits, (args.depth,)),
        ("kantorovich-bruteforce", _check_kantorovich_oracle, (args.seed,)),
        ("orbit-sizes", _check_orbit_sizes, ()),
    ]
    results = run_shards(lambda name, fn, a: (name, fn(*a)),
                         checks, args.workers)
    failures = {name: msg for name, msg in results if msg}
    emit_json({"checks": {name: ("fail" if msg else "pass")
                          for name, msg in results},
               "failures": failures}, cfg, args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# scaling

def sharded_curve(args, sigma, scales, eps_grid, k: int = 0) -> EntropyCurve:
    """The library's curve on the sampler `entropy.curve_sampler` builds;
    a request it refuses is a usage error."""
    try:
        sampler = curve_sampler(args.mode, sigma, scales, eps_grid,
                                args.samples, k)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return scaling_curve(args.mode, sampler, scales, eps_grid, args.samples,
                         args.seed, k, args.workers)


def cmd_scaling(args, cfg) -> int:
    """Entropy growth curve and its growth-class verdict."""
    sigma = parse_sigma(args.sigma)
    scales = parse_list(args.scales, int)
    eps_grid = parse_list(args.eps, float)
    if len(scales) < 2 or any(a >= b for a, b in zip(scales, scales[1:])):
        raise UsageError("scaling needs at least 2 strictly increasing scales"
                         f", got {args.scales!r}")
    curve = sharded_curve(args, sigma, scales, eps_grid, args.k)
    target = (sigma_target_z if args.mode == "z" else sigma_target_d)(
        sigma, scales)
    verdicts = {str(eps): asymp_compare(curve.bits(eps), target)
                for eps in eps_grid}
    if args.out:
        curve.to_csv(args.out, header_lines=config_header(cfg))
    emit_json({"verdicts": verdicts,
               "targets": {str(eps): target for eps in eps_grid}}, cfg, None)
    return 0 if all(v["pass"] for v in verdicts.values()) else 1


# ---------------------------------------------------------------------------
# classify

PERIOD8_WORD = (0, 0, 0, 1, 0, 1, 1, 1)


def _spec_params(toks, keys) -> dict:
    """A measure spec's key=value tokens; refuses others and repeated keys."""
    params = {}
    for t in toks:
        key, eq, value = t.partition("=")
        if not eq or key not in keys:
            raise ValueError(f"unknown token {t!r}")
        if key in params:
            raise ValueError(f"repeated key {key!r}")
        params[key] = value
    return params


def build_sampler(spec: str, M: int):
    """The sampler a measure spec names; a malformed spec raises UsageError."""
    toks = spec.split()
    kind = toks[0] if toks else ""
    try:
        if kind == "product" and len(toks) == 3 and toks[1] == "bernoulli":
            p = float(toks[2])
            return measures.ProductSampler(measures.BernoulliBase(p), M)
        if kind == "periodic":
            # "periodN" is short for period=N
            params = _spec_params([f"period={t[6:]}" if t[:6] == "period"
                                   and t[6:].isdigit() else t
                                   for t in toks[1:]], ("k", "period"))
            k = int(params.get("k", 1))
            if not 0 <= k <= M:
                raise ValueError(f"k must lie in [0, M = {M}], got {k}")
            period = int(params.get("period", 1 << k))
            if not 1 <= period <= 1 << dyadic.N_MAX:
                raise ValueError(f"period must lie in [1, 2**{dyadic.N_MAX}]"
                                 f", got {period}")
            step = math.gcd(1 << k, period)
            base = measures.AtomicBase(np.resize(PERIOD8_WORD, period),
                                       np.arange(0, period, step))
            return measures.PeriodicTypeSampler(k, base, M)
        if kind == "aperiodic" and toks[1:2] == ["toeplitz"]:
            params = _spec_params(toks[2:], ("alpha",))
            alpha = [int(c) for c in params.get("alpha", "0000")]
            base = measures.ToeplitzBase()
            levels = measures.OdometerLevels(base.R)
            return measures.make_aperiodic(base, levels, alpha)
    except ValueError as e:
        raise UsageError(f"bad measure spec {spec!r}: {e}") from None
    raise UsageError(f"unknown measure spec {spec!r}")


def cmd_classify(args, cfg) -> int:
    """Periodic type of a named measure."""
    sampler = build_sampler(args.spec, args.M)
    if not 0 <= args.kmax < sampler.M:
        raise UsageError(f"kmax must lie in [0, {sampler.M - 1}], below the "
                         f"{sampler.M} digits the spec resolves; "
                         f"got {args.kmax}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"tol must be finite and nonnegative, got {args.tol}")
    report = measures.classify_periodic_type(
        sampler, args.kmax, args.cyl_len, args.n_accept, args.tol,
        np.random.default_rng(args.seed), args.workers)
    emit_json({**report, "seed": args.seed}, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# entropy (ad-hoc single estimate)

def cmd_entropy(args, cfg) -> int:
    """One ad-hoc entropy estimate."""
    sigma = parse_sigma(args.sigma)
    eps_grid = parse_list(args.eps, float)
    if len(eps_grid) != 1:
        raise UsageError(f"entropy takes a single eps, got {args.eps!r}")
    curve = sharded_curve(args, sigma, [args.scale], eps_grid)
    emit_json({"bits": curve.bits()[0], "eps": eps_grid[0],
               "scale": args.scale, "mode": args.mode}, cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

class Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError, not SystemExit."""

    def error(self, message):
        raise UsageError(message)


# every option but --config, --seed and --out, typed as its default
DEFAULTS = {
    "common": {"workers": 1},
    "oracle": {"depth": 4},
    "scaling": {"mode": "d", "sigma": "11111111", "k": 1, "eps": "0.25",
                "samples": 2000, "scales": "2 3 4 5 6"},
    "classify": {"spec": "product bernoulli 0.5", "kmax": 4, "tol": 0.03,
                 "cyl_len": 6, "n_accept": 100000, "M": 8},
    "entropy": {"mode": "d", "sigma": "11111111", "scale": 5, "eps": "0.25",
                "samples": 2000},
}
MODES = {"scaling": ["z", "d", "filtration"], "entropy": ["z", "d"]}
# (least, greatest or None) of the integer options, checked before any work;
# digit values alpha < 2**M are int64 draws, and the cylinder table has
# 2**cyl_len cells
RANGES = {"seed": (0, None), "workers": (1, None),
          "depth": (0, graph.EXHAUSTIVE_DEPTH), "n_accept": (1, None),
          "M": (1, 62), "cyl_len": (1, 20)}
COMMANDS = {"oracle": cmd_oracle, "scaling": cmd_scaling,
            "classify": cmd_classify, "entropy": cmd_entropy}


def build_parser() -> argparse.ArgumentParser:
    top = Parser(prog="adicop")
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        # no abbreviations: a config key must name its option in full
        p = sub.add_parser(name, help=cmd.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        # a string default passes through type=int like a flag value
        p.add_argument("--seed", type=int,
                       default=os.environ.get(SEED_ENV, "0"))
        p.add_argument("--out")
        for key, val in {**DEFAULTS["common"], **DEFAULTS[name]}.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(val),
                           default=val,
                           choices=MODES[name] if key == "mode" else None)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file entries are flags placed before the command line's own,
            # which therefore win
            args = parser.parse_args(argv[:1] + load_config(args.config)
                                     + argv[1:])
        for key, (lo, hi) in RANGES.items():
            val = getattr(args, key, lo)
            if val < lo or hi is not None and val > hi:
                raise UsageError(f"{key.replace('_', '-')} must " + (
                    f"be at least {lo}" if hi is None
                    else f"lie in [{lo}, {hi}]") + f", got {val}")
        # workers sets parallelism only and must not alter output bytes
        cfg = {key: val for key, val in vars(args).items()
               if key not in ("config", "out", "workers")}
        return COMMANDS[args.command](args, cfg)
    except (UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash, kept apart from check failures
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
