"""Command-line experiment runner.

Subcommands bind the samplers, metrics and estimators into the standard
experiments: `oracle` (exhaustive small-depth self-checks), `scaling`
(entropy growth curves with a growth-class verdict), `classify` (periodic
type of a named measure) and `entropy` (one ad-hoc estimate).

Reproducibility: every run is driven by a root seed (flag, config file or
the ADICOP_SEED environment variable).  Work is cut into a fixed number of
shards, shard s drawing from a generator seeded `seed XOR s`; workers only
set the parallelism and aggregation is order-independent, so outputs are
byte-identical for any worker count.  Output files echo the full config in
their header.  Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import coding, dyadic, filtration, graph, measures
from .entropy import (DEFAULT_EPS_GRID, EntropyCurve, asymp_compare,
                      feature_entropy_bits, group_feature_metric,
                      sigma_target_d, sigma_target_z, z_aligned_metric,
                      z_feature_metric)

N_SHARDS = 4
SEED_ENV = "ADICOP_SEED"


def version_string() -> str:
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


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"expected a list of integers, got {text!r}")


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"expected a list of numbers, got {text!r}")


def parse_eps_list(text: str) -> list[float]:
    eps_grid = parse_float_list(text)
    if not eps_grid or not all(math.isfinite(e) and e > 0 for e in eps_grid):
        raise UsageError(f"eps must be finite and positive, got {text!r}")
    return eps_grid


def load_config(path: str) -> dict:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def shard_sizes(total: int) -> list[int]:
    base, rem = divmod(total, N_SHARDS)
    return [base + (1 if s < rem else 0) for s in range(N_SHARDS)]


def shard_seed(seed: int, shard: int) -> int:
    return seed ^ shard


def run_shards(fn, args_per_shard, workers: int):
    """Evaluate fn over shards, results in shard order regardless of
    scheduling."""
    if workers <= 1:
        return [fn(*a) for a in args_per_shard]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda a: fn(*a), args_per_shard))


def config_header(cfg: dict) -> list[str]:
    lines = [f"version = {version_string()}"]
    lines += [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    return lines


def emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
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


def _check_psi_bijection(depth):
    seen = set()
    for x in graph.iter_paths(depth):
        p = coding.psi(x)
        if coding.psi_inv(p) != x:
            return f"psi roundtrip fails at {x!r}"
        seen.add(p)
    want = (1 << (1 << depth)) * (1 << depth)
    if len(seen) != want:
        return f"psi not injective at depth {depth}: {len(seen)} != {want}"
    return None


def _check_group_diagram(depth):
    for x in graph.iter_paths(depth):
        for g in range(1 << depth):
            if coding.psi(graph.kappa(g, x)) != coding.diag(g, coding.psi(x)):
                return f"group diagram fails at {x!r}, g={g}"
    return None


def _check_adic_diagram(seed=0, n_points=100, res=8, L=6):
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        w = rng.integers(0, 2, 1 << res).astype(np.uint8)
        a = graph.alpha_digits(int(rng.integers(0, (1 << res) - 1)), res)
        p = coding.CodedPoint(w, a)
        try:
            win = coding.lambda_window(p, L)
            win_next = coding.lambda_window(coding.adic_on_coded(p), L)
        except dyadic.ResolutionError:
            continue
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
    for x in graph.iter_paths(depth):
        orbit = {graph.kappa(g, x).alpha for g in range(1 << depth)}
        if len(orbit) != 1 << depth:
            return f"kappa orbit degenerate at {x!r}"
        break  # orbit structure only depends on alpha; one path suffices
    return None


def _check_kantorovich_oracle(seed=0):
    rng = np.random.default_rng(seed)

    class L1(filtration.Semimetric):
        def dist(self, x, y):
            return float(np.abs(x - y).sum())

    for n in (1, 2, 3):
        for _ in range(3):
            t1 = filtration.OrbitTree(n, [rng.random(3) for _ in range(1 << n)])
            t2 = filtration.OrbitTree(n, [rng.random(3) for _ in range(1 << n)])
            dp = filtration.kantorovich(L1(), t1, t2)
            bf = filtration.kantorovich_bruteforce(L1(), t1, t2)
            if abs(dp - bf) > 1e-12:
                return f"recursion != brute force at n={n}: {dp} vs {bf}"
    return None


def _check_orbit_sizes():
    m2 = filtration.max_orbit_size(2, 2)
    if m2 != 4:
        return f"maximal orbit size at m=2 is {m2}, expected 4"
    m3 = filtration.max_orbit_size(3, 2)
    if m3 > 2 * m2 * m2:
        return f"orbit-size recursion bound violated: {m3} > {2 * m2 * m2}"
    return None


def cmd_oracle(args, cfg) -> int:
    depth = args.depth
    if depth > graph.EXHAUSTIVE_DEPTH:
        raise UsageError(
            f"exhaustive oracle limited to depth {graph.EXHAUSTIVE_DEPTH}")
    psi_depth = min(depth, 3)
    checks = [
        ("group-laws", _check_group_laws, ()),
        ("psi-bijection", _check_psi_bijection, (psi_depth,)),
        ("group-action-diagram", _check_group_diagram, (min(depth, 3),)),
        ("adic-diagram", _check_adic_diagram, (args.seed,)),
        ("adic-order", _check_adic_order, (depth,)),
        ("kappa-orbits", _check_kappa_orbits, (min(depth, 3),)),
        ("kantorovich-bruteforce", _check_kantorovich_oracle, (args.seed,)),
        ("orbit-sizes", _check_orbit_sizes, ()),
    ]
    results = run_shards(lambda name, fn, a: (name, fn(*a)),
                         checks, args.workers)
    failures = {name: msg for name, msg in results if msg}
    report = {"checks": {name: ("fail" if msg else "pass")
                         for name, msg in results},
              "failures": failures, "config": cfg,
              "version": version_string()}
    emit_json(report, args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# scaling

def _gather_w(sigma, N, samples, seed, workers):
    sampler = measures.MSigmaSampler(sigma, N)
    sizes = shard_sizes(samples)

    def draw(s, size):
        return sampler.draw_w(size, np.random.default_rng(shard_seed(seed, s)))

    parts = run_shards(draw, list(enumerate(sizes)), workers)
    return np.vstack(parts)


def _gather_omega(sigma, N, M, samples, seed, workers):
    sampler = measures.OmegaSigmaSampler(sigma, N, M)
    sizes = shard_sizes(samples)

    def draw(s, size):
        return sampler.draw(size, np.random.default_rng(shard_seed(seed, s)))

    parts = run_shards(draw, list(enumerate(sizes)), workers)
    return (np.vstack([p["w"] for p in parts]),
            np.concatenate([p["alpha"] for p in parts]))


def _scaling_rows(args, workers):
    sigma = parse_sigma(args.sigma)
    scales = parse_int_list(args.scales)
    eps_grid = parse_eps_list(args.eps)
    curve = EntropyCurve()
    if args.mode == "d":
        levels = scales
        N = max(levels)
        w = _gather_w(sigma, N, args.samples, args.seed, workers)
        for n in levels:
            fm = group_feature_metric(w, n)
            for eps in eps_grid:
                curve.add(n, eps, feature_entropy_bits(fm, eps),
                          args.samples, args.seed)
        targets = {eps: sigma_target_d(sigma, levels) for eps in eps_grid}
    elif args.mode == "z":
        for t in scales:
            if t & (t - 1):
                raise UsageError(f"z-mode scales must be dyadic, got {t}")
        M = max(scales).bit_length() - 1
        w, alpha = _gather_omega(sigma, M, M, args.samples, args.seed, workers)
        for t in scales:
            direct = z_feature_metric(w, alpha, t)
            aligned = z_aligned_metric(w, alpha, t)
            for eps in eps_grid:
                bits = max(feature_entropy_bits(direct, eps, block_dim=None),
                           feature_entropy_bits(aligned, eps))
                curve.add(t, eps, bits, args.samples, args.seed)
        targets = {eps: sigma_target_z(sigma, scales) for eps in eps_grid}
    else:  # filtration
        levels = scales
        if min(levels) <= args.k:
            raise UsageError("filtration levels must exceed the cut level k")
        n_max = max(levels)
        sig = dyadic.sigma_extend(sigma, n_max)
        w = _gather_w(sig, n_max, args.samples, args.seed, workers)
        for n in levels:
            sym = filtration.reduce_symbols(w, n, args.k)
            flags = [bool(sig[args.k + j]) for j in range(n - args.k)]
            for eps in eps_grid:
                bits = filtration._split_entropy_bits(sym, flags, eps)
                curve.add(n, eps, bits, args.samples, args.seed)
        targets = {eps: sigma_target_d(sigma, levels) for eps in eps_grid}
    return curve, targets, eps_grid


def cmd_scaling(args, cfg) -> int:
    curve, targets, eps_grid = _scaling_rows(args, args.workers)
    verdicts = {}
    for eps in eps_grid:
        cmp = asymp_compare(curve.bits(eps), targets[eps])
        verdicts[str(eps)] = cmp
    if args.out:
        curve.to_csv(args.out, header_lines=config_header(cfg))
    payload = {"verdicts": verdicts, "targets": {str(e): targets[e]
                                                 for e in eps_grid},
               "config": cfg, "version": version_string()}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if all(v["pass"] for v in verdicts.values()) else 1


# ---------------------------------------------------------------------------
# classify

PERIOD8_WORD = (0, 0, 0, 1, 0, 1, 1, 1)


def build_sampler(spec: str, M: int):
    toks = spec.split()
    if not toks:
        raise UsageError("empty measure spec")
    kind = toks[0]
    if kind == "product":
        if len(toks) != 3 or toks[1] != "bernoulli":
            raise UsageError(f"unknown product spec {spec!r}")
        p = float(toks[2])
        return measures.ProductSampler(measures.BernoulliBase(p), M)
    if kind == "periodic":
        params = dict(t.split("=", 1) for t in toks[1:] if "=" in t)
        flags = [t for t in toks[1:] if "=" not in t]
        k = int(params.get("k", 1))
        period = None
        for fl in flags:
            if fl.startswith("period"):
                period = int(fl[len("period"):])
        if period is None:
            period = int(params.get("period", 1 << k))
        word = [PERIOD8_WORD[i % 8] for i in range(period)]
        step = math.gcd(1 << k, period)
        base = measures.AtomicBase(word, range(0, period, step))
        return measures.PeriodicTypeSampler(k, base, M)
    if kind == "aperiodic":
        if len(toks) < 2 or toks[1] != "toeplitz":
            raise UsageError(f"unknown aperiodic spec {spec!r}")
        params = dict(t.split("=", 1) for t in toks[2:] if "=" in t)
        alpha = [int(c) for c in params.get("alpha", "0000")]
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        return measures.make_aperiodic(base, levels, alpha)
    raise UsageError(f"unknown measure spec {spec!r}")


def classify_sharded(sampler, k_max, L, n_accept, tol, seed, workers):
    """Sharded form of the theta-ladder classifier: per (k, shard) counts are
    accumulated by addition, so aggregation is order-independent."""
    sizes = shard_sizes(n_accept)
    jobs = [(k, s, sizes[s]) for k in range(k_max + 2)
            for s in range(N_SHARDS)]

    def work(k, s, size):
        rng = np.random.default_rng(shard_seed(seed, s) + (k << 32))
        table, acc = measures.project_theta(sampler, k, 0, L, size, rng)
        return k, table.counts, acc * size

    results = run_shards(work, jobs, workers)
    counts = {k: np.zeros(1 << L) for k in range(k_max + 2)}
    acc_mass = {k: 0.0 for k in range(k_max + 2)}
    for k, c, am in results:
        counts[k] += c
        acc_mass[k] += am
    tables = [measures.CylinderTable(counts[k], L, -L)
              for k in range(k_max + 2)]
    ladder = [tables[k].tv(tables[k + 1]) for k in range(k_max + 1)]
    verdict = f"aperiodic-up-to-{k_max}"
    for k in range(k_max + 1):
        if all(step <= tol for step in ladder[k:]):
            verdict = k
            break
    return {"verdict": verdict, "tv_ladder": ladder,
            "acceptance": [acc_mass[k] / n_accept for k in range(k_max + 2)],
            "tol": tol, "L": L, "n_accept": n_accept}


def cmd_classify(args, cfg) -> int:
    sampler = build_sampler(args.spec, args.M)
    report = classify_sharded(sampler, args.kmax, args.cyl_len,
                              args.n_accept, args.tol, args.seed,
                              args.workers)
    report["config"] = cfg
    report["version"] = version_string()
    report["seed"] = args.seed
    emit_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# entropy (ad-hoc single estimate)

def cmd_entropy(args, cfg) -> int:
    sigma = parse_sigma(args.sigma)
    eps_grid = parse_eps_list(args.eps)
    if len(eps_grid) != 1:
        raise UsageError(f"entropy takes a single eps, got {args.eps!r}")
    eps = eps_grid[0]
    if args.mode == "d":
        w = _gather_w(sigma, args.scale, args.samples, args.seed, args.workers)
        bits = feature_entropy_bits(group_feature_metric(w, args.scale), eps)
    elif args.mode == "z":
        t = args.scale
        if t & (t - 1):
            raise UsageError(f"z-mode scale must be dyadic, got {t}")
        M = t.bit_length() - 1
        w, alpha = _gather_omega(sigma, M, M, args.samples, args.seed,
                                 args.workers)
        bits = max(
            feature_entropy_bits(z_feature_metric(w, alpha, t), eps,
                                 block_dim=None),
            feature_entropy_bits(z_aligned_metric(w, alpha, t), eps))
    else:
        raise UsageError(f"unknown entropy mode {args.mode!r}")
    emit_json({"bits": bits, "eps": eps, "scale": args.scale,
               "mode": args.mode, "config": cfg,
               "version": version_string()}, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="adicop")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="exhaustive small-depth self-checks")
    common(p)
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("scaling", help="entropy growth curve + verdict")
    common(p)
    p.add_argument("--mode", choices=["z", "d", "filtration"], default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--scales", default=None)

    p = sub.add_parser("classify", help="periodic type of a named measure")
    common(p)
    p.add_argument("--spec", default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--cyl-len", type=int, default=None)
    p.add_argument("--n-accept", type=int, default=None)
    p.add_argument("--M", type=int, default=None)

    p = sub.add_parser("entropy", help="one ad-hoc entropy estimate")
    common(p)
    p.add_argument("--mode", choices=["z", "d"], default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--samples", type=int, default=None)

    return top


DEFAULTS = {
    "oracle": {"depth": 4},
    "scaling": {"mode": "d", "sigma": "11111111", "k": 1, "eps": "0.25",
                "samples": 2000, "scales": "2 3 4 5 6"},
    "classify": {"spec": "product bernoulli 0.5", "kmax": 4, "tol": 0.03,
                 "cyl_len": 6, "n_accept": 100000, "M": 8},
    "entropy": {"mode": "d", "sigma": "11111111", "scale": 5, "eps": "0.25",
                "samples": 2000},
}

COERCE = {"seed": int, "workers": int, "depth": int, "k": int,
          "samples": int, "kmax": int, "cyl_len": int, "n_accept": int,
          "M": int, "scale": int, "tol": float}


def resolve_args(args) -> dict:
    """Fill unset options from the config file, then from built-in defaults;
    returns the effective config for output headers."""
    file_cfg = load_config(args.config) if args.config else {}
    layers = dict(DEFAULTS.get(args.command, {}))
    layers["seed"] = int(os.environ.get(SEED_ENV, "0"))
    layers["workers"] = 1
    for key, val in file_cfg.items():
        if key not in vars(args):
            raise UsageError(f"unknown config key {key!r}")
        layers[key] = COERCE.get(key, str)(val)
    effective = {}
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is None and key in layers:
            val = layers[key]
        setattr(args, key, val)
        # workers sets parallelism only and must not alter output bytes
        if key not in ("out", "workers"):
            effective[key] = val
    effective["command"] = args.command
    return effective


COMMANDS = {"oracle": cmd_oracle, "scaling": cmd_scaling,
            "classify": cmd_classify, "entropy": cmd_entropy}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_args(args)
        return COMMANDS[args.command](args, cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
