"""The benchmark's workloads: the ops each one runs, the samplers its set-up
builds, and the correctness gate applied to every op's output.

Every op is closed-loop and single-process: it starts when the previous one
returns, and CLI ops always run with `--workers 1`.  The workload seed is
passed to the program as `--seed`; nothing else about the inputs comes from
the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

WORKLOADS = ("growth-d", "growth-z", "classify-zoo", "exact-structure")

CLASSIFY_SPECS = (  # (op name, spec, expected verdict)
    ("product", "product bernoulli 0.5", 0),
    ("periodic2", "periodic k=2 period8", 2),
    ("aperiodic", "aperiodic toeplitz alpha=0000", "aperiodic-up-to-4"),
)

# the filtration sigmas of scripts/scaling_sweep.py: the regime word plus
# one generator beyond the top level
FILTRATION_SIGMAS = (("ones", "111111111"), ("alternating", "101010101"),
                     ("zeros", "000000000"))

# sha256 of the committed results/ files with the version line removed,
# used when a checkout carries no results/ directory
RESULTS_DIGESTS = {
    "classify_aperiodic_seed0.json": "97e7181507603a1dfbca0dec93f2066ba7dd6de929b2e8fd576cbca3c9e6de80",
    "classify_aperiodic_seed1.json": "d9841466007a3efb3c61e4a8e18b055f67af060b2c4c64230194105972a3dd84",
    "classify_aperiodic_seed2.json": "0cfb55766e7edf4ad999bb7e2a4d31a580a0a3ad76093290457c7936074b866b",
    "classify_periodic2_seed0.json": "bf5411ec8a47db5dffd205d709f1559b19acdc04464f0576edc2b4434e8ef39a",
    "classify_periodic2_seed1.json": "7612063719292544c8f78843187d9fcfc2ec32418478aca01ecaf55f844e4d5a",
    "classify_periodic2_seed2.json": "979b8b2541394c0174f84896ca40cd6fbd44711fcbde6020d46c4724dfc0c097",
    "classify_product_seed0.json": "c4593b42f297ab2198f9311d75ef6a2ebc1b2fedf6d9a71d120e60675b1956c0",
    "classify_product_seed1.json": "b9aa8190ef11f5e650b2f5819b138768044c3ed6badcb0192f19c31e436596ae",
    "classify_product_seed2.json": "1005113543d52e82e90b79a7a48c3f8aa58befe2f3d86efb36f06eb6197086e9",
    "scaling_d_ones.csv": "bdf1a81c7e8920bbd6b209d8ace1e9500ddcec9a20ce3f4e8555a73f9e012e35",
    "scaling_filtration_alternating.csv": "8cb09a07f8dc2237ef0d3fa8bd9adba493ebcdb70c1cc822c8bab3dc72540622",
    "scaling_filtration_ones.csv": "2be10b7f3e6de3e616de484a358117308da15ed3aba58b914c15c5bb66e2310e",
    "scaling_filtration_zeros.csv": "5fa42c0eb0a5e7b106d90cc58e35adb5cff9fc3cd4daf8cebb5fb8042f877cc7",
}

# exact values printed by scripts/orbit_anchors.py
MAX_ORBIT_SIZES = {1: 2, 2: 4, 3: 32, 4: 2048}
EXACT_ENTROPIES = {(2, 0): 2.321928094887362, (2, 1): 1.584962500721156,
                   (3, 0): 3.807354922057604, (3, 1): 2.321928094887362}

_VERSION_LINE = re.compile(r'(# version = .*|\s*"version": .*)')


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple = ()             # CLI argv without --seed/--workers/--out
    verdict: object = None       # expected classify verdict
    results: dict = field(default_factory=dict)  # seed -> results/ file


@dataclass(frozen=True)
class Sizes:
    d_scales: str
    z_scales: str
    samples: int
    classify: tuple              # extra classify flags
    oracle_depth: int
    filt_scales: str
    filt_samples: int
    orbit_ms: tuple
    estimate_ms: tuple


FULL = Sizes(d_scales="3 4 5 6 7 8", z_scales="4 8 16 32 64", samples=2000,
             classify=(), oracle_depth=4, filt_scales="4 5 6 7 8 9",
             filt_samples=256, orbit_ms=(1, 2, 3, 4),
             estimate_ms=(2, 3, 4, 5, 6))

SMOKE = Sizes(d_scales="3 4", z_scales="4 8", samples=200,
              classify=("--cyl-len", "3", "--n-accept", "20000"),
              oracle_depth=2, filt_scales="4 5", filt_samples=64,
              orbit_ms=(1, 2, 3), estimate_ms=(2, 3, 4))


def sizes(smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL


def ops(workload: str, smoke: bool) -> list[Op]:
    """The ops of a workload.  Smoke sizes reproduce no results/ file."""
    out = _ops(workload, sizes(smoke))
    return [replace(op, results={}) for op in out] if smoke else out


def _scaling(name, mode, sigma, scales, samples, results=None) -> Op:
    return Op(name, ("scaling", "--mode", mode, "--sigma", sigma, "--scales",
                     scales, "--samples", str(samples), "--eps", "0.25"),
              results=results or {})


def _ops(workload: str, sz: Sizes) -> list[Op]:
    if workload == "growth-d":
        return [_scaling("scaling-d", "d", "11111111", sz.d_scales, sz.samples,
                         {0: "scaling_d_ones.csv"})]
    if workload == "growth-z":
        return [_scaling("scaling-z", "z", "11111111", sz.z_scales,
                         sz.samples)]
    if workload == "classify-zoo":
        return [Op(f"classify-{name}",
                   ("classify", "--spec", spec) + sz.classify, verdict=verdict,
                   results={s: f"classify_{name}_seed{s}.json"
                            for s in range(3)})
                for name, spec, verdict in CLASSIFY_SPECS]
    if workload == "exact-structure":
        return ([Op("oracle", ("oracle", "--depth", str(sz.oracle_depth)))]
                + [_scaling(f"filtration-{name}", "filtration", sigma,
                            sz.filt_scales, sz.filt_samples,
                            {0: f"scaling_filtration_{name}.csv"})
                   for name, sigma in FILTRATION_SIGMAS]
                + [Op("orbit-anchors")])
    raise ValueError(f"unknown workload {workload!r}")


def build_samplers(workload: str, smoke: bool, cli, measures, dyadic) -> list:
    """The samplers a workload's ops draw from, built without drawing: the
    set-up cost the benchmark reports next to the import of adicop.cli."""
    sz = sizes(smoke)
    if workload == "growth-d":
        n = max(int(s) for s in sz.d_scales.split())
        return [measures.MSigmaSampler(cli.parse_sigma("11111111"), n)]
    if workload == "growth-z":
        M = max(int(s) for s in sz.z_scales.split()).bit_length() - 1
        return [measures.OmegaSigmaSampler(cli.parse_sigma("11111111"), M, M)]
    if workload == "classify-zoo":
        return [cli.build_sampler(spec, cli.DEFAULTS["classify"]["M"])
                for _, spec, _ in CLASSIFY_SPECS]
    if workload == "exact-structure":
        n = max(int(s) for s in sz.filt_scales.split())
        return [measures.MSigmaSampler(
                    dyadic.sigma_extend(cli.parse_sigma(sigma), n), n)
                for _, sigma in FILTRATION_SIGMAS]
    raise ValueError(f"unknown workload {workload!r}")


def orbit_anchors(filtration, seed: int, smoke: bool) -> dict:
    """The library calls of scripts/orbit_anchors.py, with the workload seed
    driving the Monte Carlo estimates."""
    sz = sizes(smoke)
    return {
        "max_orbit_size": {m: filtration.max_orbit_size(m, 2)
                           for m in sz.orbit_ms},
        "exact": {(m, r): filtration.lemma17_entropy_exact(m, r, 2, 0.1)
                  for m, r in EXACT_ENTROPIES},
        "estimate": [filtration.lemma17_entropy_estimate(m, 0, 2, 0.1,
                                                         seed=seed)
                     for m in sz.estimate_ms],
    }


def strip_version(text: str) -> str:
    """Output with the `version` line or field removed: version_string()
    changes per commit and per dirty state, the numbers do not."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not _VERSION_LINE.fullmatch(line.rstrip("\n")))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(op: Op, seed: int, code: int, stdout: str, out_text: str,
              results_dir: Path) -> list[str]:
    """Correctness gate of one CLI op; returns the failures found."""
    fails = []
    if code != 0:
        fails.append(f"{op.name}: exit code {code}")
    if op.verdict is not None:
        try:
            verdict = json.loads(stdout)["verdict"]
        except (ValueError, KeyError) as e:
            verdict = f"unreadable ({e})"
        if verdict != op.verdict:
            fails.append(f"{op.name}: verdict {verdict!r}, "
                         f"expected {op.verdict!r}")
    name = op.results.get(seed)
    if name:
        path = results_dir / name
        want = (sha256(strip_version(path.read_text())) if path.is_file()
                else RESULTS_DIGESTS[name])
        if sha256(strip_version(out_text)) != want:
            fails.append(f"{op.name}: --out differs from results/{name}")
    return fails


def check_anchors(anchors: dict) -> list[str]:
    """The exact anchors must match; the estimates must grow with m."""
    fails = [f"orbit-anchors: max_orbit_size({m}, 2) = {v}, expected "
             f"{MAX_ORBIT_SIZES[m]}"
             for m, v in anchors["max_orbit_size"].items()
             if v != MAX_ORBIT_SIZES[m]]
    fails += [f"orbit-anchors: exact entropy at (m, r) = {key} is {v!r}, "
              f"expected {EXACT_ENTROPIES[key]!r}"
              for key, v in anchors["exact"].items()
              if v != EXACT_ENTROPIES[key]]
    est = anchors["estimate"]
    if not (all(math.isfinite(e) and e > 0 for e in est)
            and all(a < b for a, b in zip(est, est[1:]))):
        fails.append(f"orbit-anchors: estimates {est} do not grow with m")
    return fails
