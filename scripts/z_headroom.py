#!/usr/bin/env python3
"""Print, per (regime, t, eps) cell of the z-mode curve, which of its two
covering estimates wins the max and the headroom of the direct estimate
to the sample ceiling log2(n - entropy._max_uncovered(eps, n)), at each
sample size n.

    python3 scripts/z_headroom.py [--samples N ...] [--times T ...]
                                  [--eps E ...] [--seed S]

`entropy.scaling_curve` in mode "z" reports the max of the two
`entropy.z_estimates`: the direct estimate (the plain greedy on the t-step
averaged cut) and the aligned estimate (the block-additive estimate of its
phase-aligned form).  Every ball of the direct greedy covers at least one
new point, and the greedy stops once at most _max_uncovered(eps, n) points
are left uncovered: eps * n rounded down, less one where eps * n is an
integer.  So a direct estimate close to that ceiling measures the sample
size as much as the metric; the aligned estimate sums blocks and has no
such ceiling.  The sample is the one `scaling_curve` draws for the same
seed and top time, so at n = 2000 and seed 0 the max is the value in
results/scaling_z_<regime>.csv.  Nothing is written.  A request that
`entropy.check_scales` refuses, or a negative seed, is a usage error
(exit 2) before anything is printed or drawn.
"""

import argparse
import math

from adicop import entropy, measures
from adicop.cli import parse_sigma
from scaling_sweep import REGIMES


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, nargs="+", default=[2000, 8000])
    p.add_argument("--times", type=int, nargs="+",
                   default=[1 << j for j in range(9)])
    p.add_argument("--eps", type=float, nargs="+", default=[0.5, 0.25, 0.1])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    try:  # the refusals of a curve request, before anything is drawn
        if args.seed < 0:
            raise ValueError(f"seed must be at least 0, got {args.seed}")
        for n in args.samples:
            entropy.check_scales("z", args.times, args.eps, n, entropy.N_MAX)
    except ValueError as e:
        p.error(str(e))
    print("regime       t    eps      n   direct  aligned  winner   "
          "ceiling  headroom")
    for name, sigma in REGIMES.items():
        for n in args.samples:
            sampler = entropy.curve_sampler("z", parse_sigma(sigma), args.times,
                                            args.eps, n)
            sample = measures.draw_sharded(sampler, n, args.seed, 1)
            w, alpha = sample["w"], sample["alpha"]
            for t in args.times:
                direct, aligned = entropy.z_estimates(w, alpha, t,
                                                      args.eps)
                for eps, d, a in zip(args.eps, direct, aligned):
                    ceiling = math.log2(n - entropy._max_uncovered(eps, n))
                    winner = ("direct" if d > a else "aligned" if a > d
                              else "tie")
                    print(f"{name:<11} {t:>3} {eps:>6} {n:>6} {d:>8.3f} "
                          f"{a:>8.3f}  {winner:<7} {ceiling:>8.3f} "
                          f"{ceiling - d:>9.3f}")


if __name__ == "__main__":
    main()
