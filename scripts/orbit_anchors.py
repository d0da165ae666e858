#!/usr/bin/env python3
"""Print the exact small-instance anchors: maximal tree-automorphism orbit
sizes and exact epsilon-entropies of the invariant-configuration spaces,
both read off the orbit-size recursion (depth m <= 10), and the Monte Carlo
entropy estimates next to them."""

from adicop import filtration


def main():
    print("maximal orbit sizes (binary alphabet):")
    for m in (1, 2, 3, 4):
        print(f"  m={m}: {filtration.max_orbit_size(m, 2)}")
    print("exact entropy at eps=0.1, uniform on invariant configurations:")
    for m in (2, 3):
        for r in (0, 1):
            h = filtration.lemma17_entropy_exact(m, r, 2, 0.1)
            print(f"  m={m} r={r}: {h:.4f} bits")
    print("estimator slope check (r=0, eps=0.1):")
    for m in range(2, 7):
        h = filtration.lemma17_entropy_estimate(m, 0, 2, 0.1, seed=0)
        print(f"  m={m}: {h:.2f} bits (target order 2^{m} = {2 ** m})")


if __name__ == "__main__":
    main()
