"""Dyadic filtration machinery.

An orbit tree of depth n lists the 2**n translates of a point by D_n,
leaf at position mask g holding the translate by g; the dyadic hierarchy
splits on the top mask bit, so the two children are the contiguous halves
of the leaf array.  The Kantorovich iteration of a leaf semimetric is the
cheapest hierarchy-preserving matching, one child-swap fold of the leaf
costs (`child_swap`); for the discrete metric on a finite alphabet it is
the orbit Hamming distance dist_m under the tree automorphism group.
`kantorovich_pairs` folds it from leaf mismatches, `pairwise_dist_matrix`
once per pair of subtree codes numbered by first occurrence, in row
blocks; both count mismatched leaves, dist_m times 2**m, which the
covering estimator reads with unit 2**m as it reads feature counts.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .coding import CodedPoint, diag
from .entropy import (EntropyCurve, Semimetric, _cover_bits, _max_uncovered,
                      curve_sampler, first_occurrence, scaling_curve)
from .measures import pack_words

TABLE_CELLS = 1 << 20  # entries of an orbit table built at once

# ---------------------------------------------------------------------------
# orbit trees

class OrbitTree:
    """Complete binary tree of depth n whose leaves are the D_n-translates
    of a point (or arbitrary objects); children split on the top mask bit."""

    def __init__(self, depth: int, leaves):
        leaves = list(leaves)
        if len(leaves) != 1 << depth:
            raise ValueError("leaf count must be 2**depth")
        self.depth = depth
        self.leaves = leaves

    @classmethod
    def of_point(cls, x: CodedPoint, n: int) -> "OrbitTree":
        return cls(n, [diag(g, x) for g in range(1 << n)])


def child_swap(C: np.ndarray) -> np.ndarray:
    """Root cost of the Kantorovich iteration on leaf costs C[..., i, j] of
    shape (..., 2**m, 2**m): a pair of nodes costs the cheaper sum of its
    children matched straight or crossed.  Root / 2**m is K_m, the double
    that halving at every level gives, as halving is exact in binary."""
    while C.shape[-1] > 1:
        a, b = C[..., 0::2, :], C[..., 1::2, :]
        C = np.minimum(a[..., 0::2] + b[..., 1::2], a[..., 1::2] + b[..., 0::2])
    return C[..., 0, 0]


def leaf_costs(rho: Semimetric, c1: OrbitTree, c2: OrbitTree) -> np.ndarray:
    """rho between every leaf of c1 (rows) and every leaf of c2 (columns)."""
    if c1.depth != c2.depth:
        raise ValueError("depth mismatch")
    return np.array([[rho.dist(x, y) for y in c2.leaves] for x in c1.leaves],
                    dtype=float)


def kantorovich(rho: Semimetric, c1: OrbitTree, c2: OrbitTree) -> float:
    """K_n[rho]: the child-swap fold of the leaf costs, over 2**n.

    Equals the min over all tree automorphisms of the average leaf distance
    because automorphisms factor into independent swaps per node (validated
    against the brute-force minimum for n <= 3).
    """
    return float(child_swap(leaf_costs(rho, c1, c2))) / (1 << c1.depth)


def tree_automorphisms(n: int) -> list[np.ndarray]:
    """All leaf permutations induced by automorphisms of the depth-n binary
    tree; |T_n| = 2**(2**n - 1).  Exhaustive, n <= 3."""
    if n > 3:
        raise ValueError("exhaustive automorphism enumeration limited to n <= 3")
    if n == 0:
        return [np.zeros(1, dtype=np.int64)]
    subs = tree_automorphisms(n - 1)
    h = 1 << (n - 1)
    out = []
    for p0 in subs:
        for p1 in subs:
            for swap in (0, 1):
                # leaf g goes to child (top bit XOR swap), permuted inside
                left = p0 + (h if swap else 0)
                right = p1 + (0 if swap else h)
                out.append(np.concatenate([left, right]))
    return out


def kantorovich_bruteforce(rho: Semimetric, c1: OrbitTree, c2: OrbitTree) -> float:
    """Direct minimum over all tree automorphisms (oracle for the recursion)."""
    n = c1.depth
    best = math.inf
    leaves2 = c2.leaves
    for perm in tree_automorphisms(n):
        total = sum(rho.dist(x, leaves2[perm[j]])
                    for j, x in enumerate(c1.leaves))
        best = min(best, total / (1 << n))
    return best


# ---------------------------------------------------------------------------
# vectorized Kantorovich for symbol trees

def dist_m(w1, w2) -> float:
    """Orbit Hamming distance: fraction of mismatched leaves under the best
    tree automorphism, the `kantorovich_pairs` count on one pair over 2**m
    (exact in binary).  Arguments are leaf symbol sequences of the same
    length 2**m."""
    w1, w2 = np.asarray(w1), np.asarray(w2)
    L = len(w1)
    if len(w2) != L:
        raise ValueError("leaf counts differ")
    if L < 1 or L & (L - 1):
        raise ValueError("leaf count must be 2**depth")
    return int(kantorovich_pairs(w1, w2)) / L


def kantorovich_pairs(sym1: np.ndarray, sym2: np.ndarray) -> np.ndarray:
    """dist_m * 2**m between corresponding trees of two (..., 2**m) symbol
    arrays: `child_swap` of the leaf mismatches, the fewest mismatched
    leaves in a hierarchy-preserving matching, of dtype
    min_scalar_type(2**m), as counts reach at most 2**m.
    """
    L = sym1.shape[-1]
    C = (sym1[..., :, None] != sym2[..., None, :]).astype(np.min_scalar_type(L))
    return child_swap(C)


def pairwise_dist_matrix(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dist_m * 2**m table between the orbit classes of the rows of a
    (S, 2**m) array, and the class of every row.

    Level 0 codes the symbols, and a node's code one level up is the id of
    the unordered pair of its children's codes, so two subtrees share a
    code iff a tree automorphism maps one onto the other (Aho, Hopcroft and
    Ullman); codes are numbered by first occurrence at every level, so the
    root codes are the orbit classes in the cover's order.  T[u, v] is the
    fewest mismatched leaves between codes u and v, from the step of
    `child_swap` once per pair of codes, min(T[a, a'] + T[b, b'],
    T[a, b'] + T[b, a']) between (a, b) and (a', b'), in blocks of about
    TABLE_CELLS entries; the root table is the `kantorovich_pairs` counts.
    """
    first, codes, _ = first_occurrence(sym.ravel())
    symbols, codes = sym.ravel()[first], codes.reshape(sym.shape)
    T = (symbols[:, None] != symbols).astype(np.min_scalar_type(sym.shape[1]))
    while codes.shape[1] > 1:
        x, y = codes[:, 0::2], codes[:, 1::2]
        keys = (np.minimum(x, y) * len(T) + np.maximum(x, y)).ravel()
        first, codes, _ = first_occurrence(keys)
        a, b = np.divmod(keys[first], len(T))
        codes, old = codes.reshape(len(sym), -1), T
        T = np.empty((len(a),) * 2, old.dtype)
        step = max(1, TABLE_CELLS // len(a))
        for s in range(0, len(a), step):
            # a second gather costs less than a strided transpose of the first
            Ta, Tb = old.take(a[s:s + step], 0), old.take(b[s:s + step], 0)
            out = np.add(Ta.take(a, 1), Tb.take(b, 1), out=T[s:s + step])
            cross = Ta.take(b, 1)
            cross += Tb.take(a, 1)
            np.minimum(out, cross, out=out)
    return T, codes[:, 0]


# ---------------------------------------------------------------------------
# orbits of the automorphism group on labeled trees

ORBIT_DEPTH_MAX = 10


def _check_orbit_args(m: int, q: int, r: int) -> None:
    if not 0 <= m <= ORBIT_DEPTH_MAX:
        raise ValueError(f"m must lie in [0, {ORBIT_DEPTH_MAX}], got {m}")
    if q < 1:
        raise ValueError(f"alphabet size q must be at least 1, got {q}")
    if not 0 <= r <= m:
        raise ValueError(f"r must lie in [0, m = {m}], got {r}")


def _orbit_histogram(m: int, q: int) -> dict[int, int]:
    """{orbit size: number of orbits} of the tree automorphism group on
    Q^{D_m}.  Aut(T_{m+1}) is C2 wreath Aut(T_m), so its orbits are the
    unordered pairs of depth-m orbits: two distinct orbits of sizes a and
    b give one of size 2ab, an orbit paired with itself one of size a*a."""
    hist = {1: q}
    for _ in range(m):
        nxt = Counter()
        sizes = sorted(hist)
        for i, a in enumerate(sizes):
            n = hist[a]
            nxt[a * a] += n
            nxt[2 * a * a] += n * (n - 1) // 2
            for b in sizes[i + 1:]:
                nxt[2 * a * b] += n * hist[b]
        hist = {s: n for s, n in nxt.items() if n}
    return hist


def max_orbit_size(m: int, q: int) -> int:
    """Exact maximal orbit cardinality of the tree automorphism group acting
    on Q^{D_m}, from the orbit-size recursion; m <= ORBIT_DEPTH_MAX."""
    _check_orbit_args(m, q, 0)
    return max(_orbit_histogram(m, q))


def lemma17_entropy_exact(m: int, r: int, q: int, eps: float) -> float:
    """Exact epsilon-entropy of (Q^{D_m}, dist_m, uniform on the
    configurations invariant under g_0, ..., g_{r-1}); m <= ORBIT_DEPTH_MAX.

    Valid when eps/2 is below the minimal positive dist_m value 2**-m:
    balls then cover exactly one automorphism-orbit each, orbits partition
    the space, and the optimal cover takes the largest orbits first.  An
    invariant configuration is constant on the D_r-cosets, so its orbit is
    that of its depth-(m - r) reduced tree, and the orbit sizes are those
    of the depth-(m - r) recursion.
    """
    _check_orbit_args(m, q, r)
    if not 0 < eps / 2 < 2.0 ** -m:
        raise ValueError(f"exact oracle needs 0 < eps/2 < 2**-m, got {eps}")
    hist = _orbit_histogram(m - r, q)
    total = q ** (1 << (m - r))
    need = total - _max_uncovered(eps, total)
    balls = 0
    for size in sorted(hist, reverse=True):
        if need <= 0:
            break
        # the greedy takes orbits of one size until ceil(need / size) are in
        take = min(hist[size], -(-need // size))
        balls += take
        need -= take * size
    return math.log2(max(balls, 1))


TERMINAL_DEPTH = 3


def _split_entropy_bits(sym: np.ndarray, eps_grid, memo: dict,
                        offset: int = 0) -> tuple[float, ...]:
    """Block-additive covering estimates on symbol trees, one per eps.

    A node whose two halves are equal in every row passes through to the
    first half, as the iteration does exactly (under m^sigma, at every
    level with sigma_j = 0); otherwise both halves are estimated as
    independent blocks and their estimates added (growth-class surrogate).
    Depth <= TERMINAL_DEPTH instances greedily cover their orbit classes,
    weighted by row counts, by the exact mismatch counts with unit 2**m,
    kept in memo by (column offset, depth): one memo serves one eps grid
    and arrays that extend one another by columns, as the reduced arrays
    of one curve do.
    """
    L = sym.shape[1]
    m = L.bit_length() - 1
    if m <= TERMINAL_DEPTH:
        if (offset, m) not in memo:
            table, labels = pairwise_dist_matrix(sym)
            memo[offset, m] = tuple(_cover_bits(table, L, np.bincount(labels),
                                                eps_grid))
        return memo[offset, m]
    h = L // 2
    first, second = sym[:, :h], sym[:, h:]
    if np.array_equal(first, second):
        return _split_entropy_bits(first, eps_grid, memo, offset)
    left = _split_entropy_bits(first, eps_grid, memo, offset)
    right = _split_entropy_bits(second, eps_grid, memo, offset + h)
    return tuple(a + b for a, b in zip(left, right))


def lemma17_entropy_estimate(m: int, r: int, q: int, eps: float,
                             n_samples: int = 256, seed: int = 0) -> float:
    """Monte Carlo covering estimate for larger invariant-configuration
    instances, m <= ORBIT_DEPTH_MAX: uniform draws of the invariant
    configurations, whose invariance makes the bottom r levels degenerate."""
    _check_orbit_args(m, q, r)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    base = np.random.default_rng(seed).integers(0, q, (n_samples, 1 << (m - r)))
    sym = np.repeat(base, 1 << r, axis=1)
    return _split_entropy_bits(sym, (eps,), {})[0]


# ---------------------------------------------------------------------------
# filtration scaling (representatives, reduction, curve)

def reduce_symbols(w_rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """Leaf symbols of the reduced tree: position indexed by the span of
    g_k..g_{n-1}, symbol = the restriction of w to the corresponding coset
    of D_k, packed by `pack_words` (so k <= measures.PACK_LOG2)."""
    rows = w_rows[:, : 1 << n]
    return pack_words(rows.reshape(rows.shape[0], 1 << (n - k), 1 << k))


class CutRhoK(Semimetric):
    """rho_k: zero iff the configurations agree on D_k and the first k digits
    agree, one otherwise."""

    def __init__(self, k: int):
        self.k = k

    def dist(self, x: CodedPoint, y: CodedPoint) -> float:
        m = 1 << self.k
        # alpha[:k] agree: as many digits, equal below bit k of the values
        same = (np.array_equal(x.w[:m], y.w[:m])
                and min(x.M, self.k) == min(y.M, self.k)
                and (x.a ^ y.a) % m == 0)
        return 0.0 if same else 1.0


def kantorovich_rho_k_orbit(w1: np.ndarray, w2: np.ndarray, n: int, k: int) -> float:
    """Generic K_n[rho_k] between the orbit trees of two representatives
    (full depth-n trees of coded points)."""
    x = CodedPoint(w1[: 1 << n], (0,) * n)
    y = CodedPoint(w2[: 1 << n], (0,) * n)
    rho = CutRhoK(k)
    return kantorovich(rho, OrbitTree.of_point(x, n), OrbitTree.of_point(y, n))


def kantorovich_rho_k_reduced(w1: np.ndarray, w2: np.ndarray, n: int, k: int) -> float:
    """K_n[rho_k] through the reduction: orbit Hamming distance between the
    depth-(n-k) trees over the alphabet of D_k-restrictions."""
    s1 = reduce_symbols(w1[None, :], n, k)[0]
    s2 = reduce_symbols(w2[None, :], n, k)[0]
    return dist_m(s1, s2)


def filtration_scaling(sigma, k: int, levels, eps: float = 0.25,
                       n_samples: int = 256, seed: int = 0) -> EntropyCurve:
    """Entropy curve of K_n[rho_k] across the representatives of the
    filtration elements, under m^sigma (see `scaling_curve`)."""
    levels = list(levels)
    sampler = curve_sampler("filtration", sigma, levels, (eps,), n_samples, k)
    return scaling_curve("filtration", sampler, levels, (eps,), n_samples,
                         seed, k)


# ---------------------------------------------------------------------------
# pointwise Lipschitz bound (proof form of the 3-factor inequality)

def lipschitz_bound_check(rho1: Semimetric, rho2: Semimetric,
                          rho_dom: Semimetric, c1: OrbitTree,
                          c2: OrbitTree) -> bool:
    """K_n[rho_2] <= K_n[rho_1] + 3 * (all-pairs average of the dominating
    semimetric), an exact inequality checked with 1e-12 for float rounding."""
    costs = leaf_costs(rho_dom, c1, c2).ravel().tolist()
    return (kantorovich(rho2, c1, c2) <= kantorovich(rho1, c1, c2)
            + 3 * (sum(costs) / len(costs)) + 1e-12)
