import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adicop import filtration, measures
from adicop.entropy import (Semimetric, _max_uncovered, asymp_compare,
                            curve_sampler)


def RNG(s=0):
    return np.random.default_rng(s)


class L1(Semimetric):
    def __init__(self, scale=1.0):
        self.scale = scale

    def dist(self, x, y):
        return self.scale * float(np.abs(np.asarray(x) - np.asarray(y)).sum())


def random_tree(rng, n, dim=3):
    return filtration.OrbitTree(n, [rng.random(dim) for _ in range(1 << n)])


class Discrete(Semimetric):
    def dist(self, x, y):
        return float(x != y)


class IntegerL1(Semimetric):
    def dist(self, x, y):
        return int(np.abs(np.asarray(x) - np.asarray(y)).sum())


def recursive_kantorovich(rho, c1, c2):
    """K_n[rho] by its definition: half the cheaper of the two children
    pairings, straight or crossed, at every node."""
    def rec(a, b):
        if len(a) == 1:
            return rho.dist(a[0], b[0])
        h = len(a) // 2
        straight = rec(a[:h], b[:h]) + rec(a[h:], b[h:])
        crossed = rec(a[:h], b[h:]) + rec(a[h:], b[:h])
        return 0.5 * min(straight, crossed)

    return rec(c1.leaves, c2.leaves)


def generic_dist_m(w1, w2):
    """dist_m by the generic recursion on the discrete leaf metric."""
    m = len(w1).bit_length() - 1
    return filtration.kantorovich(Discrete(), filtration.OrbitTree(m, w1),
                                  filtration.OrbitTree(m, w2))


def random_automorphism_image(rng, w):
    """w under a uniformly random tree automorphism (a swap per node)."""
    if len(w) == 1:
        return w
    h = len(w) // 2
    a = random_automorphism_image(rng, w[:h])
    b = random_automorphism_image(rng, w[h:])
    return np.concatenate([b, a] if rng.integers(2) else [a, b])


class TestKantorovich:
    def test_depth_0(self):
        t1 = filtration.OrbitTree(0, [np.array([1.0])])
        t2 = filtration.OrbitTree(0, [np.array([3.5])])
        assert filtration.kantorovich(L1(), t1, t2) == pytest.approx(2.5)

    def test_depth_1_swap(self):
        t1 = filtration.OrbitTree(1, [np.array([0.0]), np.array([1.0])])
        t2 = filtration.OrbitTree(1, [np.array([1.0]), np.array([0.0])])
        # the crossed matching is free
        assert filtration.kantorovich(L1(), t1, t2) == 0.0

    def test_matches_bruteforce_depth3(self):
        rng = RNG(0)
        for _ in range(40):
            t1, t2 = random_tree(rng, 3), random_tree(rng, 3)
            dp = filtration.kantorovich(L1(), t1, t2)
            bf = filtration.kantorovich_bruteforce(L1(), t1, t2)
            assert abs(dp - bf) < 1e-12

    @pytest.mark.parametrize("n", range(6))
    def test_fold_equals_recursion_exactly(self, n):
        # halving is exact in binary, so the fold's one division by 2**n
        # gives the recursion's double, at any leaf magnitude
        rng = RNG(20 + n)
        for _ in range(40 >> max(n - 2, 0)):
            x = rng.random((2, 1 << n, 3)) * 10.0 ** rng.uniform(-8, 8)
            t1, t2 = (filtration.OrbitTree(n, list(leaves)) for leaves in x)
            rho = L1(rng.uniform(0.2, 2.0))
            assert (filtration.kantorovich(rho, t1, t2)
                    == recursive_kantorovich(rho, t1, t2))
            y = rng.integers(0, 50, (2, 1 << n, 3))
            i1, i2 = (filtration.OrbitTree(n, list(leaves)) for leaves in y)
            assert (filtration.kantorovich(IntegerL1(), i1, i2)
                    == recursive_kantorovich(IntegerL1(), i1, i2))

    def test_automorphism_count(self):
        assert len(filtration.tree_automorphisms(3)) == 128

    def test_symmetry_triangle_homogeneity(self):
        rng = RNG(1)
        for _ in range(25):
            a, b, c = (random_tree(rng, 3) for _ in range(3))
            kab = filtration.kantorovich(L1(), a, b)
            kba = filtration.kantorovich(L1(), b, a)
            kac = filtration.kantorovich(L1(), a, c)
            kcb = filtration.kantorovich(L1(), c, b)
            assert kab == pytest.approx(kba)
            assert kab <= kac + kcb + 1e-12
            assert filtration.kantorovich(L1(2.0), a, b) == pytest.approx(2 * kab)

    def test_monotone_in_rho(self):
        rng = RNG(2)
        for _ in range(10):
            a, b = random_tree(rng, 2), random_tree(rng, 2)
            assert filtration.kantorovich(L1(0.5), a, b) <= \
                filtration.kantorovich(L1(), a, b) + 1e-12

    def test_depth_mismatch(self):
        rng = RNG(3)
        with pytest.raises(ValueError):
            filtration.kantorovich(L1(), random_tree(rng, 1), random_tree(rng, 2))


@st.composite
def symbol_rows(draw):
    """Symbol trees of depth 0-6 over 2-16 symbols: rows drawn from a small
    pool, so that they repeat, and automorphism images of the first row."""
    m, q = draw(st.integers(0, 6)), draw(st.integers(2, 16))
    rng = RNG(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, q, (draw(st.integers(1, 8)), 1 << m))
    drawn = pool[rng.integers(0, len(pool), draw(st.integers(1, 24)))]
    images = [random_automorphism_image(rng, pool[0])
              for _ in range(draw(st.integers(1, 6)))]
    return np.vstack([drawn, pool[:1], images]), len(images)


def expanded_dist(sym):
    """dist_m between every pair of rows, from the table between orbit
    classes and the class of each row."""
    table, labels = filtration.pairwise_dist_matrix(sym)
    return table[np.ix_(labels, labels)]


def reference_pairwise_dist_matrix(sym):
    """The table and labels built from sorted codes: codes numbered in key
    order at every level, each pair of child codes sorted, and the root
    table re-gathered into the classes' first-occurrence order."""
    symbols, codes = np.unique(sym, return_inverse=True)
    codes, L = codes.reshape(sym.shape), sym.shape[1]
    T = (symbols[:, None] != symbols).astype(np.min_scalar_type(L))
    while codes.shape[1] > 1:
        kids = np.sort(codes.reshape(len(sym), -1, 2), axis=2)
        keys, codes = np.unique(kids[..., 0] * len(T) + kids[..., 1],
                                return_inverse=True)
        codes = codes.reshape(len(sym), -1)
        a, b = np.divmod(keys, len(T))
        Ta, Tb = T[a], T[b]
        T = np.minimum(Ta[:, a] + Tb[:, b], Ta[:, b] + Tb[:, a])
    # each row's class is the rank of its class's first row among them all
    root = codes[:, 0]
    first, inv = np.unique(root, return_index=True, return_inverse=True)[1:]
    firsts = np.sort(first)
    labels = np.searchsorted(firsts, first[inv])
    return T[np.ix_(root[firsts], root[firsts])], labels


def assert_same_tables(sym):
    """pairwise_dist_matrix and the sorted-code reference agree in table
    bytes, dtype and labels."""
    table, labels = filtration.pairwise_dist_matrix(sym)
    want, want_labels = reference_pairwise_dist_matrix(sym)
    assert table.dtype == want.dtype and table.shape == want.shape
    assert table.tobytes() == want.tobytes()
    assert labels.dtype == want_labels.dtype
    assert np.array_equal(labels, want_labels)


def all_pairs_kernel(sym):
    """dist_m on every ordered pair of rows, by the child-swap kernel."""
    i, j = np.indices((len(sym),) * 2)
    return filtration.kantorovich_pairs(sym[i], sym[j])


class TestDistM:
    def test_equal(self):
        assert filtration.dist_m([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0

    def test_swap_related(self):
        assert filtration.dist_m([0, 0, 0, 1], [0, 0, 1, 0]) == 0.0

    def test_complement(self):
        assert filtration.dist_m([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0

    def test_automorphism_invariance_exhaustive(self):
        rng = RNG(4)
        perms = filtration.tree_automorphisms(2)
        for _ in range(5):
            w1 = rng.integers(0, 2, 4)
            w2 = rng.integers(0, 2, 4)
            d = filtration.dist_m(w1, w2)
            for p in perms:
                assert filtration.dist_m(w1[p], w2) == pytest.approx(d)
                assert filtration.dist_m(w1, w2[p]) == pytest.approx(d)

    def test_vectorized_matches_scalar(self):
        rng = RNG(5)
        sym = rng.integers(0, 3, (10, 8))
        D = expanded_dist(sym)
        assert np.all(np.diag(D) == 0) and np.array_equal(D, D.T)
        for i in range(10):
            for j in range(i + 1, 10):
                assert D[i, j] / 8 == generic_dist_m(list(sym[i]),
                                                     list(sym[j]))

    def test_repeated_rows_match_all_pairs(self):
        # rows drawn from a pool of six repeat, as sampled symbol trees do;
        # distances between distinct rows, expanded, equal all pairs
        rng = RNG(12)
        sym = rng.integers(0, 2, (6, 8))[rng.integers(0, 6, 40)]
        iu, ju = np.triu_indices(40, k=1)
        brute = np.zeros((40, 40), dtype=np.uint8)
        brute[iu, ju] = brute[ju, iu] = filtration.kantorovich_pairs(
            sym[iu], sym[ju])
        assert np.array_equal(expanded_dist(sym), brute)

    @settings(max_examples=150, deadline=None)
    @given(symbol_rows())
    def test_orbit_codes_match_kernel_exactly(self, inst):
        sym, n_images = inst
        table, labels = filtration.pairwise_dist_matrix(sym)
        D = table[np.ix_(labels, labels)]
        want = all_pairs_kernel(sym)
        assert D.dtype == want.dtype and np.array_equal(D, want)
        # the first pool row and its automorphism images share one orbit
        orbit = D[-n_images - 1:, -n_images - 1:]
        assert np.all(orbit == 0)
        # one class per orbit, numbered by first occurrence
        firsts = np.unique(labels, return_index=True)[1]
        assert np.array_equal(labels[np.sort(firsts)], np.arange(len(table)))
        assert np.all((table == 0) == np.eye(len(table), dtype=bool))

    def test_orbit_codes_match_kernel_on_bytes(self):
        # the alphabet of k = 3 reductions: 256 symbols, few repeats
        rng = RNG(13)
        base = rng.integers(0, 256, (40, 8))
        sym = np.vstack([base, base[rng.integers(0, 40, 20)],
                         [random_automorphism_image(rng, base[0])
                          for _ in range(4)]])
        assert np.array_equal(expanded_dist(sym), all_pairs_kernel(sym))

    @settings(max_examples=150, deadline=None)
    @given(symbol_rows())
    def test_tables_match_sorted_codes(self, inst):
        assert_same_tables(inst[0])

    def test_tables_match_sorted_codes_on_bytes_and_depth_0(self):
        # 256 symbols over 8 leaves, and single-leaf rows, where the
        # symbols are the classes
        rng = RNG(15)
        assert_same_tables(rng.integers(0, 256, (300, 8)))
        assert_same_tables(rng.integers(0, 5, (40, 1)))

    def test_tables_match_sorted_codes_in_many_blocks(self, monkeypatch):
        # 600 rows over 256 symbols give about 1200 level-1 codes, two
        # blocks of TABLE_CELLS; at 64 cells a block holds a row or a few.
        # The estimator's 256 rows of at most 8 leaves have at most 1024
        # codes a level, one block
        assert filtration.TABLE_CELLS >= (256 * 8 // 2) ** 2
        rng = RNG(16)
        sym = rng.integers(0, 256, (600, 4))
        assert len(np.unique(np.sort(sym.reshape(-1, 2), axis=1), axis=0)) \
            ** 2 > filtration.TABLE_CELLS
        assert_same_tables(sym)
        monkeypatch.setattr(filtration, "TABLE_CELLS", 64)
        assert_same_tables(sym[:200])
        assert_same_tables(rng.integers(0, 3, (100, 16)))

    def test_large_alphabet_memory_bound(self):
        # q = 256, m = 3, S = 2000: up to 8000 level-1 codes, a 64 MB
        # table; a level holds the old table, the new one and one block
        # of temporaries (built whole, the tables took 168 MiB)
        sym = RNG(17).integers(0, 256, (2000, 8))
        tracemalloc.start()
        try:
            filtration.pairwise_dist_matrix(sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2 ** 20

    def test_matrix_memory_bound(self):
        # 300 binary trees of depth 5: the tables between orbit codes take
        # under 2 MiB; a 32 x 32 mismatch matrix per pair of rows, the
        # kernel's layout, would take about 110 MB
        sym = RNG(14).integers(0, 2, (300, 32))
        tracemalloc.start()
        try:
            filtration.pairwise_dist_matrix(sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_kernel_matches_generic_recursion(self):
        # random pairs, near-automorphic pairs (an automorphism image with
        # a few leaves redrawn) and pairs with no common symbol, at every
        # depth up to 8, where the count 2**m first needs uint16; the
        # kernel counts mismatched leaves, dist_m * 2**m
        rng = RNG(11)
        for m in range(9):
            for q in range(2, 6):
                pairs = []
                for _ in range(2):
                    w1 = rng.integers(0, q, 1 << m)
                    near = random_automorphism_image(rng, w1)
                    hit = rng.integers(0, 1 << m, rng.integers(0, 3))
                    near[hit] = rng.integers(0, q, len(hit))
                    pairs += [(w1, rng.integers(0, q, 1 << m)), (w1, near),
                              (w1, w1 + q)]
                want = [generic_dist_m(list(a), list(b)) for a, b in pairs]
                assert [filtration.dist_m(a, b) for a, b in pairs] == want
                sym1, sym2 = (np.array(side) for side in zip(*pairs))
                got = filtration.kantorovich_pairs(sym1, sym2)
                assert got.dtype == np.min_scalar_type(1 << m)
                assert (got / (1 << m)).tolist() == want
                # leading axes carry over: (2, 3, 2**m) gives (2, 3)
                got = filtration.kantorovich_pairs(sym1.reshape(2, 3, -1),
                                                   sym2.reshape(2, 3, -1))
                assert (got / (1 << m)).tolist() == \
                    np.reshape(want, (2, 3)).tolist()

    @pytest.mark.parametrize("w1,w2", [
        ([], []), ([0, 1, 2], [0, 1, 2]), ([0, 1, 1, 0, 1, 0], [0] * 6),
        ([0, 1], [0, 1, 1, 0])])
    def test_rejects_bad_lengths(self, w1, w2):
        with pytest.raises(ValueError):
            filtration.dist_m(w1, w2)


# ---------------------------------------------------------------------------
# reference: exhaustive orbit enumeration over all configurations

def canon_and_size(leaves):
    """Canonical form of the automorphism orbit of a leaf tuple (children
    sorted at every node) and the orbit's size."""
    if len(leaves) == 1:
        return leaves, 1
    h = len(leaves) // 2
    c0, s0 = canon_and_size(leaves[:h])
    c1, s1 = canon_and_size(leaves[h:])
    if c0 == c1:
        return c0 + c1, s0 * s1
    return min(c0 + c1, c1 + c0), 2 * s0 * s1


def iter_configs(m, q):
    return itertools.product(range(q), repeat=1 << m)


def invariant_configs(m, q, r):
    """All configurations on D_m constant on the cosets of <g_0..g_{r-1}>."""
    return [tuple(v for v in base for _ in range(1 << r))
            for base in iter_configs(m - r, q)]


def max_orbit_size_by_enumeration(m, q):
    return max(canon_and_size(cfg)[1] for cfg in iter_configs(m, q))


def exact_entropy_by_enumeration(m, r, q, eps):
    """Largest-first greedy cover of the invariant configurations by whole
    orbits, one orbit at a time."""
    classes = Counter(canon_and_size(cfg)[0]
                      for cfg in invariant_configs(m, q, r))
    sizes = sorted(classes.values(), reverse=True)
    total = sum(sizes)
    allow = _max_uncovered(eps, total)
    covered = balls = 0
    for s in sizes:
        if total - covered <= allow:
            break
        covered += s
        balls += 1
    return math.log2(max(balls, 1))


class TestOrbits:
    def test_m2_is_4(self):
        assert filtration.max_orbit_size(2, 2) == 4

    def test_m1_is_2(self):
        assert filtration.max_orbit_size(1, 2) == 2

    def test_doubling_bound(self):
        # M_{m+1} <= 2 M_m^2, and the closed form 2^{3 * 2^{m-2} - 1} exactly
        sizes = {m: filtration.max_orbit_size(m, 2) for m in range(1, 11)}
        for m in range(1, 10):
            assert sizes[m + 1] <= 2 * sizes[m] ** 2
        for m in range(2, 11):
            assert sizes[m] == 2 ** (3 * 2 ** (m - 2) - 1)

    def test_orbit_count_and_mass(self):
        # orbit counts a(m+1) = a(m)(a(m)+1)/2 with a(0) = q (OEIS A007501
        # for q = 2), and the orbits partition Q^{D_m}
        for q in (2, 3):
            a = q
            for m in range(filtration.ORBIT_DEPTH_MAX + 1):
                hist = filtration._orbit_histogram(m, q)
                assert sum(hist.values()) == a
                assert sum(s * n for s, n in hist.items()) == q ** (1 << m)
                a = a * (a + 1) // 2
        assert [sum(filtration._orbit_histogram(m, 2).values())
                for m in range(6)] == [2, 3, 6, 21, 231, 26796]

    def test_orbit_space_scaled_entropy(self):
        # as eps -> 0 at fixed m every orbit needs its own ball, so the
        # scaled entropy of the orbit space is log2 a(m) / 2^m
        a = sum(filtration._orbit_histogram(10, 2).values())
        assert math.log2(a) / 2 ** 10 == pytest.approx(0.42941, abs=1e-5)
        assert filtration.lemma17_entropy_exact(3, 0, 2, 1e-9) == \
            math.log2(sum(filtration._orbit_histogram(3, 2).values()))

    def test_orbit_size_matches_enumeration(self):
        # recursive orbit size = count of distinct automorphism images
        rng = RNG(6)
        perms = filtration.tree_automorphisms(3)
        for _ in range(10):
            cfg = tuple(rng.integers(0, 2, 8))
            images = {tuple(np.asarray(cfg)[p]) for p in perms}
            assert canon_and_size(cfg)[1] == len(images)

    def test_recursion_matches_enumeration(self):
        for q, m_max in ((2, 4), (3, 2)):
            for m in range(m_max + 1):
                assert filtration.max_orbit_size(m, q) == \
                    max_orbit_size_by_enumeration(m, q)
        for q, d_max in ((2, 3), (3, 2)):
            for m in range(filtration.ORBIT_DEPTH_MAX + 1):
                for r in range(max(m - d_max, 0), m + 1):
                    for eps in (0.5, 0.3, 0.1, 0.05, 0.01, 0.001):
                        if eps / 2 >= 2.0 ** -m:
                            continue
                        assert filtration.lemma17_entropy_exact(m, r, q, eps) \
                            == exact_entropy_by_enumeration(m, r, q, eps)

    @pytest.mark.parametrize("m,r,q,eps", [
        (-1, 0, 2, 1e-6), (filtration.ORBIT_DEPTH_MAX + 1, 0, 2, 1e-6),
        (2, 0, 0, 1e-6), (2, -1, 2, 1e-6), (2, 3, 2, 1e-6),
        (2, 0, 2, 0.5)])  # eps/2 at the distance quantum 2^-m
    def test_bad_input_rejected(self, m, r, q, eps):
        with pytest.raises(ValueError):
            filtration.lemma17_entropy_exact(m, r, q, eps)
        if not 0 <= m <= filtration.ORBIT_DEPTH_MAX or q < 1:
            with pytest.raises(ValueError):
                filtration.max_orbit_size(m, q)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan])
    def test_eps_not_positive_rejected(self, eps):
        # a cover at eps <= 0 would leave no point uncovered and read
        # log2(6) bits on (2, 0, 2); NaN would reach Fraction
        with pytest.raises(ValueError, match="0 < eps/2"):
            filtration.lemma17_entropy_exact(2, 0, 2, eps)


class TestLemma17:
    # exact values of the largest-first cover by whole orbits (balls of
    # radius eps/2 < 2^-m isolate single orbits), checked against the
    # exhaustive enumeration at the top of this file
    @pytest.mark.parametrize("m,r,want", [
        (2, 0, math.log2(5)),
        (3, 0, math.log2(14)),
        (2, 1, math.log2(3)),
        (3, 1, math.log2(5)),
    ])
    def test_exact_values(self, m, r, want):
        assert filtration.lemma17_entropy_exact(m, r, 2, 0.1) == pytest.approx(want)

    def test_increments_within_band(self):
        h = {(m, r): filtration.lemma17_entropy_exact(m, r, 2, 0.1)
             for m in (2, 3) for r in (0, 1)}
        for r in (0, 1):
            assert 0.5 <= h[3, r] - h[2, r] <= 1.5
        for m in (2, 3):
            assert 0.5 <= h[m, 0] - h[m, 1] <= 1.5

    def test_invariant_configs(self):
        cfgs = invariant_configs(3, 2, 1)
        assert len(cfgs) == 16
        for cfg in cfgs:
            for g in range(8):
                assert cfg[g] == cfg[g ^ 1]

    def test_estimator_slope(self):
        bits = [filtration.lemma17_entropy_estimate(m, 0, 2, 0.1,
                                                    n_samples=256, seed=3)
                for m in range(2, 7)]
        cmp = asymp_compare(bits, [2 ** m for m in range(2, 7)])
        assert cmp["pass"]

    @pytest.mark.parametrize("m,r,q,n_samples", [
        (2, 3, 2, 256), (2, -1, 2, 256), (2, 0, 0, 256),
        (filtration.ORBIT_DEPTH_MAX + 1, 0, 2, 256), (2, 0, 2, 0)])
    def test_estimator_rejects_bad_input(self, m, r, q, n_samples):
        with pytest.raises(ValueError, match="must"):
            filtration.lemma17_entropy_estimate(m, r, q, 0.1,
                                                n_samples=n_samples)

    def test_estimate_memory_is_bounded_by_the_orbit_classes(self):
        # 4000 draws of the 2**8 configurations fall into at most 21 orbit
        # classes; a 4000 x 4000 float distance matrix alone takes 122 MiB
        tracemalloc.start()
        try:
            filtration.lemma17_entropy_estimate(3, 0, 2, 0.1, n_samples=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_estimator_slope_with_r(self):
        bits = [filtration.lemma17_entropy_estimate(1 + d, 1, 2, 0.1,
                                                    n_samples=256, seed=3)
                for d in range(2, 7)]
        cmp = asymp_compare(bits, [2 ** d for d in range(2, 7)])
        assert cmp["pass"]

    # The estimate against the closed form, as a band of greedy ball counts.
    # At m <= 3 and eps = 0.1 a ball of radius eps/2 < 2^-m holds exactly
    # the sample points of one orbit, so the greedy takes orbits by
    # decreasing sample count until at most u = _max_uncovered(eps, n) of
    # the n points are left: it reads the least b whose b largest counts
    # reach c n, c = (n - u) / n.  Let P_b be the mass of the b heaviest
    # orbits (sizes from _orbit_histogram) and K the number of orbits.
    # Chernoff's bound P(Bin(n, p) beyond c n) <= exp(-n KL(c || p)) gives
    # * at most hi balls unless the hi heaviest orbits fall short of c n:
    #   hi is the least b with P_b > c and exp(-n KL(c || P_b)) <= DELTA;
    # * at least lo balls unless some lo - 1 orbits reach c n, each such
    #   set of mass at most P_{lo-1} < c: lo is the largest b with
    #   C(K, b - 1) exp(-n KL(c || P_{b-1})) <= DELTA (a union bound).
    # Each reading leaves its band with probability at most 2 DELTA.  At
    # n = 4000 the bands hold the exact counts 5, 3, 14 and 5, and (3, 0)
    # is the one case whose heaviest 14 orbits sit close to c: P_14 =
    # 0.906 against c = 0.900, so 15 balls stay inside.
    N_BAND, DELTA = 4000, 1e-3

    @staticmethod
    def ball_band(m, r, n, eps, delta):
        def kl(c, p):
            if p >= 1:
                return math.inf
            return c * math.log(c / p) + (1 - c) * math.log((1 - c) / (1 - p))

        hist = filtration._orbit_histogram(m - r, 2)
        total = 2 ** (1 << (m - r))
        masses = sorted((size / total for size, count in hist.items()
                         for _ in range(count)), reverse=True)
        K = len(masses)
        P = [sum(masses[:b]) for b in range(K + 1)]
        c = (n - _max_uncovered(eps, n)) / n
        hi = min(b for b in range(1, K + 1)
                 if P[b] > c and math.exp(-n * kl(c, P[b])) <= delta)
        lo = max(b for b in range(1, hi + 1)
                 if b == 1 or (P[b - 1] < c and math.comb(K, b - 1)
                               * math.exp(-n * kl(c, P[b - 1])) <= delta))
        return lo, hi

    @pytest.mark.parametrize("m,r,lo,hi", [
        (2, 0, 5, 5), (2, 1, 3, 3), (3, 0, 13, 15), (3, 1, 5, 5)])
    def test_estimate_within_ball_band_of_exact(self, m, r, lo, hi):
        assert self.ball_band(m, r, self.N_BAND, 0.1, self.DELTA) == (lo, hi)
        exact = 2 ** filtration.lemma17_entropy_exact(m, r, 2, 0.1)
        assert lo <= round(exact) <= hi
        for seed in range(6):
            bits = filtration.lemma17_entropy_estimate(
                m, r, 2, 0.1, n_samples=self.N_BAND, seed=seed)
            assert lo <= round(2 ** bits) <= hi


class TestSplitEntropy:
    # the estimator reads its degenerate levels from the sample: a node
    # whose halves agree in every row is its first half, any other node
    # the sum of its halves
    GRID = (0.5, 0.25, 0.1)

    def bits(self, sym):
        return filtration._split_entropy_bits(sym, self.GRID, {})

    def test_equal_halves_give_the_half(self):
        half = RNG(15).integers(0, 4, (80, 16))
        assert self.bits(half)[-1] > 0
        assert self.bits(np.hstack([half, half])) == self.bits(half)

    def test_unequal_halves_give_the_sum(self):
        a, b = RNG(16).integers(0, 4, (2, 80, 16))
        b[0] = a[0] + 1  # halves differ in one row only
        b[1:] = a[1:]
        want = tuple(x + y for x, y in zip(self.bits(a), self.bits(b)))
        assert self.bits(np.hstack([a, b])) == want
        assert want != self.bits(a)

    def test_sigma_one_level_with_equal_halves_passes_through(self):
        # sigma_4 = 1, but every row drawn repeats its first 16 digits
        class Mirrored(measures.MSigmaSampler):
            def draw_w(self, n, rng):
                w = super().draw_w(n, rng)
                w[:, 16:] = w[:, :16]
                return w

        sampler = Mirrored((1,) * 5, 5)
        assert sampler.sigma[4] == 1
        curve = filtration.scaling_curve("filtration", sampler, [4, 5],
                                         self.GRID, 64, 0, 1)
        assert curve.bits()[:3] == curve.bits()[3:]
        assert min(curve.bits()) > 0


class TestReduction:
    def test_reduced_equals_generic(self):
        rng = RNG(7)
        for n, k in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 2), (6, 1)]:
            for _ in range(3):
                w1 = rng.integers(0, 2, 1 << n).astype(np.uint8)
                w2 = rng.integers(0, 2, 1 << n).astype(np.uint8)
                generic = filtration.kantorovich_rho_k_orbit(w1, w2, n, k)
                reduced = filtration.kantorovich_rho_k_reduced(w1, w2, n, k)
                assert generic == reduced

    def test_top_digit_of_a_symbol_counts(self):
        # at k = 6 a symbol packs 64 digits; restrictions to D_6 that
        # differ only in digit 63 must stay apart
        n, k = 7, 6
        w1 = np.zeros(1 << n, dtype=np.uint8)
        w2 = w1.copy()
        w2[63] = 1
        s1, s2 = filtration.reduce_symbols(np.stack([w1, w2]), n, k)
        assert s1[0] != s2[0] and s1[1] == s2[1]
        assert filtration.dist_m(s1, s2) > 0
        assert filtration.kantorovich_rho_k_reduced(w1, w2, n, k) > 0

    def test_symbols_past_the_code_refused(self):
        # k = 7 would pack 128 digits into one int64 code
        w = np.zeros(1 << 8, dtype=np.uint8)
        with pytest.raises(ValueError, match="128 digits"):
            filtration.reduce_symbols(w[None, :], 8, 7)
        with pytest.raises(ValueError, match="128 digits"):
            filtration.kantorovich_rho_k_reduced(w, w, 8, 7)

    def test_phi_representative_constant_on_orbits(self):
        # translating w and compensating the digits lands in the same class:
        # the zero-digit representative of the translate by g is w(g + .)
        rng = RNG(8)
        n = 3
        w = rng.integers(0, 2, 8).astype(np.uint8)
        reps = {tuple(w[np.arange(8) ^ g]) for g in range(8)}
        syms = {tuple(filtration.reduce_symbols(
            np.array([list(r)], dtype=np.uint8), n, 1)[0]) for r in reps}
        # all representatives of one orbit reduce to dist-0 trees
        base = filtration.reduce_symbols(w[None, :], n, 1)[0]
        for s in syms:
            assert filtration.dist_m(base, list(s)) == 0.0


class TestScalingCurve:
    def test_all_ones(self):
        curve = filtration.filtration_scaling((1,) * 8, 1, range(4, 9),
                                              eps=0.25, n_samples=200, seed=0)
        cmp = asymp_compare(curve.bits(),
                            [2 ** n for n in range(4, 9)])
        assert cmp["pass"]

    def test_alternating(self):
        sigma = (1, 0, 1, 0, 1, 0, 1, 0)
        curve = filtration.filtration_scaling(sigma, 1, range(4, 9),
                                              eps=0.25, n_samples=200, seed=0)
        cmp = asymp_compare(curve.bits(),
                            [2 ** math.ceil(n / 2) for n in range(4, 9)])
        assert cmp["pass"]

    def test_all_zero_flat(self):
        curve = filtration.filtration_scaling((0,) * 8, 1, range(4, 9),
                                              eps=0.25, n_samples=200, seed=0)
        assert max(curve.bits()) <= 1.0

    @pytest.mark.parametrize("sigma,blocks", [
        ("111111111", 32), ("101010101", 8), ("000000000", 1)])
    def test_each_terminal_block_estimated_once(self, sigma, blocks):
        # the sweep's curves: the reduced arrays of levels 4-9 are column
        # prefixes of one another, and their distinct terminal blocks are
        # the 2**5, 2**3 and 2**0 blocks of the top level
        with mock.patch.object(filtration, "pairwise_dist_matrix",
                               wraps=filtration.pairwise_dist_matrix) as est:
            filtration.filtration_scaling(tuple(map(int, sigma)), 1,
                                          range(4, 10), n_samples=256, seed=0)
        assert est.call_count == blocks

    def test_shared_blocks_read_as_fresh_estimates(self):
        # levels 2-7 over k = 1, in mixed order, reach terminal blocks of
        # depth 1 to 3 at offset 0; each row equals its level's estimate
        # with a memo of its own
        sigma, levels = (1, 1, 0, 1, 0, 1, 1), [7, 2, 5, 3, 6, 4]
        curve = filtration.filtration_scaling(sigma, 1, levels, n_samples=64)
        sampler = curve_sampler("filtration", sigma, levels, (0.25,), 64, 1)
        w = measures.draw_sharded(sampler, 64, 0, 1)["w"]
        for s, eps, bits, *_ in curve.rows:
            assert (bits,) == filtration._split_entropy_bits(
                filtration.reduce_symbols(w, s, 1), (eps,), {})

    def test_level_must_exceed_cut(self):
        with pytest.raises(ValueError):
            filtration.filtration_scaling((1,) * 4, 2, [2, 3], n_samples=10)


class TestLipschitz:
    def test_pointwise_bound_random(self):
        rng = RNG(9)

        class SumL1(Semimetric):
            def __init__(self, a, b):
                self.a, self.b = a, b

            def dist(self, x, y):
                return self.a.dist(x, y) + self.b.dist(x, y)

        for _ in range(200):
            t1, t2 = random_tree(rng, 2, 4), random_tree(rng, 2, 4)
            r1 = L1(rng.uniform(0.2, 2.0))
            r2 = L1(rng.uniform(0.2, 2.0))
            dom = SumL1(r1, r2)
            assert filtration.lipschitz_bound_check(r1, r2, dom, t1, t2)
            assert filtration.lipschitz_bound_check(r2, r1, dom, t1, t2)

    def test_equal_metrics_trivial(self):
        rng = RNG(10)
        t1, t2 = random_tree(rng, 2), random_tree(rng, 2)
        assert filtration.lipschitz_bound_check(L1(), L1(), L1(), t1, t2)

    def test_depth_mismatch(self):
        rng = RNG(11)
        with pytest.raises(ValueError, match="depth mismatch"):
            filtration.lipschitz_bound_check(L1(), L1(), L1(),
                                             random_tree(rng, 1),
                                             random_tree(rng, 2))
