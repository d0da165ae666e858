import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adicop import measures
from adicop.dyadic import alpha_value
from test_coding import vertex_labels


def RNG(s=0):
    return np.random.default_rng(s)


def m_h_sampler(h_generators, N: int) -> measures.MSigmaSampler:
    """Pushforward of Lebesgue measure on I^{D/H} for H generated by a subset
    of generators: same machinery with sigma = 0 exactly on H's generators."""
    gens = set(h_generators)
    return measures.MSigmaSampler([0 if i in gens else 1 for i in range(N)], N)


class TestConfigSamplers:
    def test_constant_on_kernel_cosets(self):
        sigma = (1, 0, 1, 0, 1)
        sampler = measures.MSigmaSampler(sigma, 5)
        w = sampler.draw_w(50, RNG(0))
        kernel = [1 << i for i, s in enumerate(sigma) if s == 0]
        for g in range(32):
            for k in kernel:
                assert np.array_equal(w[:, g], w[:, g ^ k])

    def test_sigma_zero_constant_configs(self):
        sampler = measures.MSigmaSampler((0, 0, 0, 0), 4)
        w = sampler.draw_w(100, RNG(1))
        assert np.all(w == w[:, :1])

    def test_sigma_one_uniform(self):
        # bit frequencies within 3 binomial sigma at 10^4 draws
        sampler = measures.MSigmaSampler((1,) * 4, 4)
        w = sampler.draw_w(10000, RNG(2))
        freq = w.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 3 * 0.5 / np.sqrt(10000))
        # and distinct configurations actually occur
        assert len({row.tobytes() for row in w}) > 1000

    def test_m_h_matches_sigma(self):
        a = m_h_sampler({0, 2}, 4)
        b = measures.MSigmaSampler((0, 1, 0, 1), 4)
        assert np.array_equal(a.index, b.index)

    def test_omega_alpha_uniform(self):
        sampler = measures.OmegaSigmaSampler((1, 1), 2, 6)
        d = sampler.draw(20000, RNG(3))
        counts = np.bincount(d["alpha"], minlength=64) / 20000
        assert np.all(np.abs(counts - 1 / 64) < 4 * np.sqrt(64) / 64 / np.sqrt(20000) + 0.01)


class TestBases:
    def test_atomic_invariant_period(self):
        base = measures.AtomicBase([0, 0, 0, 1, 0, 1, 1, 1], [0, 4])
        assert base.invariant_period == 4

    @given(shifts=st.lists(st.integers(0, 100), max_size=8),
           P=st.integers(1, 64))
    @example(shifts=[6, 0, 3, 3], P=12)  # unsorted, repeated
    @example(shifts=[5], P=8)
    @example(shifts=[], P=8)
    def test_atomic_invariant_period_is_the_gcd_fold(self, shifts, P):
        base = measures.AtomicBase(np.zeros(P), shifts)
        s = sorted(shifts)
        want = math.gcd(*(b - a for a, b in zip(s, s[1:])), P) \
            if len(s) > 1 else P
        assert type(base.invariant_period) is int
        assert base.invariant_period == want
        assert base.shifts.tolist() == s

    def test_atomic_draw_is_shifted_word(self):
        word = [0, 1, 1, 0]
        base = measures.AtomicBase(word, [0, 2])
        d = base.draw(200, -2, 5, RNG(4))
        for row in d["y"]:
            ok = any(np.array_equal(
                row, [(word[(s + j) % 4]) for j in range(-2, 6)])
                for s in (0, 2))
            assert ok

    def test_toeplitz_determines_val(self):
        # distinct odometer values give distinct windows once the window is
        # long enough (the coding is injective on residues)
        base = measures.ToeplitzBase(R=6)
        vals = np.arange(64)
        y = base.render(vals, -64, 63)
        assert len({row.tobytes() for row in y}) == 64

    def test_aperiodic_levels_within_the_odometer_digits(self):
        # v is uniform mod 2**R, so {v = r mod 2**n} are the level sets for
        # n <= R only; above R the digits would read 0, and a base with no
        # odometer value has no level sets at all
        base = measures.ToeplitzBase(R=6)
        for max_level in (7, 24):
            with pytest.raises(ValueError, match="odometer digits"):
                measures.AperiodicSampler(
                    base, measures.OdometerLevels(max_level), [1, 0])
        with pytest.raises(ValueError, match="odometer digits"):
            measures.AperiodicSampler(measures.BernoulliBase(),
                                      measures.OdometerLevels(6), [1, 0])
        sampler = measures.AperiodicSampler(
            base, measures.OdometerLevels(base.R), [1, 0])
        assert sampler.M == base.R

    def test_shift_increments_level(self):
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        d = base.draw(100, 0, 1, RNG(7))
        shifted = {"val": d["val"] + 1}
        for n in (1, 2, 3):
            r = levels.level(d, n)
            assert np.array_equal(levels.level(shifted, n), (r + 1) % (1 << n))


class TestWindowKernels:
    """Each window kernel against the expression it replaced, kept inline
    (int64 modulo on every cell), and pack_words against the digit codec
    `alpha_value`, row by row."""

    @settings(max_examples=150, deadline=None)
    @given(R=st.sampled_from([6, 24, 30]),
           vals=st.lists(st.integers(-1 << 40, 1 << 40), min_size=1,
                         max_size=20),
           lo=st.integers(-80, 80), width=st.integers(0, 80))
    @example(R=6, vals=[-7, -1, 0, 2], lo=-5, width=4)  # val + lo < 0
    @example(R=6, vals=[63, 127], lo=0, width=1)  # u = 2**R - 1
    @example(R=24, vals=[(1 << 24) - 1, -1], lo=0, width=1)
    @example(R=24, vals=[(3 << 24) + 5, (1 << 24) - 2], lo=-8, width=16)
    # the int32 bound: residues 2**30 - 1 on both sides, sum 2**31 - 2
    @example(R=30, vals=[(1 << 40) - 1, -(1 << 40) + (1 << 30) - 1,
                         1 << 40, -(1 << 40)], lo=-2, width=4)
    def test_render_is_the_lowbit_form(self, R, vals, lo, width):
        val = np.asarray(vals, dtype=np.int64)
        hi = lo + width - 1
        u = (val[:, None] + np.arange(lo, hi + 1)[None, :]) % (1 << R)
        v = u + 1  # trailing ones of u = trailing zeros of u + 1
        lowbit = v & -v
        odd_positions = 0xAAAAAAAAAAAAAAA  # bits 1, 3, 5, ...
        want = ((lowbit & odd_positions) != 0).astype(np.uint8)
        y = measures.ToeplitzBase(R).render(val, lo, hi)
        assert y.dtype == np.uint8
        assert np.array_equal(y, want)

    @settings(max_examples=150, deadline=None)
    @given(P=st.sampled_from([1, 3, 8, 1000]), step=st.integers(1, 9),
           lo=st.integers(-2500, 2500), width=st.integers(0, 2100),
           shifted=st.booleans(), seed=st.integers(0, 1 << 16))
    @example(P=3, step=1, lo=-7, width=11, shifted=True, seed=0)  # L > P
    @example(P=1, step=1, lo=-4, width=6, shifted=False, seed=1)
    @example(P=8, step=4, lo=-6, width=6, shifted=True, seed=2)
    @example(P=1000, step=7, lo=-2100, width=2050, shifted=True, seed=3)
    def test_atomic_draw_is_the_modulo_form(self, P, step, lo, width,
                                            shifted, seed):
        base = measures.AtomicBase(RNG(seed).integers(0, 2, P),
                                   range(0, P, step))
        n, hi = 7, lo + width - 1
        shift = RNG(seed + 1).integers(-3 * P, 3 * P, n) if shifted else 0
        got, ref = RNG(seed), RNG(seed)
        y = base.draw(n, lo, hi, got, shift)["y"]
        off = base.shifts[ref.integers(0, len(base.shifts), size=n)] + shift
        pos = off[:, None] + np.arange(lo, hi + 1)[None, :]
        want = base.word[pos % len(base.word)]
        assert y.dtype == np.uint8
        assert np.array_equal(y, want)
        assert got.random() == ref.random()

    @settings(max_examples=150, deadline=None)
    @given(L=st.integers(0, 64), top=st.booleans(),
           seed=st.integers(0, 1 << 16))
    @example(L=0, top=False, seed=0)
    @example(L=64, top=True, seed=1)  # digit 63 set: a negative int64
    @example(L=64, top=False, seed=2)
    def test_pack_words_is_the_product(self, L, top, seed):
        # every row's code is its alpha_value, read modulo 2**64
        bits = RNG(seed).integers(0, 2, (2, 5, L)).astype(np.uint8)
        if L:
            bits[0, :, -1] = top
        code = measures.pack_words(bits)
        assert code.dtype == np.int64
        assert code.shape == (2, 5)
        assert [int(c) % (1 << 64) for c in code.ravel()] == [
            alpha_value(row) for row in bits.reshape(10, L)]
        with pytest.raises(ValueError, match="65 digits"):
            measures.pack_words(np.zeros((3, 65), dtype=np.uint8))

    @pytest.mark.parametrize("R", [-1, 31, 64])
    def test_toeplitz_refuses_a_resolution_outside_int32_sums(self, R):
        with pytest.raises(ValueError, match="R must lie in"):
            measures.ToeplitzBase(R)

    @pytest.mark.parametrize("kernel, bound_mib", [
        ("atomic", 1.0), ("render", 1.75), ("pack", 0.4)])
    def test_kernel_memory(self, kernel, bound_mib):
        # 25000 rows x 6 columns; tracemalloc peaks of the forms with int64
        # temporaries of rows x cells were 1.67, 2.43 and 0.57 MiB, of the
        # forms without them 0.57, 1.15 and 0.25 MiB
        n, lo, hi = 25000, -6, -1
        base = measures.AtomicBase(PERIOD8, [0, 4])
        shift = RNG(52).integers(0, 4, n)
        val = RNG(53).integers(-1 << 40, 1 << 40, n)
        bits = RNG(54).integers(0, 2, (n, 6)).astype(np.uint8)
        run = {"atomic": lambda: base.draw(n, lo, hi, RNG(55), shift),
               "render": lambda: measures.ToeplitzBase().render(val, lo, hi),
               "pack": lambda: measures.pack_words(bits)}[kernel]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * (1 << 20)

    def test_aperiodic_projection_memory(self):
        # 25000 rows x 6 columns: the parent's modulo and lowest-bit form
        # peaked at 4.9 MiB, the popcount form at about 2.6 MiB
        sampler = SAMPLERS["aperiodic-toeplitz"]()
        tracemalloc.start()
        try:
            measures.project_theta(sampler, 2, 0, 6, 25000, RNG(51))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * (1 << 20)


class TestProjections:
    def test_periodic_type_0_is_product(self):
        base = measures.BernoulliBase()
        prod = measures.ProductSampler(base, 6)
        per0 = measures.PeriodicTypeSampler(0, base, 6)
        # two independent 64-cell empirical tables carry ~0.014 TV noise at
        # 10^5 draws; 10^4 would sit at ~0.045 and cannot meet a 0.02 bound
        t1, _ = measures.project_theta(prod, 0, 0, 6, 100000, RNG(8))
        t2, _ = measures.project_theta(per0, 0, 0, 6, 100000, RNG(9))
        assert t1.tv(t2) <= 0.02

    def test_theta_equals_base_for_product(self):
        sampler = measures.ProductSampler(measures.BernoulliBase(), 6)
        uniform = measures.CylinderTable(np.full(64, 1.0), 6)
        for k in (0, 2, 3):
            t, _ = measures.project_theta(sampler, k, 0, 6, 30000, RNG(11))
            assert t.tv(uniform) <= 0.03

    def test_remark8_type_k_stable_above_k(self):
        # for a base invariant under S^{2^k}, D_n and D_k give the same law
        # for n >= k
        base = measures.AtomicBase([0, 0, 0, 1, 0, 1, 1, 1], [0, 4])
        dk = measures.PeriodicTypeSampler(2, base, 6)
        dn = measures.PeriodicTypeSampler(3, base, 6)
        t1, _ = measures.project_theta(dk, 0, 0, 6, 30000, RNG(12))
        t2, _ = measures.project_theta(dn, 0, 0, 6, 30000, RNG(13))
        assert t1.tv(t2) <= 0.03

    def test_periodic_draw_renders_only_its_window(self):
        # a type-t draw shifts each row's base state by j < 2**t, so it holds
        # rows x window values; rendering 2**t more columns per row would
        # take at least 1000 x 2**12 int64 positions, 33 MB
        sampler = measures.PeriodicTypeSampler(
            12, measures.AtomicBase(PERIOD8, [0]), 16)
        tracemalloc.start()
        try:
            d = sampler.draw(1000, -6, -1, RNG(50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        j = d["alpha"] & ((1 << 12) - 1)
        want = np.asarray(PERIOD8)[(j[:, None] + np.arange(-6, 0)) % 8]
        assert np.array_equal(d["y"], want)


PERIOD8 = [0, 0, 0, 1, 0, 1, 1, 1]

# every sampler/base pair the CLI and the acceptance suite use
SAMPLERS = {
    "product-bernoulli": lambda: measures.ProductSampler(
        measures.BernoulliBase(0.3), 8),
    "periodic-atomic": lambda: measures.PeriodicTypeSampler(
        2, measures.AtomicBase(PERIOD8, [0, 4]), 8),
    "periodic-bernoulli": lambda: measures.PeriodicTypeSampler(
        2, measures.BernoulliBase(), 8),
    "aperiodic-toeplitz": lambda: measures.make_aperiodic(
        measures.ToeplitzBase(), measures.OdometerLevels(24), [1, 0, 1]),
}


def reference_project_theta(sampler, k, r, L, n_accept, rng, shift=0):
    """Rejection on full unconditioned draws: keep the rows whose digit
    value is r modulo 2**k."""
    lo, hi = -L + shift, shift - 1
    counts = np.zeros(1 << L)
    kept = 0
    chunk = max(2048, min(1 << 18, n_accept << (k + 1)))
    while kept < n_accept:
        d = sampler.draw(chunk, lo, hi, rng)
        take = np.flatnonzero((d["alpha"] & ((1 << k) - 1)) == r)
        take = take[:n_accept - kept]
        codes = measures.pack_words(d["y"][take])
        counts += np.bincount(codes, minlength=1 << L)
        kept += len(take)
    return measures.CylinderTable(counts, L)


def tv_noise_bound(cells, n):
    """A bound on the TV of two independent n-sample tables of one law on
    `cells` cells.  Per cell E|p_hat - q_hat| ~ sqrt(4 p (1 - p) / (pi n)),
    so E TV <= 0.5 sqrt(4 / (pi n)) sum_i sqrt(p_i) <= sqrt(cells / (pi n))
    by Cauchy-Schwarz; the sd of the TV is at most sqrt((1 - 2/pi) / (2 n)).
    The bound is the mean bound plus 8 sd."""
    return (math.sqrt(cells / (math.pi * n))
            + 8 * math.sqrt((1 - 2 / math.pi) / (2 * n)))


class TestTwoPhaseDraw:
    """The two ways of drawing a fiber: the conditioned draw project_theta
    makes, against rejection on full draws."""

    N = 20000
    L = 6

    @pytest.mark.parametrize("name", SAMPLERS)
    @pytest.mark.parametrize("k,r,shift", [
        (0, 0, 0), (1, 1, 2), (2, 3, 3), (3, 5, 1), (4, 11, 4), (5, 0, 4)])
    def test_projection_equals_full_draw_rejection(self, name, k, r, shift):
        sampler = SAMPLERS[name]()
        t, kept = measures.project_theta(sampler, k, r, self.L, self.N,
                                         RNG(31), shift=shift)
        ref = reference_project_theta(sampler, k, r, self.L, self.N,
                                      RNG(32), shift=shift)
        assert kept == 1.0 and t.n == ref.n == self.N
        assert t.tv(ref) <= tv_noise_bound(1 << self.L, self.N)

    @pytest.mark.parametrize("name", SAMPLERS)
    @pytest.mark.parametrize("k", range(5))
    def test_every_row_satisfies_the_condition(self, name, k):
        sampler = SAMPLERS[name]()
        for r in range(1 << k):
            d = sampler.draw(300, -3, 5, RNG(33), k, r)
            assert d["y"].shape == (300, 9)
            assert np.all((d["alpha"] & ((1 << k) - 1)) == r)
            assert np.all(d["alpha"] < 1 << sampler.M)

    @pytest.mark.parametrize("k,r,n_accept", [
        (0, 0, 0), (2, 0, -1), (9, 0, 10), (-1, 0, 10), (2, 4, 10),
        (2, -1, 10)])
    def test_projection_rejects_bad_input(self, k, r, n_accept):
        sampler = measures.ProductSampler(measures.BernoulliBase(), 8)
        rng = RNG(32)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            measures.project_theta(sampler, k, r, 6, n_accept, rng)
        assert rng.bit_generator.state == state


def centrality_defect(sampler, n, n_rows, rng):
    """Largest TV between the laws of the depth-n vertex given the low n
    digits r of alpha, over all pairs r < 2**n.

    The depth-n vertex of a coded point is its window y[-a_n, -a_n + 2**n - 1],
    a_n the low n digits, so its law given a_n = r is the theta-projection
    at shift 2**n - r of length 2**n.  The coded measure is central when
    these laws agree for every r.
    """
    tables = [measures.project_theta(sampler, n, r, 1 << n, n_rows, rng,
                                     shift=(1 << n) - r)[0]
              for r in range(1 << n)]
    return max(a.tv(b) for a, b in itertools.combinations(tables, 2))


class TestCentrality:
    ROWS = 50000

    @pytest.mark.parametrize("name", SAMPLERS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariant_measures_code_to_central(self, name, n):
        # a vertex window has 2**(2**n) cells; each pair of fibers is two
        # independent ROWS-sample tables of one law, and the max over the
        # pairs stays under the per-pair bound, which sits 8 sd above the
        # mean bound
        tol = tv_noise_bound(1 << (1 << n), self.ROWS)
        defect = centrality_defect(SAMPLERS[name](), n, self.ROWS, RNG(40))
        assert defect <= tol

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_invariant_base_is_not_central(self, n):
        # one shift of one word: no shift invariance, so fibers see
        # different windows of the same deterministic word
        control = measures.ProductSampler(measures.AtomicBase(PERIOD8, [0]), 8)
        assert centrality_defect(control, n, 2000, RNG(41)) > 0.5


def d_centrality_defect(sample, n, rows):
    """Largest TV between the laws of the depth-n vertex given the n lowest
    digits r of alpha, over all pairs r < 2**n, each law read from the first
    `rows` sample rows with that r.

    The D-action flips edge ordinals, so the coded measure is central for it
    when, given the depth-n vertex, all 2**n edge sequences (the values of
    r) are equally likely; r is uniform, so that holds when the laws of the
    vertex given r agree for every r.
    """
    labels = vertex_labels(sample["w"], sample["alpha"], n)
    codes = labels.astype(np.int64) @ (1 << np.arange(1 << n))
    r = sample["alpha"] % (1 << n)
    tables = []
    for k in range(1 << n):
        pick = codes[r == k][:rows]
        assert len(pick) == rows
        tables.append(np.bincount(pick, minlength=1 << (1 << n)) / rows)
    return max(0.5 * np.abs(p - q).sum()
               for p, q in itertools.combinations(tables, 2))


class TestDCentrality:
    ROWS = 10000   # per edge sequence; the draw holds 5/4 of that on average

    def draw(self, sigma, n, seed):
        sampler = measures.OmegaSigmaSampler(sigma, 8, 8)
        return sampler.draw(self.ROWS * 5 // 4 << n, RNG(seed))

    @pytest.mark.parametrize("sigma", [(1,) * 8, (1, 0) * 4, (0,) * 8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_omega_sigma_codes_to_central(self, sigma, n):
        # the vertex has 2**(2**n) values; the tolerance is the per-pair
        # bound, fixed before the draw
        tol = tv_noise_bound(1 << (1 << n), self.ROWS)
        sample = self.draw(sigma, n, 42)
        assert d_centrality_defect(sample, n, self.ROWS) <= tol

    def test_w0_forced_to_zero_is_not_central(self):
        # not D_1-invariant: the depth-1 vertex is (0, w(1)) when the first
        # edge is 0 and (w(1), 0) when it is 1
        tol = tv_noise_bound(4, self.ROWS)
        sample = self.draw((1,) * 8, 1, 43)
        sample["w"][:, 0] = 0
        assert d_centrality_defect(sample, 1, self.ROWS) > tol


class TestAperiodic:
    def test_alpha_zero_digits_equal_level(self):
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        sampler = measures.make_aperiodic(base, levels, [0, 0, 0, 0])
        d = sampler.draw(500, 0, 1, RNG(14))
        assert np.array_equal(d["alpha"] & 15, levels.level(d, 4))

    def test_conditioning_selects_level_set(self):
        # theta_n of the construction is the base conditioned to one level set
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        alpha = [1, 0, 1]
        sampler = measures.make_aperiodic(base, levels, alpha)
        n = 3
        t, _ = measures.project_theta(sampler, n, 0, 6, 20000, RNG(15))
        # direct construction of the conditioned base
        r = sum(a << i for i, a in enumerate(alpha))
        d = base.draw(200000, -6, -1, RNG(16))
        keep = levels.level(d, n) == r
        direct = measures.CylinderTable(
            np.bincount(measures.pack_words(d["y"][keep]),
                        minlength=64), 6)
        assert t.tv(direct) <= 0.05

    def test_mutual_singularity_surrogate(self):
        # distinct fibers at the same depth give far-apart projections
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        sampler = measures.make_aperiodic(base, levels, [0, 0, 0, 0])
        t0, _ = measures.project_theta(sampler, 2, 0, 6, 20000, RNG(17))
        t1, _ = measures.project_theta(sampler, 2, 1, 6, 20000, RNG(18))
        assert t0.tv(t1) > 0.3


class TestClassifier:
    def test_product_type_0(self):
        sampler = measures.ProductSampler(measures.BernoulliBase(), 8)
        rep = measures.classify_periodic_type(sampler, 3, 6, 50000, 0.03, RNG(19))
        assert rep["verdict"] == 0

    def test_constructed_type_2(self):
        base = measures.AtomicBase([0, 0, 0, 1, 0, 1, 1, 1], [0, 4])
        sampler = measures.PeriodicTypeSampler(2, base, 8)
        rep = measures.classify_periodic_type(sampler, 3, 6, 50000, 0.03, RNG(20))
        assert rep["verdict"] == 2

    def test_aperiodic(self):
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        sampler = measures.make_aperiodic(base, levels, [0, 0, 0, 0])
        rep = measures.classify_periodic_type(sampler, 3, 6, 30000, 0.03, RNG(21))
        assert rep["verdict"] == "aperiodic-up-to-3"
        # the ladder stays bounded away from zero at every step
        assert min(rep["tv_ladder"][2:]) > 0.2


class TestClassifierRefuses:
    # each request used to return a verdict, or raise only after the
    # shards of every lower k had drawn
    @pytest.mark.parametrize("k_max,L,n_accept,tol,name", [
        (3, 6, 0, 0.03, "n_accept"), (3, 0, 100, 0.03, "L must"),
        (3, 6, 100, math.nan, "tol"), (3, 6, 100, math.inf, "tol"),
        (3, 6, 100, -0.01, "tol"), (8, 6, 100, 0.03, "k_max"),
        (-1, 6, 100, 0.03, "k_max")],
        ids=["n_accept-0", "L-0", "tol-nan", "tol-inf", "tol-negative",
             "k_max-M", "k_max-negative"])
    def test_bad_request_raises_before_drawing(self, monkeypatch, k_max, L,
                                               n_accept, tol, name):
        def refuse(*args, **kwargs):
            raise AssertionError("drawn before the request was checked")
        monkeypatch.setattr(measures, "project_theta", refuse)
        sampler = measures.ProductSampler(measures.BernoulliBase(), 8)
        with pytest.raises(ValueError, match=name):
            measures.classify_periodic_type(sampler, k_max, L, n_accept, tol,
                                            RNG(0))


class TestTables:
    def test_tv_range_and_mixture(self):
        a = measures.CylinderTable(np.array([3.0, 1.0]), 1)
        b = measures.CylinderTable(np.array([1.0, 3.0]), 1)
        assert a.tv(b) == pytest.approx(0.5)
        mix = measures.CylinderTable.mixture([a, b], [0.5, 0.5])
        assert np.allclose(mix.freq, [0.5, 0.5])
