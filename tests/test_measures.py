import itertools
import math
import tracemalloc

import numpy as np
import pytest

from adicop import coding, measures


def RNG(s=0):
    return np.random.default_rng(s)


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
        a = measures.m_h_sampler({0, 2}, 4)
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

    def test_levels_consistency(self):
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        measures.check_eigen_consistency(base, levels, RNG(5))

    def test_levels_inconsistency_detected(self):
        class BadLevels(measures.OdometerLevels):
            def level(self, draw, n):
                return np.zeros_like(draw["val"])

        base = measures.ToeplitzBase()
        with pytest.raises(measures.EigenConsistencyError):
            measures.check_eigen_consistency(base, BadLevels(base.R), RNG(6))

    def test_shift_increments_level(self):
        base = measures.ToeplitzBase()
        levels = measures.OdometerLevels(base.R)
        d = base.draw(100, 0, 1, RNG(7))
        shifted = {"val": d["val"] + 1}
        for n in (1, 2, 3):
            r = levels.level(d, n)
            assert np.array_equal(levels.level(shifted, n), (r + 1) % (1 << n))


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
        uniform = measures.CylinderTable(np.full(64, 1.0), 6, -6)
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
        codes = measures.pack_words(d["y"][take], lo, lo, L)
        counts += np.bincount(codes, minlength=1 << L)
        kept += len(take)
    return measures.CylinderTable(counts, L, -L)


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
    labels = coding.vertex_labels(sample["w"], sample["alpha"], n)
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
            np.bincount(measures.pack_words(d["y"][keep], -6, -6, 6),
                        minlength=64), 6, -6)
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


class TestTables:
    def test_tv_range_and_mixture(self):
        a = measures.CylinderTable(np.array([3.0, 1.0]), 1, 0)
        b = measures.CylinderTable(np.array([1.0, 3.0]), 1, 0)
        assert a.tv(b) == pytest.approx(0.5)
        mix = measures.CylinderTable.mixture([a, b], [0.5, 0.5])
        assert np.allclose(mix.freq, [0.5, 0.5])
