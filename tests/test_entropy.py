import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adicop import entropy
from adicop.coding import CodedPoint
from adicop.measures import MSigmaSampler, OmegaSigmaSampler


def RNG(s=0):
    return np.random.default_rng(s)


def random_points(rng, n, N=4, M=4):
    return [CodedPoint(rng.integers(0, 2, 1 << N), rng.integers(0, 2, M))
            for _ in range(n)]


class TestSemimetrics:
    def test_cut_rho_k(self):
        x = CodedPoint([0, 1, 0, 1], (0, 1))
        y = CodedPoint([0, 1, 1, 1], (0, 1))
        assert entropy.CutRhoK(1).dist(x, y) == 0.0
        assert entropy.CutRhoK(2).dist(x, y) == 1.0

    def test_axioms_on_random_triples(self):
        rng = RNG(0)
        rho = entropy.WeightedSum(
            [entropy.CutW0(), entropy.CutRhoK(2)], [0.3, 0.7])
        for _ in range(100):
            x, y, z = random_points(rng, 3)
            assert rho.dist(x, x) == 0.0
            assert rho.dist(x, y) == rho.dist(y, x) >= 0.0
            assert rho.dist(x, z) <= rho.dist(x, y) + rho.dist(y, z) + 1e-12

    def test_averaged_group_matches_hamming(self):
        # averaging the w(0)-cut over D_n gives the normalized Hamming
        # distance on restrictions to D_n
        rng = RNG(1)
        for _ in range(20):
            x, y = random_points(rng, 2, N=3, M=3)
            avg = entropy.average_group(entropy.CutW0(), 3).dist(x, y)
            assert avg == pytest.approx(np.mean(x.w != y.w))

    def test_averaged_z_telescopes(self):
        # after j adic steps the configuration is translated by the
        # accumulated carry a XOR (a + j); the t-step average of the
        # w(0)-cut therefore reads w at exactly those masks
        rng = RNG(2)
        t = 8
        checked = 0
        while checked < 10:
            w1 = rng.integers(0, 2, 32)
            w2 = rng.integers(0, 2, 32)
            a = int(rng.integers(0, 32 - t))
            alpha = tuple((a >> i) & 1 for i in range(5))
            x, y = CodedPoint(w1, alpha), CodedPoint(w2, alpha)
            avg = entropy.average_z(entropy.CutW0(), t)
            direct = np.mean([w1[a ^ (a + j)] != w2[a ^ (a + j)]
                              for j in range(t)])
            assert avg.dist(x, y) == pytest.approx(direct)
            checked += 1


class TestCovering:
    def test_greedy_zero_diameter(self):
        D = np.zeros((10, 10))
        assert entropy.greedy_cover_count(D, 0.25) == 1

    def test_greedy_discrete(self):
        # 4 well-separated clusters, eps small: one ball per cluster minus
        # the allowed uncovered fraction
        D = np.ones((8, 8))
        for c in range(4):
            D[2 * c:2 * c + 2, 2 * c:2 * c + 2] = 0.0
        assert entropy.greedy_cover_count(D, 0.1) == 4
        # eps = 0.3 allows leaving 2 of 8 points uncovered
        assert entropy.greedy_cover_count(D, 0.3) == 3

    def test_greedy_matches_exact_small(self):
        rng = RNG(3)
        for trial in range(30):
            pts = rng.random((12, 2))
            D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
            eps = rng.uniform(0.2, 0.8)
            g = entropy.greedy_cover_count(D, eps)
            e = entropy.exact_cover_count(D, eps)
            assert e <= g <= 2 * e + 1

    def test_exact_cover_weights(self):
        # one heavy point dominates: a single ball suffices
        D = np.ones((3, 3)) - np.eye(3)
        w = np.array([98.0, 1.0, 1.0])
        assert entropy.exact_cover_count(D, 0.05, weights=w) == 1

    def test_exact_limit(self):
        with pytest.raises(ValueError):
            entropy.exact_cover_count(np.zeros((30, 30)), 0.1)

    def test_monotone_in_eps(self):
        # Lemma-10-style monotonicity: entropy non-increasing in eps
        rng = RNG(4)
        pts = rng.random((60, 3))
        D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        bits = [entropy.greedy_cover_bits(D, e) for e in (0.1, 0.25, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(bits, bits[1:]))


def reference_greedy(D, eps):
    """Plain greedy: recompute every ball's gain with a matmul per ball."""
    cover = D <= eps / 2 + 1e-12
    uncovered = np.ones(D.shape[0])
    balls = 0
    while uncovered.sum() > entropy._max_uncovered(eps, D.shape[0]):
        uncovered[cover[int(np.argmax(cover @ uncovered))]] = 0.0
        balls += 1
    return max(balls, 1)


@st.composite
def cover_instances(draw, max_n):
    """Normalized Hamming matrices on few bits (many tied gains), optionally
    perturbed into asymmetric matrices with a zero diagonal."""
    n = draw(st.integers(1, max_n))
    bits = draw(st.integers(1, 10))
    rng = RNG(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.integers(0, 2, (n, bits))
    D = (X[:, None, :] != X[None, :, :]).mean(axis=2)
    if draw(st.booleans()):
        D = D + rng.uniform(-0.1, 0.1, D.shape)
        np.fill_diagonal(D, 0.0)
    return D, draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))


class TestGreedyIncremental:
    @settings(max_examples=150, deadline=None)
    @given(cover_instances(200))
    def test_matches_plain_greedy(self, inst):
        D, eps = inst
        assert entropy.greedy_cover_count(D, eps) == reference_greedy(D, eps)

    @settings(max_examples=100, deadline=None)
    @given(cover_instances(12))
    def test_exact_at_most_greedy(self, inst):
        D, eps = inst
        assert entropy.exact_cover_count(D, eps) <= \
            entropy.greedy_cover_count(D, eps)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            entropy.greedy_cover_count(np.zeros((5, 5)), eps)

    def test_rejects_points_in_no_ball(self):
        # a positive diagonal leaves every point outside its own ball
        with pytest.raises(ValueError):
            entropy.greedy_cover_count(np.ones((4, 4)), 0.1)


class TestFeatureMetric:
    def test_pair_matrix_is_weighted_hamming(self):
        rng = RNG(5)
        X = rng.integers(0, 2, (20, 7)).astype(np.uint8)
        w = rng.random(7)
        fm = entropy.FeatureMetric(X, w)
        D = fm.pair_matrix()
        i, j = 3, 11
        assert D[i, j] == pytest.approx(np.sum(w * (X[i] != X[j])))

    def test_dedup_preserves_metric(self):
        rng = RNG(6)
        X = rng.integers(0, 2, (15, 4)).astype(np.uint8)
        X = np.hstack([X, X[:, :2], np.zeros((15, 1), np.uint8)])
        w = rng.random(7)
        fm = entropy.FeatureMetric(X, w)
        dd = fm.dedup()
        assert dd.X.shape[1] <= 4
        assert np.allclose(fm.pair_matrix(), dd.pair_matrix())

    def test_block_additive_reduces_to_direct(self):
        rng = RNG(7)
        X = rng.integers(0, 2, (50, 6)).astype(np.uint8)
        fm = entropy.FeatureMetric(X, np.full(6, 1 / 6))
        assert entropy.feature_entropy_bits(fm, 0.25) == \
            entropy.feature_entropy_bits(fm, 0.25, block_dim=None)


class TestAssertion1:
    def test_three_factor_inequality(self):
        # average of paired distances <= 3/N * all-pairs average, for any
        # semimetric; checked on 10^4 random tuples of L1 points
        rng = RNG(8)
        failures = 0
        for _ in range(10000):
            N = rng.integers(2, 8)
            xs = rng.random((N, 3))
            ys = rng.random((N, 3))
            D = np.abs(xs[:, None, :] - ys[None, :, :]).sum(axis=2)
            paired = np.trace(D) / N
            allpairs = D.mean()
            if paired > 3 * allpairs + 1e-12:
                failures += 1
        assert failures == 0


class TestCurvesAndCompare:
    def test_curve_csv(self, tmp_path):
        c = entropy.EntropyCurve()
        c.add(3, 0.25, 4.5, 100, 7)
        path = tmp_path / "curve.csv"
        c.to_csv(path, header_lines=["seed = 7"])
        text = path.read_text()
        assert text.startswith("# seed = 7\nscale,eps,bits,samples,seed\n")
        assert "3,0.25,4.500000,100,7" in text

    def test_asymp_compare_passes_constant_gap(self):
        bits = [2 ** n * 0.4 for n in range(3, 9)]
        target = [2 ** n for n in range(3, 9)]
        assert entropy.asymp_compare(bits, target)["pass"]

    def test_asymp_compare_rejects_wrong_exponent(self):
        bits = [2 ** (n / 2) for n in range(3, 9)]
        target = [2 ** n for n in range(3, 9)]
        assert not entropy.asymp_compare(bits, target)["pass"]

    def test_asymp_compare_rejects_drift(self):
        bits = [2 ** n * (1.5 ** n / 10) for n in range(3, 9)]
        target = [2 ** n for n in range(3, 9)]
        assert not entropy.asymp_compare(bits, target)["pass"]


class TestScalingSmall:
    def test_d_curve_small(self):
        sampler = MSigmaSampler((1,) * 6, 6)
        curve = entropy.scaling_curve_d(sampler, range(2, 7), eps_grid=(0.25,),
                                        n_samples=500, seed=0)
        cmp = entropy.asymp_compare(curve.bits(0.25),
                                    entropy.sigma_target_d((1,) * 6, range(2, 7)))
        assert cmp["pass"]

    def test_d_curve_flat_sigma_zero(self):
        sampler = MSigmaSampler((0,) * 6, 6)
        curve = entropy.scaling_curve_d(sampler, range(2, 7), eps_grid=(0.25,),
                                        n_samples=500, seed=0)
        assert max(curve.bits(0.25)) <= 2.0

    def test_z_curve_small(self):
        sampler = OmegaSigmaSampler((1,) * 6, 6, 6)
        scales = [4, 8, 16, 32, 64]
        curve = entropy.scaling_curve_z(sampler, scales, eps_grid=(0.25,),
                                        n_samples=500, seed=0)
        cmp = entropy.asymp_compare(curve.bits(0.25),
                                    entropy.sigma_target_z((1,) * 6, scales))
        assert cmp["pass"]

    def test_entropy_nonincreasing_in_eps(self):
        sampler = MSigmaSampler((1,) * 5, 5)
        curve = entropy.scaling_curve_d(sampler, [4], n_samples=400, seed=1)
        bits = [curve.bits(e)[0] for e in entropy.DEFAULT_EPS_GRID]
        assert all(a <= b + 1e-9 for a, b in zip(bits, bits[1:]))
