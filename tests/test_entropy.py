import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from operator import or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adicop import entropy, filtration, measures
from adicop.coding import CodedPoint, adic_on_coded, diag
from adicop.dyadic import ResolutionError
from adicop.entropy import Semimetric
from adicop.measures import MSigmaSampler, OmegaSigmaSampler


def RNG(s=0):
    return np.random.default_rng(s)


def random_points(rng, n, N=4, M=4):
    return [CodedPoint(rng.integers(0, 2, 1 << N), rng.integers(0, 2, M))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# the paper's averaged semimetrics on coded points, the reference for the
# feature metrics the estimators cover

class CutW0(Semimetric):
    """Cut on the configuration value at the group identity."""

    def dist(self, x: CodedPoint, y: CodedPoint) -> float:
        return float(x.w[0] != y.w[0])


class WeightedSum(Semimetric):
    def __init__(self, parts, weights):
        self.parts = list(parts)
        self.weights = list(weights)

    def dist(self, x, y) -> float:
        return sum(w * p.dist(x, y) for p, w in zip(self.parts, self.weights))


class AveragedGroup(Semimetric):
    """(1/|D_n|) sum over g in D_n of rho(diag(g)x, diag(g)y)."""

    def __init__(self, rho: Semimetric, n: int):
        self.rho = rho
        self.n = n

    def dist(self, x, y) -> float:
        total = 0.0
        for g in range(1 << self.n):
            total += self.rho.dist(diag(g, x), diag(g, y))
        return total / (1 << self.n)


class AveragedZ(Semimetric):
    """(1/t) sum over j < t of rho(T^j x, T^j y), T the adic map."""

    def __init__(self, rho: Semimetric, t: int):
        self.rho = rho
        self.t = t

    def dist(self, x, y) -> float:
        total = 0.0
        for _ in range(self.t - 1):
            total += self.rho.dist(x, y)
            x, y = adic_on_coded(x), adic_on_coded(y)
        return (total + self.rho.dist(x, y)) / self.t


def average_group(rho: Semimetric, n: int) -> Semimetric:
    return rho if n == 0 else AveragedGroup(rho, n)


def average_z(rho: Semimetric, t: int) -> Semimetric:
    return rho if t == 1 else AveragedZ(rho, t)


class TestSemimetrics:
    def test_cut_rho_k(self):
        x = CodedPoint([0, 1, 0, 1], (0, 1))
        y = CodedPoint([0, 1, 1, 1], (0, 1))
        assert filtration.CutRhoK(1).dist(x, y) == 0.0
        assert filtration.CutRhoK(2).dist(x, y) == 1.0

    @given(st.integers(0, 4), st.lists(st.integers(0, 1), max_size=4),
           st.lists(st.integers(0, 1), max_size=4), st.booleans())
    def test_cut_rho_k_reads_the_first_k_digits(self, k, a1, a2, same_w):
        # digit sequences of any lengths: zero iff w agrees on D_k and the
        # tuples alpha[:k] are equal, lengths included
        w1 = np.arange(16) % 3 == 0
        x = CodedPoint(w1, a1)
        y = CodedPoint(w1 if same_w else ~w1, a2)
        want = same_w and tuple(a1[:k]) == tuple(a2[:k])
        assert filtration.CutRhoK(k).dist(x, y) == (0.0 if want else 1.0)

    def test_axioms_on_random_triples(self):
        rng = RNG(0)
        rho = WeightedSum([CutW0(), filtration.CutRhoK(2)], [0.3, 0.7])
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
            avg = average_group(CutW0(), 3).dist(x, y)
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
            avg = average_z(CutW0(), t)
            direct = np.mean([w1[a ^ (a + j)] != w2[a ^ (a + j)]
                              for j in range(t)])
            assert avg.dist(x, y) == pytest.approx(direct)
            checked += 1


class TestFeatureMetricsAreTheAverages:
    """The pair matrices the estimators cover, over their total weight,
    equal the averaged w(0)-cut on the coded sample points, entry for
    entry."""

    M = 6

    def sample(self, sigma):
        d = OmegaSigmaSampler(sigma, self.M, self.M).draw(40, RNG(0))
        points = [CodedPoint.from_value(w, int(a), self.M)
                  for w, a in zip(d["w"], d["alpha"])]
        return d["w"], d["alpha"], points

    @pytest.mark.parametrize("sigma", [(1,) * 6, (1, 0) * 3])
    @pytest.mark.parametrize("n", range(5))
    def test_group_feature_metric(self, sigma, n):
        w, _, points = self.sample(sigma)
        D = entropy.group_feature_metric(w, n).pair_matrix() / 2**n
        rho = AveragedGroup(CutW0(), n)
        assert [[rho.dist(x, y) for y in points] for x in points] == D.tolist()

    @pytest.mark.parametrize("sigma", [(1,) * 6, (1, 0) * 3])
    @pytest.mark.parametrize("t", [1, 2, 4, 8, 16])
    def test_z_feature_metric(self, sigma, t):
        # the feature metric takes the odometer cyclically modulo 2**M; the
        # adic map is undefined past the last digit value, so the average
        # raises on exactly the rows that would wrap, a + t > 2**M
        w, alpha, points = self.sample(sigma)
        D = entropy.z_feature_metric(w, alpha, t).pair_matrix() / t
        wraps = alpha + t > 1 << self.M
        rho = AveragedZ(CutW0(), t)
        for (i, x), (j, y) in itertools.product(enumerate(points), repeat=2):
            if wraps[i] or wraps[j]:
                with pytest.raises(ResolutionError):
                    rho.dist(x, y)
            else:
                assert rho.dist(x, y) == D[i, j]
        if t == 16:
            assert 0 < wraps.sum() < len(wraps)

    @pytest.mark.parametrize("size", [0, 3, 12])
    def test_z_feature_metric_refuses_a_width_not_a_power_of_two(self, size):
        # the odometer is reduced modulo the width by a mask, 2**N - 1
        w = np.zeros((4, size), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"{size} columns"):
            entropy.z_feature_metric(w, np.arange(4), 2)

    @pytest.mark.parametrize("t", [6, 32])
    def test_z_estimates_refuse_a_time_off_the_width(self, monkeypatch, t):
        # on 16 columns the aligned metric reads repeated columns at t = 6
        # (carry | j collides for j >= 4) and divides by zero at t = 32;
        # neither metric is built
        def refuse(*args):
            raise AssertionError("metric built before the time was checked")
        sample = measures.draw_sharded(OmegaSigmaSampler((1,) * 4, 4, 4),
                                       200, 0, 1)
        for build in ("z_feature_metric", "z_aligned_metric"):
            monkeypatch.setattr(entropy, build, refuse)
        with pytest.raises(ValueError, match=f"scale {t} must"):
            entropy.z_estimates(sample["w"], sample["alpha"], t, (0.25,))


def within(D, eps):
    """The float layer's cover relation; column j is the ball around j."""
    return D <= eps / 2 + 1e-12


def units(n):
    return np.ones(n, dtype=np.int64)


def greedy(cover, eps):
    """The greedy on points listed once each."""
    return entropy.greedy_cover_count(cover, eps, units(len(cover)))


def cover_bits(counts, unit, eps):
    """log2 of the greedy count under the library's radius rule, at
    distances counts / unit."""
    return math.log2(greedy(entropy._cover_relation(counts, unit, eps, None),
                            eps))


EXACT_COVER_LIMIT = 24


def exact_cover_count(D, eps):
    """Calibration reference for the greedy: the minimal number of
    eps/2-balls centered at points leaving no more points uncovered than
    the greedy may; exhaustive, tiny instances only."""
    n = D.shape[0]
    if n > EXACT_COVER_LIMIT:
        raise ValueError(f"exact covering limited to {EXACT_COVER_LIMIT} points")
    cover = within(D, eps)
    masks = [sum(1 << int(i) for i in np.flatnonzero(ball)) for ball in cover.T]
    masks = sorted(set(masks), key=lambda m: -bin(m).count("1"))
    # drop masks dominated by another
    masks = [m for i, m in enumerate(masks)
             if not any(m | o == o for o in masks[:i])]
    need = n - entropy._max_uncovered(eps, n)
    upper = greedy(cover, eps)
    for k in range(1, upper + 1):
        for combo in itertools.combinations(masks, k):
            if bin(reduce(or_, combo)).count("1") >= need:
                return k
    return upper


class TestCovering:
    def test_greedy_zero_diameter(self):
        D = np.zeros((10, 10))
        assert greedy(within(D, 0.25), 0.25) == 1

    def test_greedy_discrete(self):
        # 4 well-separated clusters, eps small: one ball per cluster minus
        # the allowed uncovered fraction
        D = np.ones((8, 8))
        for c in range(4):
            D[2 * c:2 * c + 2, 2 * c:2 * c + 2] = 0.0
        assert greedy(within(D, 0.1), 0.1) == 4
        # eps = 0.3 allows leaving 2 of 8 points uncovered
        assert greedy(within(D, 0.3), 0.3) == 3

    def test_greedy_matches_exact_small(self):
        rng = RNG(3)
        for trial in range(30):
            pts = rng.random((12, 2))
            D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
            eps = rng.uniform(0.2, 0.8)
            g = greedy(within(D, eps), eps)
            e = exact_cover_count(D, eps)
            assert e <= g <= 2 * e + 1

    def test_exact_limit(self):
        with pytest.raises(ValueError):
            exact_cover_count(np.zeros((30, 30)), 0.1)

    def test_exact_stops_like_greedy(self):
        # two points at distance 1, eps just above 1/2: eps * n exceeds one
        # point, but the greedy may leave floor(eps * n - 1e-9) = 0 points
        # uncovered, and so may the exact cover
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        eps = 0.5 + 1e-10
        assert greedy(within(D, eps), eps) == 2
        assert exact_cover_count(D, eps) == 2

    def test_radius_rule_absorbs_float_rounding(self):
        # 0.7 - 0.4 falls one ulp short of 0.3, so 10 * eps/2 reads
        # 2.999...; the rule's 1e-12 slack keeps a count of 3 at unit 10,
        # distance 0.3, inside a ball of radius 0.3
        eps = 2 * (0.7 - 0.4)
        assert 10 * (eps / 2) < 3
        D = np.full((10, 10), 3, dtype=np.uint8)
        np.fill_diagonal(D, 0)
        assert cover_bits(D, 10, eps) == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_greedy_refuses_non_bool(self, dtype):
        with pytest.raises(TypeError):
            entropy.greedy_cover_count(np.zeros((5, 5), dtype), 0.25, units(5))

    def test_monotone_in_eps(self):
        # Lemma-10-style monotonicity: entropy non-increasing in eps, on
        # L1 counts between points of {0..7}^3 at unit 21, the diameter
        rng = RNG(4)
        pts = rng.integers(0, 8, (60, 3))
        D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        bits = [cover_bits(D, 21, e) for e in (0.1, 0.25, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(bits, bits[1:]))
        assert bits[0] > bits[2] > 0


def reference_greedy(D, eps, counts=None):
    """Plain greedy: recompute every ball's gain with a matmul per ball;
    balls are the columns of the cover relation.  With counts, point i
    weighs counts[i], as if listed that many times."""
    cover = within(D, eps)
    uncovered = np.ones(D.shape[0]) if counts is None else counts * 1.0
    allow, balls = entropy._max_uncovered(eps, int(uncovered.sum())), 0
    while uncovered.sum() > allow:
        uncovered[cover[:, int(np.argmax(uncovered @ cover))]] = 0.0
        balls += 1
    return max(balls, 1)


def first_occurrence_labels(D):
    """Each point's class of equal rows of D (copies of one point), the
    classes numbered by first occurrence: the rank of each row's first
    copy among all first copies."""
    inv = np.unique(D, axis=0, return_inverse=True)[1].ravel()
    first = np.argmax(inv[:, None] == inv, axis=1)
    return np.searchsorted(np.unique(first), first)


def distinct(D, labels):
    """The matrix between classes and the class sizes, from their first
    points."""
    first = np.unique(labels, return_index=True)[1]
    return D[np.ix_(first, first)], np.bincount(labels)


def reference_first_occurrence(keys):
    """first_occurrence by a plain loop: a dict from each key to its class,
    numbered as keys first appear."""
    classes, first, inv, counts = {}, [], [], []
    for i, key in enumerate(keys.tolist()):
        if key not in classes:
            classes[key] = len(first)
            first.append(i)
            counts.append(0)
        inv.append(classes[key])
        counts[classes[key]] += 1
    return tuple(np.array(x, np.intp) for x in (first, inv, counts))


def unique_first_occurrence(keys):
    """first_occurrence as np.unique's sorted classes, reordered by their
    first index."""
    _, first, inv, counts = np.unique(keys, return_index=True,
                                      return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv], counts[order]


def void_keys(rng, n, width):
    """_row_keys of n rows drawn from four random rows of `width` bits."""
    X = rng.integers(0, 2, (4, width)).astype(np.uint8)[rng.integers(0, 4, n)]
    return entropy._row_keys(X)


class TestFirstOccurrence:
    KT = entropy.KEY_TABLE

    @pytest.mark.parametrize("keys", [
        np.zeros(0, np.int64), np.zeros(0, np.uint8), void_keys(RNG(), 0, 9),
        np.array([7]), np.array([KT]), np.full(300, 5), np.full(300, KT),
        np.array([KT - 1, 3, KT - 1, 0, 3]), np.array([KT, 3, KT, 0, 3]),
        np.array([KT, KT - 1, 0, KT - 1, KT]),
        RNG(1).integers(-5, 5, 200), np.array([-1, 0, -1]),
        RNG(2).integers(0, 256, 255).astype(np.uint8),
        RNG(3).integers(0, 256, 256).astype(np.uint8),
        RNG(4).integers(0, 7, 5000).astype(np.uint8),
        RNG(5).integers(0, 1 << 20, 3000).astype(np.int32),
        RNG(6).integers(0, KT, 70000).astype(np.int32),
        RNG(7).integers(0, 1 << 16, 2000).astype(np.uint16),
        (1 << 62) + RNG(8).integers(0, 5, 100),
        np.array([1 << 62, 0, (1 << 62) - 1, 1 << 62]),
        RNG(9).integers(0, 1 << 62, 2000).astype(np.uint64),
        void_keys(RNG(10), 300, 9), void_keys(RNG(11), 1, 80)],
        ids=["empty", "empty-uint8", "empty-void", "one", "one-at-cut",
             "all-equal", "all-equal-at-cut", "below-cut", "at-cut",
             "across-cut", "negative", "minus-one", "uint8-255-keys",
             "uint8-256-keys", "uint8-few", "int32-wide", "int32-70000-keys",
             "uint16-full-range", "int64-near-2^62", "int64-2^62-edges",
             "uint64-wide", "void", "void-one"])
    def test_matches_the_dict_loop(self, keys):
        # values and dtypes of all three outputs, against the dict loop and
        # against np.unique's classes reordered by first index
        got = entropy.first_occurrence(keys)
        for ref in (reference_first_occurrence(keys),
                    unique_first_occurrence(keys)):
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype == np.intp
                assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 2, 255, 256, KT - 1, KT, -1,
                                     -(1 << 40), 1 << 62]), max_size=40))
    def test_mixed_keys_match_the_dict_loop(self, values):
        keys = np.array(values, np.int64)
        for a, b in zip(entropy.first_occurrence(keys),
                        reference_first_occurrence(keys)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def cover_instances(draw, max_n):
    """Normalized L1 matrices on a small integer grid or normalized Hamming
    matrices on few bits (long runs of tied gains), optionally perturbed by
    a symmetric matrix with a zero diagonal; points are listed 1-3 times
    each, in a random order, and at most max_n are kept."""
    k = draw(st.integers(1, max_n))
    rng = RNG(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        side, dim = draw(st.integers(2, 6)), draw(st.integers(1, 3))
        X = rng.integers(0, side, (k, dim))
        D = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2) / (dim * side)
    else:
        X = rng.integers(0, 2, (k, draw(st.integers(1, 10))))
        D = (X[:, None, :] != X[None, :, :]).mean(axis=2)
    if draw(st.booleans()):
        P = rng.uniform(-0.1, 0.1, D.shape)
        D = D + (P + P.T) / 2
        np.fill_diagonal(D, 0.0)
    rows = rng.permutation(np.repeat(np.arange(k), rng.integers(1, 4, k)))
    rows = rows[:max_n]
    return D[np.ix_(rows, rows)], draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))


class TestGreedyIncremental:
    @settings(max_examples=150, deadline=None)
    @given(cover_instances(200))
    def test_matches_plain_greedy(self, inst):
        D, eps = inst
        assert greedy(within(D, eps), eps) == reference_greedy(D, eps)

    @settings(max_examples=150, deadline=None)
    @given(cover_instances(200))
    def test_weighted_distinct_points_match_plain_greedy(self, inst):
        # copies of a point lie at distance 0 and nowhere else: one
        # weighted column per point gives the plain greedy's count
        D, eps = inst
        Dd, counts = distinct(D, first_occurrence_labels(D))
        assert entropy.greedy_cover_count(within(Dd, eps), eps, counts) == \
            reference_greedy(D, eps)

    @settings(max_examples=100, deadline=None)
    @given(cover_instances(12))
    def test_exact_at_most_greedy(self, inst):
        D, eps = inst
        assert exact_cover_count(D, eps) <= greedy(within(D, eps), eps)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            entropy.greedy_cover_count(np.ones((5, 5), bool), eps, units(5))

    def test_rejects_points_in_no_ball(self):
        # an empty diagonal leaves every point outside its own ball
        with pytest.raises(ValueError):
            greedy(np.zeros((4, 4), bool), 0.1)

    def test_rejects_one_point_outside_its_ball(self):
        # the unit-gain stop is exact only on a reflexive relation; one
        # False diagonal entry is refused, not counted as one more ball
        cover = np.eye(4, dtype=bool)
        cover[3, 3] = False
        with pytest.raises(ValueError, match="lie in no ball"):
            greedy(cover, 0.1)

    @staticmethod
    def best_gains(cover, counts, balls):
        """The best weighted gain before each of the given balls is taken,
        read off the relation itself."""
        uncovered = np.ones(len(cover), bool)
        best = []
        for c in balls:
            best.append(int(((counts * uncovered) @ cover).max()))
            uncovered &= ~cover[c]
        return best

    # points on a line: a cluster of three within one ball, then isolated
    # points, at radius eps/2 = 0.05
    LINE = np.array([0.0, 0.01, 0.02, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_unit_gain_stop_after_a_multi_point_ball(self):
        D = np.abs(self.LINE[:, None] - self.LINE[None, :])
        cover = within(D, 0.1)
        # one ball of three, then the best gain is 1: five balls of one
        assert self.best_gains(cover, units(8), [1, 3]) == [3, 1]
        assert greedy(cover, 0.1) == reference_greedy(D, 0.1) == 6

    def test_unit_gain_stop_waits_for_a_weighted_point(self):
        # point 3 was drawn twice: its ball gains 2 although it holds one
        # point, so it must be chosen before the best gain falls to 1
        counts = np.array([1, 1, 1, 2, 1, 1, 1, 1])
        D = np.abs(self.LINE[:, None] - self.LINE[None, :])
        cover = within(D, 0.1)
        rows = np.repeat(np.arange(8), counts)
        assert self.best_gains(cover, counts, [1, 3, 4]) == [3, 2, 1]
        assert entropy.greedy_cover_count(cover, 0.1, counts) == \
            reference_greedy(D[np.ix_(rows, rows)], 0.1) == 6

    @pytest.mark.parametrize("counts", [
        np.array([0, 1, 1]), np.array([1, 1, 1, 1]), np.array([2, -1, 1]),
        np.ones(3), np.ones((1, 3), int), [1, 1, 1]],
        ids=["zero", "too-long", "negative", "float", "2-d", "list"])
    def test_rejects_bad_counts(self, counts):
        # every point was drawn at least once: a count below 1, a count per
        # point missing or extra, or counts not in an integer array are
        # refused before any ball is counted
        with pytest.raises(ValueError, match="counts"):
            entropy.greedy_cover_count(np.eye(3, dtype=bool), 0.1, counts)

    @staticmethod
    def cliques(k, copies, eps):
        """k equal cliques far apart on a line, each of len(copies) points
        within one ball of radius eps/2, point j of a clique drawn
        copies[j] times: the distinct points' matrix, their counts and the
        matrix of the sample with every copy listed."""
        x = (np.arange(k)[:, None] + np.arange(len(copies)) * eps / 8).ravel()
        counts = np.tile(copies, k)
        rows = np.repeat(np.arange(len(x)), counts)
        D = np.abs(x[:, None] - x[None, :])
        return D, counts, D[np.ix_(rows, rows)]

    @pytest.mark.parametrize("copies", [(1, 1, 1), (1, 3, 2)])
    def test_more_tied_balls_than_one_step_gathers(self, copies):
        # every ball of the 73 cliques ties at the first step, more of them
        # than COVER_ROWS; eps = 0.05 lets fewer than three cliques' weight
        # stay uncovered, so the greedy takes 70 balls over two steps
        eps = 0.05
        D, counts, sample = self.cliques(entropy.COVER_ROWS + 9, copies, eps)
        cover = within(D, eps)
        w = sum(copies)
        assert len(set(counts @ cover)) == 1
        assert 4 * w > entropy._max_uncovered(eps, int(counts.sum())) >= 3 * w
        assert entropy.greedy_cover_count(cover, eps, counts) == \
            reference_greedy(sample, eps) == entropy.COVER_ROWS + 6

    @pytest.mark.parametrize("copies", [(1, 1, 1), (2, 1, 1)])
    def test_allowance_stops_inside_a_tied_run(self, copies):
        # ten tied cliques of weight w = sum(copies) and eps = 0.25: the
        # greedy may leave floor(0.25 * 10 w - 1e-9) uncovered, which it
        # reaches after 8 cliques, inside the run of ten
        eps = 0.25
        D, counts, sample = self.cliques(10, copies, eps)
        w = sum(copies)
        assert 10 * w - 7 * w > entropy._max_uncovered(eps, 10 * w) \
            >= 10 * w - 8 * w
        assert entropy.greedy_cover_count(within(D, eps), eps, counts) == \
            reference_greedy(sample, eps) == 8

    @pytest.mark.parametrize("copies", [1, 2])
    def test_tiny_eps_covers_every_point(self, copies):
        # eps * n below the 1e-9 slack allows no uncovered point: every
        # point gets a ball, no more (each listed once or twice)
        D = np.abs(self.LINE[:, None] - self.LINE[None, :])
        counts = np.full(8, copies)
        assert entropy._max_uncovered(1e-12, int(counts.sum())) == 0
        assert entropy.greedy_cover_count(within(D, 1e-12), 1e-12,
                                          counts) == 8

    # relation rows are summed as bytes, at most 255 of them at once; these
    # sizes put a column's count on both sides of one and two byte chunks
    BYTE_EDGE = [255, 256, 511, 600]

    @staticmethod
    def plain(D, counts, eps):
        """Plain greedy on the sample with point i listed counts[i] times."""
        rows = np.repeat(np.arange(len(counts)), counts)
        return reference_greedy(D[np.ix_(rows, rows)], eps)

    @pytest.mark.parametrize("n", BYTE_EDGE)
    @pytest.mark.parametrize("copies", [1, 3])
    def test_all_true_relation_past_one_byte(self, n, copies):
        # every ball holds every point, so every gain reads n * copies
        counts = np.full(n, copies)
        D = np.zeros((n, n))
        assert entropy.greedy_cover_count(within(D, 0.1), 0.1, counts) == \
            self.plain(D, counts, 0.1) == 1

    @pytest.mark.parametrize("n", BYTE_EDGE)
    def test_cliques_past_one_byte(self, n):
        # two cliques far apart, shuffled, of 3n/4 and n/4 points drawn 1-3
        # times each; the larger clique has more than 255 points from n = 511
        rng = RNG(n)
        side = rng.permutation(np.arange(n) < 3 * n // 4).astype(float)
        counts = rng.integers(1, 4, n)
        D = np.abs(side[:, None] - side[None, :])
        assert entropy.greedy_cover_count(within(D, 0.01), 0.01, counts) == \
            self.plain(D, counts, 0.01) == 2

    @pytest.mark.parametrize("n, dtype", [(12, np.uint16), (40, np.uint16),
                                          (500, np.uint32)])
    @pytest.mark.parametrize("eps", [0.1, 0.6])
    def test_copies_product_does_not_wrap(self, n, dtype, eps):
        # every point drawn 2-300 times: copies are added by one product in
        # the count dtype, and the fullest ball's copies pass 255.  The
        # weighted reference equals the sample with every copy listed where
        # that is small enough to build
        rng = RNG(n)
        x = rng.random(n)
        counts = rng.integers(2, 301, n)
        D = np.abs(x[:, None] - x[None, :])
        assert np.min_scalar_type(int(counts.sum())) == dtype
        want = reference_greedy(D, eps, counts)
        if n <= 12:
            assert want == self.plain(D, counts, eps)
        assert entropy.greedy_cover_count(within(D, eps), eps, counts) == want

    def test_copies_past_two_bytes_in_one_ball(self):
        # clique A (230 points drawn 290-300 times) holds more than 65535
        # copies, clique B (80 points drawn 250 times) fewer, and 20 lone
        # points drawn 2-300 times lie apart.  Ball A alone leaves at most
        # eps = 0.5 of the weight: one ball.  Copies summed in 16 bits
        # would read A below B, take B first and need two
        rng = RNG(18)
        x = np.concatenate([rng.random(230) * 1e-3, 10 + rng.random(80) * 1e-3,
                            20 + 10.0 * np.arange(20)])
        counts = np.concatenate([rng.integers(290, 301, 230),
                                 np.full(80, 250), rng.integers(2, 301, 20)])
        a, b = counts[:230].sum(), counts[230:310].sum()
        assert (a - 230) % 2 ** 16 + 230 < b < 2 ** 16 <= a - 230
        D = np.abs(x[:, None] - x[None, :])
        assert entropy.greedy_cover_count(within(D, 0.5), 0.5, counts) == \
            reference_greedy(D, 0.5, counts) == 1

    @pytest.mark.parametrize("n", BYTE_EDGE)
    def test_copies_pass_one_byte_in_one_chunk(self, n):
        # COVER_ROWS points at 0 drawn five times each and one point at 0.05
        # share every ball about them, at radius 0.05; the other points lie
        # apart.  The first ball covers all of them, so their balls lose
        # 64 * 5 + 1 = 321, 320 of it in the first update chunk, and every
        # gain left is 1: one unit per ball from there
        eps, k = 0.1, entropy.COVER_ROWS
        x = np.concatenate([np.zeros(k), [0.05], 10.0 * np.arange(1, n - k)])
        counts = np.where(x == 0, 5, 1)
        D = np.abs(x[:, None] - x[None, :])
        total = int(counts.sum())
        want = 1 + (n - k - 1) - entropy._max_uncovered(eps, total)
        assert entropy.greedy_cover_count(within(D, eps), eps, counts) == \
            self.plain(D, counts, eps) == want


def reference_pair_matrix(X, w):
    """The float64 weighted Hamming matrix: G[i, j] sums the weights of the
    columns where row i reads 1 and row j reads 0, and D = G + G.T."""
    Xf = X.astype(np.float64)
    G = (Xf * w) @ (1 - Xf).T
    return G + G.T


def reference_dedup(X, w):
    """Dedup on unpacked columns with float weights."""
    cols, inv = np.unique(X.T, axis=0, return_inverse=True)
    wsum = np.zeros(cols.shape[0])
    np.add.at(wsum, inv, w)
    keep = ~np.all(cols == cols[:, :1], axis=1)
    return cols[keep].T.copy(), wsum[keep]


def reference_block_matrices(fm, block_dim):
    """The float layer as the constructors fed it: every column repeated by
    its multiplicity with weight 1/W, float dedup, blocks dealt by
    decreasing weight, each block's weights renormalized to one."""
    X = np.repeat(fm.X, fm.weights, axis=1)
    X, w = reference_dedup(X, np.full(X.shape[1], 1 / X.shape[1]))
    d = X.shape[1]
    n_blocks = 1 if block_dim is None else math.ceil(d / block_dim)
    order = np.argsort(-w, kind="stable")
    blocks = [np.sort(order[b::n_blocks]) for b in range(n_blocks)] if d else []
    return [reference_pair_matrix(X[:, idx], w[idx] / w[idx].sum())
            for idx in blocks]


@st.composite
def feature_instances(draw):
    """Binary feature matrices whose columns repeat and include constants,
    with integer multiplicities up to 1, 3 or 300 (total weight past 255)."""
    rng = RNG(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 80))
    pool = np.hstack([rng.integers(0, 2, (n, draw(st.integers(1, d)))),
                      np.zeros((n, 1)), np.ones((n, 1))]).astype(np.uint8)
    X = pool[:, rng.integers(0, pool.shape[1], d)]
    top = draw(st.sampled_from([1, 3, 300]))
    return entropy.FeatureMetric(X, rng.integers(1, top + 1, d))


class TestFeatureMetric:
    def test_pair_matrix_is_weighted_hamming(self):
        # also rows of more than one 16-bit word and of more than 64 bits,
        # n not a multiple of 8, W up to uint8, uint16 and uint32; the
        # first, lightest word writes each row block and is scaled by its
        # k: k > 1 with W past 255 (uint16), and a single word of k = 3,
        # 1 or 200
        for n, d, low, top in [(20, 7, 1, 4), (9, 17, 1, 1), (77, 70, 1, 300),
                               (203, 90, 1, 2000), (150, 20, 2, 40),
                               (151, 5, 3, 3), (152, 8, 1, 1),
                               (153, 3, 200, 200)]:
            rng = RNG(n)
            X = rng.integers(0, 2, (n, d)).astype(np.uint8)
            w = rng.integers(low, top + 1, d)
            M = entropy.FeatureMetric(X, w).pair_matrix()
            assert M.dtype == np.min_scalar_type(w.sum())
            brute = (w * (X[:, None, :] != X[None, :, :])).sum(axis=2)
            assert np.array_equal(M, brute)

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_pair_matrix_without_columns_is_zero(self, n):
        # no word writes the blocks, so the result must come out zeroed:
        # freed nonzero memory is handed out again first
        np.full((n, n), 0xff, np.uint8)
        fm = entropy.FeatureMetric(np.zeros((n, 0), np.uint8),
                                   np.zeros(0, np.int64))
        M = fm.pair_matrix()
        assert M.shape == (n, n) and not M.any()

    @settings(max_examples=100, deadline=None)
    @given(feature_instances(), st.sampled_from([0.5, 0.25, 0.1]),
           st.sampled_from([16, 4, None]))
    def test_integer_layer_matches_float_layer(self, fm, eps, block_dim):
        # the cover relation of every block, between its distinct rows and
        # expanded by each row's class, is bit-identical to the float
        # layer's, and so is the estimate
        with mock.patch.object(entropy, "greedy_cover_count",
                               wraps=entropy.greedy_cover_count) as spy:
            bits = entropy.feature_entropy_bits(fm, (eps,), block_dim)
        blocks = reference_block_matrices(fm, block_dim)
        plain = [reference_greedy(D, eps) for D in blocks]
        assert len(spy.call_args_list) == len(blocks)
        for call, D, want in zip(spy.call_args_list, blocks, plain):
            cover, _, counts = call.args
            labels = first_occurrence_labels(D)
            assert np.array_equal(counts, np.bincount(labels))
            assert cover.shape == (len(counts),) * 2
            assert np.array_equal(cover[np.ix_(labels, labels)],
                                  within(D, eps))
            # the weighted greedy on the block's distinct rows counts as
            # plain greedy on all of them
            assert entropy.greedy_cover_count(*call.args) == want
        assert bits == [sum(math.log2(want) for want in plain)]

    @settings(max_examples=100, deadline=None)
    @given(feature_instances())
    def test_dedup_keeps_unique_column_order(self, fm):
        # block assignment depends on this order
        X, w = reference_dedup(fm.X, fm.weights)
        dd = fm.dedup()
        assert np.array_equal(dd.X, X) and np.array_equal(dd.weights, w)
        assert dd.weights.dtype == fm.weights.dtype

    @pytest.mark.parametrize("d", range(1, 73))
    def test_row_keys_sort_as_void_keys(self, d):
        # 1-9 packed bytes: void keys give np.unique's order and inverse,
        # and first_occurrence's classes, of the packed bytes compared one
        # by one; up to 64 columns the estimator keys rows by pack_words,
        # whose classes are the same
        rng = RNG(d)
        pool = rng.integers(0, 2, (40, d)).astype(np.uint8)
        X = pool[rng.integers(0, 40, 300)]
        packed = np.packbits(X, axis=1)
        void = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        keys = entropy._row_keys(X)
        assert keys.dtype == void.dtype
        if d <= 64:
            for a, b in zip(entropy.first_occurrence(measures.pack_words(X)),
                            entropy.first_occurrence(void)):
                assert np.array_equal(a, b)
        for a, b in zip(
                np.unique(keys, return_index=True, return_inverse=True)[1:],
                np.unique(void, return_index=True, return_inverse=True)[1:]):
            assert np.array_equal(a, b)
        for a, b in zip(entropy.first_occurrence(keys),
                        entropy.first_occurrence(void)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 63, 64, 65])
    def test_dedup_column_order_on_few_rows(self, n):
        # columns of n <= 64 rows, one to eight packed bytes, are sorted
        # by their byte keys
        rng = RNG(n)
        X = rng.integers(0, 2, (n, 60)).astype(np.uint8)
        X = np.hstack([X, X[:, ::3], np.zeros((n, 2), np.uint8)])
        fm = entropy.FeatureMetric(X, rng.integers(1, 5, X.shape[1]))
        cols, w = reference_dedup(fm.X, fm.weights)
        dd = fm.dedup()
        assert np.array_equal(dd.X, cols) and np.array_equal(dd.weights, w)

    def test_dedup_preserves_metric(self):
        rng = RNG(6)
        X = rng.integers(0, 2, (15, 4)).astype(np.uint8)
        X = np.hstack([X, X[:, :2], np.zeros((15, 1), np.uint8)])
        w = rng.integers(1, 5, 7)
        fm = entropy.FeatureMetric(X, w)
        dd = fm.dedup()
        assert dd.X.shape[1] <= 4
        assert np.array_equal(fm.pair_matrix(), dd.pair_matrix())

    def test_block_additive_reduces_to_direct(self):
        rng = RNG(7)
        X = rng.integers(0, 2, (50, 6)).astype(np.uint8)
        fm = entropy.FeatureMetric(X, np.ones(6, dtype=np.int64))
        assert entropy.feature_entropy_bits(fm, (0.25,)) == \
            entropy.feature_entropy_bits(fm, (0.25,), block_dim=None)


def automorphism_image(rng, row):
    """A symbol tree under random swaps of the children of its nodes."""
    if len(row) == 1:
        return row
    h = len(row) // 2
    a, b = automorphism_image(rng, row[:h]), automorphism_image(rng, row[h:])
    return np.concatenate([b, a] if rng.integers(2) else [a, b])


@st.composite
def orbit_instances(draw):
    """Symbol trees of depth 0-3 drawn from a small pool, each kept as
    drawn or replaced by an automorphism image (same orbit, other row)."""
    m, q = draw(st.integers(0, 3)), draw(st.integers(2, 4))
    rng = RNG(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, q, (draw(st.integers(1, 10)), 1 << m))
    rows = pool[rng.integers(0, len(pool), draw(st.integers(1, 80)))]
    return np.array([automorphism_image(rng, r) if rng.integers(2) else r
                     for r in rows])


class TestWeightedCover:
    # the greedy on orbit classes with their row counts, against plain
    # greedy on the sample with every row listed (feature blocks: see
    # test_integer_layer_matches_float_layer)
    @settings(max_examples=100, deadline=None)
    @given(orbit_instances(), st.sampled_from([0.5, 0.25, 0.1]))
    def test_filtration_orbit_tables(self, sym, eps):
        # mismatch counts at unit 2**m against the float layer on dist_m
        table, labels = filtration.pairwise_dist_matrix(sym)
        unit = sym.shape[1]
        cover = entropy._cover_relation(table, unit, eps, None)
        i, j = np.indices((len(sym),) * 2)
        D = filtration.kantorovich_pairs(sym[i], sym[j]) / unit
        assert np.array_equal(cover[np.ix_(labels, labels)], within(D, eps))
        assert entropy.greedy_cover_count(cover, eps, np.bincount(labels)) \
            == reference_greedy(D, eps)


class TestEpsGrid:
    # blocks, their distinct rows and their tables do not depend on eps:
    # one of each serves the grid, and every estimate equals the one
    # computed for its eps alone
    def test_one_pair_matrix_per_block(self, monkeypatch):
        sampler, levels = MSigmaSampler((1,) * 6, 6), [3, 4, 5, 6]
        grid = entropy.DEFAULT_EPS_GRID
        alone = [entropy.scaling_curve_d(sampler, levels, (eps,), 300)
                 for eps in grid]
        pair_matrix = entropy.FeatureMetric.pair_matrix
        calls = []

        def counted(fm):
            calls.append(fm.X.shape)
            return pair_matrix(fm)

        monkeypatch.setattr(entropy.FeatureMetric, "pair_matrix", counted)
        curve = entropy.scaling_curve_d(sampler, levels, grid, 300)
        # 8, 16, 32 and 64 columns make 1, 1, 2 and 4 blocks
        assert len(calls) == 8
        for eps, one in zip(grid, alone):
            assert curve.bits(eps) == one.bits(eps)

    def test_one_orbit_table_per_terminal_block(self):
        sigma, levels = (1,) * 7, [4, 5, 6]
        grid = entropy.DEFAULT_EPS_GRID
        sampler = entropy.curve_sampler("filtration", sigma, levels, grid,
                                        64, 1)
        alone = [entropy.scaling_curve("filtration", sampler, levels, (eps,),
                                       64, 0, 1) for eps in grid]
        with mock.patch.object(filtration, "pairwise_dist_matrix",
                               wraps=filtration.pairwise_dist_matrix) as spy:
            curve = entropy.scaling_curve("filtration", sampler, levels, grid,
                                          64, 0, 1)
        # level 6 over k = 1 splits into 2**2 terminal blocks of depth 3,
        # which the lower levels' blocks are column prefixes of
        assert spy.call_count == 4
        for eps, one in zip(grid, alone):
            assert curve.bits(eps) == one.bits(eps)


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

    def test_asymp_compare_refuses_unequal_lengths(self):
        # zip would drop the fourth scale and read a pass
        with pytest.raises(ValueError, match="one target per scale"):
            entropy.asymp_compare([1, 2, 4, 100], [1, 2, 4])


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


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestClosedForm:
    # sigma = 1^8: the d-mode metric at level n is normalized Hamming
    # distance on uniform {0,1}^d, d = 2**n, whose covering eps-entropy is
    # d (1 - H(eps/2)) + O(log d) (rate-distortion for a binary symmetric
    # source).  The estimate sums identical 16-bit blocks, so its ratio to
    # the closed form is the same at every d >= 16.  Band limits:
    # * 1.0, the rate-distortion limit: no cover of the uniform source does
    #   better, and a finite block only adds to it;
    # * VOLUME_RATIO, the sphere-covering count of one 16-bit block,
    #   0.75 * 2**16 / (1 + 16 + 120) radius-2 balls: greedy on 2000 sample
    #   points would need that many balls only if its balls held no more
    #   sample points than an average ball does (2000 * 137 / 2**16).
    EPS = 0.25
    VOLUME_RATIO = (math.log2(0.75 * 2 ** 16 / 137)
                    / (16 * (1 - binary_entropy(0.125))))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sigma", ["11111111", "10101010", "11001100",
                                       "01010101"])
    def test_d_mode_ratio_in_band(self, seed, sigma):
        # under any sigma the deduplicated metric at level n is normalized
        # Hamming on d = 2**(sigma_0 + ... + sigma_{n-1}) uniform bits; the
        # band holds from d = 16, one whole block (below it the ratios read
        # 1.2-2.0): levels 4-8 of 1^8, 7-8 of (10)^4, 6-8 of (1100)^2 and
        # 8 of (01)^4
        sigma = tuple(map(int, sigma))
        dims = {n: 1 << sum(sigma[:n]) for n in range(9)}
        levels = [n for n, d in dims.items() if d >= 16]
        curve = entropy.scaling_curve_d(MSigmaSampler(sigma, 8), levels,
                                        eps_grid=(self.EPS,), seed=seed)
        for n, bits in zip(levels, curve.bits(self.EPS)):
            closed = dims[n] * (1 - binary_entropy(self.EPS / 2))
            assert 1.0 <= bits / closed <= self.VOLUME_RATIO

    @pytest.mark.parametrize("seed", [0, 1])
    def test_z_aligned_ratio_in_band(self, seed):
        # at t = 2**n the phase-aligned z-metric reads w on one translated
        # copy of D_n: normalized Hamming on t uniform bits, the d-mode case
        # above, drawn as the z curve draws it
        sample = measures.draw_sharded(OmegaSigmaSampler((1,) * 8, 8, 8),
                                       2000, seed, 1)
        for n in range(4, 9):
            fm = entropy.z_aligned_metric(sample["w"], sample["alpha"], 1 << n)
            closed = (1 << n) * (1 - binary_entropy(self.EPS / 2))
            bits, = entropy.feature_entropy_bits(fm, (self.EPS,))
            assert 1.0 <= bits / closed <= self.VOLUME_RATIO

    def z_direct(self, seed, t, n=2000):
        """The direct z-estimate (plain greedy on the t-step averaged cut,
        unsplit), drawn as the z curve draws it."""
        sample = measures.draw_sharded(OmegaSigmaSampler((1,) * 8, 8, 8), n,
                                       seed, 1)
        (bits,), _ = entropy.z_estimates(sample["w"], sample["alpha"], t,
                                         (self.EPS,))
        return bits

    @pytest.mark.parametrize("seed", [0, 1])
    def test_z_direct_ratio_in_band(self, seed):
        # the t-step averaged cut reads w at t distinct cells, uniform bits
        # under 1^8: at t = 16 the sample holds the cover, and the direct
        # estimate lies in the d-mode band
        closed = 16 * (1 - binary_entropy(self.EPS / 2))
        assert 1.0 <= self.z_direct(seed, 16) / closed <= self.VOLUME_RATIO

    @pytest.mark.parametrize("seed", [0, 1])
    def test_z_direct_at_the_ceiling(self, seed):
        # at t = 32 the closed form, about 14.6 bits, lies above the sample
        # ceiling, log2 of the most balls the greedy reports on n units
        # (about 10.55 bits), and the direct estimate reads within 0.25 bits
        # of the ceiling
        n = 2000
        ceiling = math.log2(n - entropy._max_uncovered(self.EPS, n))
        closed = 32 * (1 - binary_entropy(self.EPS / 2))
        assert ceiling - 0.25 <= self.z_direct(seed, 32, n) <= ceiling < closed

    def test_z_direct_reaches_the_ceiling(self):
        # at t = 64 the seed-0 cover reaches the ceiling exactly: 1501
        # balls, one more than n - eps * n, as eps * n = 500 is an integer
        # and the greedy stops once at most eps * n - 1e-9 units are left
        n = 2000
        assert n - entropy._max_uncovered(self.EPS, n) == 1501
        assert self.z_direct(0, 64, n) == math.log2(1501)


class TestFiltrationGrowthOverK:
    # the growth class of scaled entropy does not depend on the generating
    # semimetric: the Kantorovich iterations of rho_0, rho_1 and rho_2 each
    # give a curve in sigma_target_d's class for the three regimes, and the
    # zeros regime, the bounded control, reads one bit (the two constant
    # trees) at every level.  Levels k+2 .. k+6: over k+1 .. k+5, k = 0
    # under 1^12 sits at spread exactly SPREAD_TOL.
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("sigma", ["1" * 12, "10" * 6, "0" * 12])
    def test_same_class_for_every_k(self, seed, k, sigma):
        sigma, levels = tuple(map(int, sigma)), list(range(k + 2, k + 7))
        sampler = entropy.curve_sampler("filtration", sigma, levels, (0.25,),
                                        1000, k)
        bits = entropy.scaling_curve("filtration", sampler, levels, (0.25,),
                                     1000, seed, k).bits(0.25)
        assert entropy.asymp_compare(
            bits, entropy.sigma_target_d(sigma, levels))["pass"]
        if not any(sigma):
            assert bits == [1.0] * len(levels)


class TestZSampleLimited:
    def test_direct_estimate_grows_with_samples(self):
        # alternating sigma at t = 256: the direct z-estimate sits just
        # under the sample ceiling, log2 of the most balls the greedy reports
        # on n units, and climbs with it, about one bit per doubling of n, on
        # nested samples of one draw; eps * n is an integer at n = 500, 1000
        eps, t = 0.25, 256
        sample = measures.draw_sharded(
            OmegaSigmaSampler((1, 0) * 4, 8, 8), 1000, 0, 1)
        readings = []
        for n in (250, 500, 1000):
            fm = entropy.z_feature_metric(sample["w"][:n],
                                          sample["alpha"][:n], t)
            bits, = entropy.feature_entropy_bits(fm, (eps,), block_dim=None)
            ceiling = math.log2(n - entropy._max_uncovered(eps, n))
            assert ceiling - 0.25 <= bits <= ceiling
            readings.append(bits)
        assert all(b - a > 0.5 for a, b in zip(readings, readings[1:]))

    def test_headroom_script_reads_no_negative_headroom(self):
        # the ones regime's direct cover reaches the ceiling at t = 64, 1501
        # balls; n less eps * n rounded down, 1500, would read one ball short
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = run_python(os.path.join(root, "scripts", "z_headroom.py"),
                         "--samples", "2000", "--times", "64", "--eps", "0.25")
        rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) == 3 and all(float(r[-1]) >= 0 for r in rows)
        assert min(float(r[-1]) for r in rows) == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--eps", "0", "eps must be distinct"),
        ("--times", "3", "dyadic time"),
        ("--samples", "0", "samples must be at least 1"),
        ("--seed", "-1", "seed must be at least 0")])
    def test_headroom_script_refuses_a_bad_request(self, flag, value,
                                                   message):
        # a usage error (exit 2) before any draw, not a traceback
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = python_process(os.path.join(root, "scripts", "z_headroom.py"),
                              flag, value)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr


class TestBlockAdditiveNeedsIndependentBlocks:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_toeplitz_windows(self, seed):
        # every interleaved block of a Toeplitz window reads the same
        # odometer digits of v, so the blocks are not independent: the
        # direct estimate stays at or below log2 6 bits, while the sum of
        # the t/16 block estimates grows linearly, 2 bits a block
        base = measures.ToeplitzBase()
        for t in (64, 128, 256):
            y = base.draw(2000, 0, t - 1, RNG(seed))["y"].astype(np.uint8)
            fm = entropy.FeatureMetric(y, np.ones(t, dtype=np.int64))
            direct, = entropy.feature_entropy_bits(fm, [0.25], block_dim=None)
            assert direct <= math.log2(6) + 1e-12
            assert entropy.feature_entropy_bits(fm, [0.25]) == [t / 8]


def peak_bytes(fn, *args):
    """Peak traced allocation of one call, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    N = 2000

    def block(self):
        X = RNG(8).integers(0, 2, (self.N, 16)).astype(np.uint8)
        return entropy.FeatureMetric(X, np.ones(16, dtype=np.int64))

    @pytest.mark.parametrize("relation", ["block", "one ball"])
    def test_greedy_makes_no_n_by_n_copy(self, relation):
        # a transposed copy of the relation alone takes n**2 bytes; the
        # one-ball relation covers every point with the first ball
        n = self.N
        if relation == "block":
            counts = self.block().pair_matrix()
            cover = entropy._cover_relation(counts, 16, 0.25, None)
        else:
            cover = np.ones((n, n), bool)
        assert peak_bytes(entropy.greedy_cover_count, cover, 0.25,
                          units(n)) < n * n // 8

    def test_greedy_copies_take_one_chunk_of_rows(self):
        # points drawn 1-3 times: the copies are summed over at most 255
        # rows at once, each widened to the count dtype, never over all n
        n = self.N
        cover = entropy._cover_relation(self.block().pair_matrix(), 16, 0.25,
                                        None)
        counts = RNG(9).integers(1, 4, n)
        assert peak_bytes(entropy.greedy_cover_count, cover, 0.25,
                          counts) < 255 * n * 4

    def test_pair_matrix_makes_no_n_by_n_temporary(self):
        # the result (n**2 bytes at total weight 16) plus a quarter of it
        # for packing and the row-block buffer; an n x n XOR plane alone
        # would take 2 n**2 bytes
        n = self.N
        assert peak_bytes(self.block().pair_matrix) < n * n * 5 // 4


def python_process(*args: str) -> subprocess.CompletedProcess:
    """A finished fresh interpreter run with `args` that imports this
    adicop."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def run_python(*args: str) -> str:
    """stdout of a fresh interpreter run with `args` that imports this
    adicop; the run must exit 0."""
    proc = python_process(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNoMaskedArrays:
    def test_scaling_does_not_import_numpy_ma(self):
        # np.unique without return_* arguments imports numpy.ma on first
        # call (numpy 2.x), a cost paid once per process; neither mode
        # may load it unless importing numpy already did
        script = (
            "import contextlib, io, sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from adicop import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for mode in ('z', 'd'):\n"
            "        cli.main(['scaling', '--mode', mode, '--sigma', '1111',\n"
            "                  '--scales', '2 4', '--samples', '200'])\n"
            "print(before, 'numpy.ma' in sys.modules)\n")
        before, after = run_python("-c", script).split()
        assert after == before


class TestLazyThreadPool:
    def test_one_worker_does_not_import_the_thread_pool(self):
        # concurrent.futures pulls in logging, a few ms of every start-up;
        # only run_shards with workers > 1 needs it
        script = (
            "import contextlib, io, sys\n"
            "from adicop import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['scaling', '--mode', 'd', '--sigma', '1111',\n"
            "              '--scales', '2 4', '--samples', '200',\n"
            "              '--workers', '1'])\n"
            "print('concurrent.futures' in sys.modules)\n")
        assert run_python("-c", script).split() == ["False"]


class TestLayering:
    def test_entropy_does_not_import_the_coding_layer(self):
        # the estimators read feature matrices and symbol trees; coded
        # points and the graph of ordered pairs stay out of entropy
        script = ("import sys, adicop.entropy\n"
                  "print('adicop.coding' in sys.modules,"
                  " 'adicop.graph' in sys.modules)\n")
        assert run_python("-c", script).split() == ["False", "False"]


# (mode, scales, samples, k) refused at resolution 20 with a valid eps grid
BAD_REQUESTS = [
    ("d", [3, 4], 0, 0), ("d", [], 10, 0),
    ("d", [-1], 10, 0), ("d", [21], 10, 0),
    ("filtration", [2, 3], 10, 2), ("filtration", [3], 10, -1),
    ("filtration", [8, 9], 10, 7),
    ("filtration", [21], 10, 1), ("z", [0], 10, 0),
    ("z", [-4], 10, 0), ("z", [6], 10, 0), ("z", [2 ** 21], 10, 0),
    ("x", [3], 10, 0)]
# eps grids refused with valid scales: at the greedy an eps of 0 is refused
# only once the sample is drawn, and a repeated eps writes duplicate rows
BAD_GRIDS = {"empty": (), "zero": (0.0,), "nan": (math.nan,),
             "repeated": (0.25, 0.25)}


class TestCheckScales:
    @pytest.mark.parametrize("mode,scales,k", [
        ("d", [0, 20], 0), ("filtration", [1, 20], 0),
        ("filtration", [3, 4], 2), ("z", [1, 2 ** 20], 0),
        ("filtration", [7, 20], 6)])
    def test_edges_accepted(self, mode, scales, k):
        entropy.check_scales(mode, scales, (0.5, 0.25), 1, 20, k)

    @pytest.mark.parametrize("mode,scales,samples,k,eps_grid", [
        *[(*case, (0.25,)) for case in BAD_REQUESTS],
        *[("d", [3, 4], 10, 0, grid) for grid in BAD_GRIDS.values()]],
        # the ids pytest derives from (mode, scales, samples, k)
        ids=[f"{mode}-scales{i}-{samples}-{k}"
             for i, (mode, _, samples, k) in enumerate(BAD_REQUESTS)]
        + [f"eps-{name}" for name in BAD_GRIDS])
    def test_rejected(self, mode, scales, samples, k, eps_grid):
        with pytest.raises(ValueError):
            entropy.check_scales(mode, scales, eps_grid, samples, 20, k)

    def test_wrappers_check_before_drawing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drawn before the request was checked")
        monkeypatch.setattr(entropy.measures, "draw_sharded", refuse)
        d_sampler = MSigmaSampler((1,) * 4, 4)
        z_sampler = OmegaSigmaSampler((1,) * 4, 4, 4)
        with pytest.raises(ValueError):
            entropy.scaling_curve_d(d_sampler, [3, 5])
        with pytest.raises(ValueError):
            entropy.scaling_curve_z(z_sampler, [4, 32])
        with pytest.raises(ValueError):
            entropy.scaling_curve_d(d_sampler, [3], n_samples=0)
        for grid in BAD_GRIDS.values():
            with pytest.raises(ValueError, match="eps must"):
                entropy.scaling_curve_d(d_sampler, [3, 4], grid, 10)
            with pytest.raises(ValueError, match="eps must"):
                entropy.scaling_curve_z(z_sampler, [4, 8], grid, 10)
            if len(grid) == 1:  # filtration_scaling takes one eps
                with pytest.raises(ValueError, match="eps must"):
                    filtration.filtration_scaling((1,) * 4, 1, [2, 3],
                                                  grid[0], 10)

    @pytest.mark.parametrize("M", [2, 8])
    def test_z_refuses_digit_resolution_other_than_n(self, monkeypatch, M):
        # the z-metric runs the odometer modulo 2**N on D_N: digits above N
        # would index past the configuration, digits below N wrap too soon
        def refuse(*args, **kwargs):
            raise AssertionError("drawn before the sampler was checked")
        monkeypatch.setattr(entropy.measures, "draw_sharded", refuse)
        with pytest.raises(ValueError, match="M = N"):
            entropy.scaling_curve_z(OmegaSigmaSampler((1,) * 4, 4, M), [4, 8])

    def test_z_refuses_sampler_without_digits(self):
        # a configuration-only sampler has no digit resolution at all
        class ConfigsOnly:
            N = 4

            def draw(self, *args):
                raise AssertionError("drawn before the sampler was checked")

        with pytest.raises(ValueError, match="M = N"):
            entropy.scaling_curve_z(ConfigsOnly(), [4, 8], n_samples=10)
