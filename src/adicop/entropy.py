"""Admissible semimetrics, their averagings, and epsilon-entropy estimation.

The estimator covers an i.i.d. sample greedily with balls of radius eps/2
(so covered sets have diameter below eps) until the uncovered fraction
drops below eps, and reports log2 of the ball count.  Ball gains are kept
incrementally, as in accelerated greedy (Minoux 1978): O(n^2) per cover
instead of O(balls * n^2), with the same counts as plain greedy.  An exact
set-cover oracle is available for tiny instances to calibrate the greedy
step.

Averaged cut semimetrics are weighted Hamming distances over an explicit
feature matrix.  Since a fixed sample cannot count covers beyond roughly
log2(sample size) bits, high-dimensional feature metrics are estimated
block-additively: duplicate feature columns are collapsed exactly, the
remaining columns are split into blocks of bounded effective dimension,
and the per-block greedy estimates are summed.  Summing is the subadditive
covering bound for a split rho <= rho_1 + rho_2 and is exact up to the
multiplicative constants that the growth-class comparison absorbs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .coding import CodedPoint, adic_on_coded, diag


# ---------------------------------------------------------------------------
# semimetrics on coded points

class Semimetric:
    def dist(self, x, y) -> float:
        raise NotImplementedError


class CutW0(Semimetric):
    """Cut on the configuration value at the group identity."""

    def dist(self, x: CodedPoint, y: CodedPoint) -> float:
        return float(x.w[0] != y.w[0])


class CutRhoK(Semimetric):
    """rho_k: zero iff the configurations agree on D_k and the first k digits
    agree, one otherwise."""

    def __init__(self, k: int):
        self.k = k

    def dist(self, x: CodedPoint, y: CodedPoint) -> float:
        m = 1 << self.k
        same = (np.array_equal(x.w[:m], y.w[:m])
                and x.alpha[:self.k] == y.alpha[:self.k])
        return 0.0 if same else 1.0


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


# ---------------------------------------------------------------------------
# covering estimators

def _max_uncovered(eps: float, n: int) -> int:
    return int(math.floor(eps * n - 1e-9))


def greedy_cover_count(D: np.ndarray, eps: float) -> int:
    """Balls of radius eps/2 around sample points, greedily chosen to cover
    the most uncovered points, until fewer than an eps fraction is left.

    gains[i] counts the uncovered points in ball i; covering point j
    subtracts column j of the cover relation, which costs O(n^2 + sum of
    newly covered * n) per call.  The gains are exact integers, so argmax
    ties and the count are those of plain greedy.  D need not be symmetric.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    n = D.shape[0]
    cover = D <= eps / 2 + 1e-12
    cover_t = np.ascontiguousarray(cover.T)
    gains = cover.sum(axis=1)
    uncovered = np.ones(n, dtype=bool)
    allow = _max_uncovered(eps, n)
    balls = 0
    while np.count_nonzero(uncovered) > allow:
        c = int(np.argmax(gains))
        if gains[c] == 0:
            raise ValueError("uncovered points lie in no ball")
        new = np.flatnonzero(cover[c] & uncovered)
        uncovered[new] = False
        gains -= cover_t[new].sum(axis=0)
        balls += 1
    return max(balls, 1)


def greedy_cover_bits(D: np.ndarray, eps: float) -> float:
    return math.log2(greedy_cover_count(D, eps))


EXACT_COVER_LIMIT = 24


def exact_cover_count(D: np.ndarray, eps: float, weights=None) -> int:
    """Minimal number of eps/2-balls centered at points leaving less than an
    eps fraction of the mass uncovered; exhaustive, tiny instances only."""
    n = D.shape[0]
    if n > EXACT_COVER_LIMIT:
        raise ValueError(f"exact covering limited to {EXACT_COVER_LIMIT} points")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    total = w.sum()
    cover = D <= eps / 2 + 1e-12
    masks = []
    for i in range(n):
        m = 0
        for j in np.nonzero(cover[i])[0]:
            m |= 1 << int(j)
        masks.append(m)
    masks = sorted(set(masks), key=lambda m: -bin(m).count("1"))
    # drop masks dominated by another
    masks = [m for i, m in enumerate(masks)
             if not any(m | o == o for o in masks[:i])]
    need = total - eps * total + 1e-12 * total

    def mass(m: int) -> float:
        return float(sum(w[j] for j in range(n) if (m >> j) & 1))

    upper = greedy_cover_count(D, eps)
    for k in range(1, upper + 1):
        for combo in itertools.combinations(masks, k):
            u = 0
            for m in combo:
                u |= m
            if mass(u) >= need:
                return k
    return upper


# ---------------------------------------------------------------------------
# feature-based weighted Hamming metrics

@dataclass
class FeatureMetric:
    """Weighted Hamming over binary feature columns: an explicit form of an
    averaged cut semimetric.  Weights need not sum to one (constant columns
    contribute nothing and may be dropped exactly)."""

    X: np.ndarray          # (n_samples, d) uint8
    weights: np.ndarray    # (d,)

    def pair_matrix(self) -> np.ndarray:
        Xf = self.X.astype(np.float64)
        Xw = Xf * self.weights
        G = Xf @ Xw.T
        a = np.einsum("ij,ij->i", Xf, Xw)
        D = a[:, None] + a[None, :] - 2 * G
        np.clip(D, 0, None, out=D)
        return D

    def dedup(self) -> "FeatureMetric":
        """Collapse duplicate columns (merging weights) and drop constant
        columns; the induced metric on the sample is unchanged."""
        if self.X.shape[1] == 0:
            return self
        cols, inv = np.unique(self.X.T, axis=0, return_inverse=True)
        wsum = np.zeros(cols.shape[0])
        np.add.at(wsum, inv, self.weights)
        keep = ~np.all(cols == cols[:, :1], axis=1)
        return FeatureMetric(cols[keep].T.copy(), wsum[keep])


BLOCK_DIM = 16


def feature_entropy_bits(fm: FeatureMetric, eps: float,
                         block_dim: int | None = BLOCK_DIM) -> float:
    """Epsilon-entropy estimate for a feature metric.

    After exact column dedup the metric is estimated directly when its
    effective dimension fits the sample, and block-additively otherwise:
    columns are split into weight-balanced blocks, each block is
    renormalized and estimated at the same eps, and the estimates are
    summed (covering entropy is additive across independent blocks up to
    growth-class constants).  block_dim=None disables splitting.
    """
    fm = fm.dedup()
    d = fm.X.shape[1]
    if d == 0:
        return 0.0
    if block_dim is None or d <= block_dim:
        w = fm.weights / fm.weights.sum()
        D = FeatureMetric(fm.X, w).pair_matrix()
        return greedy_cover_bits(D, eps)
    order = np.argsort(-fm.weights, kind="stable")
    n_blocks = math.ceil(d / block_dim)
    total = 0.0
    for b in range(n_blocks):
        idx = order[b::n_blocks]
        sub = FeatureMetric(fm.X[:, idx], fm.weights[idx])
        total += feature_entropy_bits(sub, eps, block_dim)
    return total


# ---------------------------------------------------------------------------
# entropy curves and growth-class comparison

@dataclass
class EntropyCurve:
    rows: list = field(default_factory=list)  # (scale, eps, bits, samples, seed)

    def add(self, scale, eps, bits, samples, seed):
        self.rows.append((scale, eps, float(bits), samples, seed))

    def bits(self, eps=None):
        return [r[2] for r in self.rows if eps is None or r[1] == eps]

    def scales(self, eps=None):
        return [r[0] for r in self.rows if eps is None or r[1] == eps]

    def to_csv(self, path, header_lines=()):
        with open(path, "w") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            f.write("scale,eps,bits,samples,seed\n")
            for scale, eps, bits, samples, seed in self.rows:
                f.write(f"{scale},{eps},{bits:.6f},{samples},{seed}\n")


def asymp_compare(bits, target, spread_tol: float = 2.0,
                  drift_tol: float = 1.0) -> dict:
    """Growth-class comparison: per-scale gaps log2(bits) - log2(target) must
    have bounded spread and no monotone drift over the top half of scales."""
    if len(bits) < 2:
        raise ValueError("need at least two scales")
    gaps = [math.log2(max(b, 0.25)) - math.log2(t)
            for b, t in zip(bits, target)]
    spread = max(gaps) - min(gaps)
    top = gaps[len(gaps) // 2:]
    diffs = np.diff(top)
    monotone = bool(np.all(diffs >= -1e-9) or np.all(diffs <= 1e-9))
    drift = abs(top[-1] - top[0])
    ok = spread <= spread_tol and not (monotone and drift > drift_tol)
    return {"pass": ok, "gaps": gaps, "spread": spread,
            "drift_top_half": drift, "monotone_top_half": monotone,
            "spread_tol": spread_tol, "drift_tol": drift_tol}


# ---------------------------------------------------------------------------
# scaling curves

DEFAULT_EPS_GRID = (0.5, 0.25, 0.1)


def group_feature_metric(w: np.ndarray, n: int) -> FeatureMetric:
    """The cut on w(0) averaged over D_n: normalized Hamming between the
    restrictions of the configurations to D_n."""
    d = 1 << n
    return FeatureMetric(w[:, :d], np.full(d, 1.0 / d))


def scaling_curve_d(sampler, levels, eps_grid=DEFAULT_EPS_GRID,
                    n_samples: int = 2000, seed: int = 0) -> EntropyCurve:
    """Entropy curve of the group-averaged cut metric at equipment levels n."""
    rng = np.random.default_rng(seed)
    w = sampler.draw_w(n_samples, rng)
    curve = EntropyCurve()
    for n in levels:
        if (1 << n) > w.shape[1]:
            raise ValueError(f"equipment level {n} beyond sampler resolution")
        fm = group_feature_metric(w, n)
        for eps in eps_grid:
            curve.add(n, eps, feature_entropy_bits(fm, eps), n_samples, seed)
    return curve


def z_feature_metric(w: np.ndarray, alpha: np.ndarray, t: int) -> FeatureMetric:
    """The cut on w(0) averaged over t adic steps.

    After j steps the configuration is translated by the accumulated carry
    a XOR (a + j), a the digit value, so the averaged cut reads w at those
    masks.  The odometer is taken cyclically modulo the digit resolution;
    wrap-around affects a t/2**M fraction of samples.
    """
    n, size = w.shape
    M = size.bit_length() - 1
    j = np.arange(t, dtype=np.int64)
    masks = (alpha[:, None] ^ ((alpha[:, None] + j[None, :]) % size))
    feats = np.take_along_axis(w, masks, axis=1)
    return FeatureMetric(feats, np.full(t, 1.0 / t))


def z_aligned_metric(w: np.ndarray, alpha: np.ndarray, t: int) -> FeatureMetric:
    """Phase-aligned form of the t-step averaged cut.

    Shifting each orbit to the next dyadic-grid point of level log2(t), the
    averaged window reads w on a single translated copy of D_m (translation
    = the carry mask), in an order that can be canonicalized.  This removes
    the odometer phase, a growth-class-neutral reduction that lets duplicate
    columns collapse globally.
    """
    n, size = w.shape
    m = t.bit_length() - 1
    high = alpha >> m
    bump = (alpha & (t - 1)) != 0
    carry = (high ^ ((high + bump) % (size >> m))) << m
    cols = carry[:, None] | np.arange(t, dtype=np.int64)[None, :]
    feats = np.take_along_axis(w, cols, axis=1)
    return FeatureMetric(feats, np.full(t, 1.0 / t))


def scaling_curve_z(sampler, scales, eps_grid=DEFAULT_EPS_GRID,
                    n_samples: int = 2000, seed: int = 0) -> EntropyCurve:
    """Entropy curve of the adic-averaged cut metric at dyadic times t.

    Two covering estimates are combined by max: the plain greedy estimate of
    the averaged metric itself (sharp at small scales, saturating near
    log2(sample size)) and the block-additive estimate of its phase-aligned
    form (tracks the effective dimension at large scales).
    """
    rng = np.random.default_rng(seed)
    d = sampler.draw(n_samples, rng)
    w, alpha = d["w"], d["alpha"]
    curve = EntropyCurve()
    for t in scales:
        if t & (t - 1) or t > w.shape[1]:
            raise ValueError(f"scale {t} must be a dyadic time within resolution")
        direct = z_feature_metric(w, alpha, t)
        aligned = z_aligned_metric(w, alpha, t)
        for eps in eps_grid:
            bits = max(feature_entropy_bits(direct, eps, block_dim=None),
                       feature_entropy_bits(aligned, eps))
            curve.add(t, eps, bits, n_samples, seed)
    return curve


def sigma_target_d(sigma, levels):
    from .dyadic import sigma_extend
    return [1 << sum(sigma_extend(sigma, n)) for n in levels]


def sigma_target_z(sigma, scales):
    from .dyadic import sigma_extend
    return [1 << sum(sigma_extend(sigma, t.bit_length() - 1)) for t in scales]
