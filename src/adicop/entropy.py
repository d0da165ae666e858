"""The semimetric base class and epsilon-entropy estimation.

The estimator covers an i.i.d. sample greedily with balls of radius eps/2
(so covered sets have diameter below eps) until the uncovered fraction
drops below eps, and reports log2 of the ball count.  Copies of a point
(equal feature rows, or symbol trees in one automorphism orbit) are one
point weighted by their count, numbered by first occurrence.  Balls are
the columns of a symmetric bool cover relation: cover[i, j] reads "point i
lies in the ball around j".  Ball gains are count-weighted column sums,
kept incrementally as in accelerated greedy (Minoux 1978): O(n^2) per
cover instead of O(balls * n^2).  Gains only fall, and a shared uncovered
point lowers a gain by its count, at least 1.  So the balls plain greedy
(argmax, earliest index) takes at a best gain g are the lexicographically
first maximal independent set of the balls tied at g, two balls conflicting
when they share an uncovered point (Blelloch, Fineman and Shun 2012), and
one step takes a run of them: the counts are plain greedy's.  On a
reflexive relation it stops, exactly, once the best gain is 1.

Averaged cut semimetrics are weighted Hamming distances over a binary
feature matrix with integer column multiplicities, counted by XOR and
popcount on bit-packed rows, one block of rows at a time.  A fixed sample
cannot count covers beyond about log2(sample size) bits, so
high-dimensional feature metrics are estimated block-additively:
duplicate columns are collapsed exactly, the rest are split into blocks
of bounded effective dimension, and the per-block greedy estimates are
summed.  Summing is the subadditive covering bound for a split
rho <= rho_1 + rho_2; it keeps the growth class only for independent
blocks, as under m^sigma and omega^sigma, whose cosets carry independent bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import measures
from .dyadic import N_MAX, coset_count


# ---------------------------------------------------------------------------
# semimetrics

class Semimetric:
    def dist(self, x, y) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# covering estimators

def _max_uncovered(eps: float, n: int) -> int:
    # exact, as n may exceed floats (q**(2**m)); 0, not -1, at eps * n < 1e-9
    return max(0, math.floor(Fraction(eps) * n - Fraction(1e-9)))


def _cover_relation(D: np.ndarray, unit, eps: float, out) -> np.ndarray:
    # the one radius rule on integer counts D: D / unit <= eps/2, with
    # slack for float rounding, decided by the integer floor of the bound;
    # entry [i, j] reads "i lies in the ball around j"; out may be None
    bound = unit * (eps / 2 + 1e-12)
    return np.less_equal(D, math.floor(bound) if math.isfinite(bound)
                         else bound, out=out)


COVER_ROWS = 64  # relation rows gathered or summed at once, <= 255
KEY_TABLE = 1 << 16  # integer keys below it are numbered without a sort


def greedy_cover_count(cover: np.ndarray, eps: float, counts: np.ndarray) -> int:
    """Balls of radius eps/2 around distinct sample points, greedily chosen
    to cover the most uncovered sample weight, until at most an eps
    fraction of it is left; point i was drawn counts[i] >= 1 times.

    cover[i, j] is the bool relation "i lies in the ball around j"; it must be
    reflexive and symmetric, as ball j's members are read from its row.
    gains[j], the uncovered weight in ball j, is the count-weighted sum of the
    rows of all points, less those of newly covered points; each sum takes at
    most 255 rows: their byte sum (exact) widened, plus count - 1 more times
    each row with copies, so no temporary exceeds 255 rows.  A step
    scans the first COVER_ROWS balls tied at the best gain, in index order as
    int bitsets, and takes each that shares no uncovered point with one taken
    before it.  Copies would share a column, so with points numbered by first
    occurrence the balls are those of plain greedy on the sample with every
    copy listed.  At a best gain of 1 each uncovered point has weight 1 and
    lies in its own ball, so plain greedy would go on one unit per ball: the
    count is returned.  Bad counts, eps or diagonals raise ValueError.
    """
    if cover.dtype != bool:
        raise TypeError(f"cover must be a bool relation, got {cover.dtype}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if not (isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"
            and counts.shape == cover.shape[:1] and (counts >= 1).all()):
        raise ValueError("counts must be one integer >= 1 per point")
    if not cover.diagonal().all():
        raise ValueError("uncovered points lie in no ball")
    total = int(counts.sum())
    dt = np.min_scalar_type(total)
    extra = counts.astype(dt) - 1  # copies of a point beyond its first
    ones, points = cover.view(np.uint8), np.arange(len(cover))

    def row_sum(rows):  # <= 255 rows (a slice or indices); sum <= total
        out = ones[rows].sum(axis=0, dtype=np.uint8).astype(dt)
        if (copied := points[rows][extra[rows] > 0]).size:
            out += extra[copied] @ cover[copied]
        return out

    gains = np.zeros(len(cover), dt)
    for s in range(0, len(cover), 255):
        gains += row_sum(slice(s, s + 255))
    width = (len(cover) + 7) // 8  # bytes of a packed row
    uncovered = (1 << 8 * width) - 1  # point i is bit 8 * width - 1 - i
    left, allow, balls = total, _max_uncovered(eps, total), 0
    while left > allow:
        g = int(gains.max())
        if g == 1:  # each further ball covers one unit
            return balls + left - allow
        packed = np.packbits(cover[np.flatnonzero(gains == g)[:COVER_ROWS]],
                             axis=1).tobytes()
        taken = 0  # points in the balls taken at this step
        for s in range(0, len(packed), width):
            ball = int.from_bytes(packed[s:s + width], "big") & uncovered
            if not ball & taken:
                taken, left, balls = taken | ball, left - g, balls + 1
                if left <= allow:
                    break
        uncovered ^= taken
        bits = np.frombuffer(taken.to_bytes(width, "big"), np.uint8)
        new = np.flatnonzero(np.unpackbits(bits, count=len(cover)).view(bool))
        for s in range(0, len(new), COVER_ROWS):
            gains -= row_sum(new[s:s + COVER_ROWS])
    return max(balls, 1)


def first_occurrence(keys: np.ndarray):
    """Classes of equal keys in order of first occurrence: each class's
    first index, every key's class and the class sizes.  Keys other than
    integers in [0, KEY_TABLE) are first replaced by their rank; a table
    indexed by key then holds each key's least index, then its class."""
    top = keys.max(initial=0) if keys.dtype.kind in "iu" else KEY_TABLE
    if top >= KEY_TABLE or keys.min(initial=0) < 0:
        keys, top = np.unique(keys, return_inverse=True)[1], len(keys)
    # table and index share one narrow dtype, or ufunc.at leaves its fast loop
    idx = np.arange(len(keys), dtype=np.min_scalar_type(len(keys)))
    table = np.full(int(top) + 1, len(keys), idx.dtype)
    np.minimum.at(table, keys, idx)
    first = np.flatnonzero(table[keys] == idx)
    table[keys[first]] = idx[:len(first)]
    inv = table[keys].astype(np.intp)  # wide: callers multiply the classes
    return first, inv, np.bincount(inv, minlength=len(first))


def _cover_bits(D: np.ndarray, unit, counts: np.ndarray,
                eps_grid) -> list[float]:
    """log2 of the greedy ball count at each eps, for distinct points with
    multiplicities counts at distances D / unit, D integer counts (feature
    blocks pass their weight, orbit tables 2**m).  D is used up: when its
    entries are bytes the last relation is written over it, so one eps
    takes one n x n array (two per feature block cost a growth-d pass 61k
    page faults, one costs it 7k)."""
    outs = [None] * (len(eps_grid) - 1) + [
        D.view(bool) if D.itemsize == 1 else None]
    return [math.log2(greedy_cover_count(_cover_relation(D, unit, eps, out),
                                         eps, counts))
            for eps, out in zip(eps_grid, outs)]


# ---------------------------------------------------------------------------
# feature-based weighted Hamming metrics

ROW_BLOCK = 128  # rows of a pair matrix counted at once


@dataclass
class FeatureMetric:
    """Weighted Hamming over binary feature columns with integer column
    multiplicities w, sum_c w_c [x_ic != x_jc] / W with W = sum_c w_c: an
    explicit form of an averaged cut semimetric."""

    X: np.ndarray          # (n_samples, d) uint8
    weights: np.ndarray    # (d,) integer multiplicities

    def pair_matrix(self) -> np.ndarray:
        """Integer counts M = metric * W.  Each byte of packed columns of
        multiplicity k adds k * popcount(x_i ^ x_j) <= W, so nothing wraps
        in W's dtype, which k is cast to (a Python int would multiply in
        uint8); the first byte writes over M, with no zero fill.  Rows go
        ROW_BLOCK at a time through one byte buffer: no other n x n array."""
        n = len(self.X)
        dt = np.min_scalar_type(int(self.weights.sum()))
        words = []  # (k, one packed byte of every row)
        for k in sorted(set(self.weights.tolist())):  # np.unique imports np.ma
            packed = np.packbits(self.X[:, self.weights == k], axis=1)
            words += [(dt.type(k), word)
                      for word in np.ascontiguousarray(packed.T)]
        M = (np.empty if words else np.zeros)((n, n), dt)
        buf = np.empty((min(n, ROW_BLOCK), n), np.uint8)
        for r in range(0, n, ROW_BLOCK):
            block = M[r:r + ROW_BLOCK]
            x = buf[:len(block)]
            for j, (k, word) in enumerate(words):
                np.bitwise_xor(word[r:r + ROW_BLOCK, None], word, out=x)
                np.bitwise_count(x, out=x if j else block)
                if j:
                    block += x if k == 1 else x * k
                elif k != 1:
                    block *= k
        return M

    def dedup(self) -> "FeatureMetric":
        """Merge duplicate columns (adding multiplicities), drop constant
        ones; the metric is unchanged.  Order: np.unique(X.T, axis=0)'s."""
        if self.X.shape[1] == 0:
            return self
        keys = _row_keys(np.ascontiguousarray(self.X.T))
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        cols = self.X[:, first]
        wsum = np.zeros(len(first), self.weights.dtype)
        np.add.at(wsum, inv, self.weights)
        keep = ~np.all(cols == cols[:1], axis=0)
        return FeatureMetric(cols[:, keep], wsum[keep])


def _row_keys(X: np.ndarray) -> np.ndarray:
    """Void keys of a binary matrix's rows, sorted as big-endian bit strings."""
    packed = np.ascontiguousarray(np.packbits(X, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


BLOCK_DIM = 16


def feature_entropy_bits(fm: FeatureMetric, eps_grid,
                         block_dim: int | None = BLOCK_DIM) -> list[float]:
    """Epsilon-entropy estimates for a feature metric, one per eps.

    After one exact column dedup the metric is estimated directly when its
    effective dimension fits the sample, and block-additively otherwise:
    the columns are dealt by decreasing weight into ceil(d / block_dim)
    weight-balanced blocks, each block is estimated at each eps over its
    own total weight, and the estimates are summed (covering entropy is
    additive across independent blocks up to growth-class constants).
    A block's points are its distinct rows, and one pair matrix of them
    serves every eps.  block_dim=None disables splitting.
    """
    fm = fm.dedup()
    d = fm.X.shape[1]
    totals = [0.0] * len(eps_grid)
    if d == 0:
        return totals
    n_blocks = 1 if block_dim is None else math.ceil(d / block_dim)
    order = np.argsort(-fm.weights, kind="stable")
    for b in range(n_blocks):
        # in dedup's column order, which fixes the summation order
        idx = np.sort(order[b::n_blocks])
        X = fm.X[:, idx]
        key = (measures.pack_words if len(idx) <= 1 << measures.PACK_LOG2
               else _row_keys)  # first_occurrence ignores the key order
        first, _, counts = first_occurrence(key(X))
        block = FeatureMetric(X[first], fm.weights[idx])
        bits = _cover_bits(block.pair_matrix(), block.weights.sum(), counts,
                           eps_grid)
        totals = [t + x for t, x in zip(totals, bits)]
    return totals


# ---------------------------------------------------------------------------
# entropy curves and growth-class comparison

@dataclass
class EntropyCurve:
    rows: list = field(default_factory=list)  # (scale, eps, bits, samples, seed)

    def add(self, scale, eps, bits, samples, seed):
        self.rows.append((scale, eps, float(bits), samples, seed))

    def bits(self, eps=None):
        return [r[2] for r in self.rows if eps is None or r[1] == eps]

    def to_csv(self, path, header_lines=()):
        with open(path, "w") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            f.write("scale,eps,bits,samples,seed\n")
            for scale, eps, bits, samples, seed in self.rows:
                f.write(f"{scale},{eps},{bits:.6f},{samples},{seed}\n")


SPREAD_TOL = 2.0  # bound on max - min of the log2 gaps
DRIFT_TOL = 1.0  # bound on a monotone top-half drift of the gaps


def asymp_compare(bits, target) -> dict:
    """Growth-class comparison: per-scale gaps log2(bits) - log2(target) must
    have bounded spread and no monotone drift over the top half of scales."""
    if len(bits) < 2 or len(bits) != len(target):
        raise ValueError("need two or more scales and one target per scale,"
                         f" got {len(bits)} bits and {len(target)} targets")
    gaps = [math.log2(max(b, 0.25)) - math.log2(t)
            for b, t in zip(bits, target)]
    spread = max(gaps) - min(gaps)
    top = gaps[len(gaps) // 2:]
    diffs = np.diff(top)
    monotone = bool(np.all(diffs >= -1e-9) or np.all(diffs <= 1e-9))
    drift = abs(top[-1] - top[0])
    ok = spread <= SPREAD_TOL and not (monotone and drift > DRIFT_TOL)
    return {"pass": ok, "gaps": gaps, "spread": spread,
            "drift_top_half": drift, "monotone_top_half": monotone,
            "spread_tol": SPREAD_TOL, "drift_tol": DRIFT_TOL}


# ---------------------------------------------------------------------------
# scaling curves

DEFAULT_EPS_GRID = (0.5, 0.25, 0.1)


def group_feature_metric(w: np.ndarray, n: int) -> FeatureMetric:
    """The cut on w(0) averaged over D_n: normalized Hamming between the
    restrictions of the configurations to D_n."""
    d = 1 << n
    return FeatureMetric(w[:, :d], np.ones(d, dtype=np.int64))


def z_feature_metric(w: np.ndarray, alpha: np.ndarray, t: int) -> FeatureMetric:
    """The cut on w(0) averaged over t adic steps.

    After j steps the configuration is translated by the accumulated carry
    a XOR (a + j), a the digit value, so the averaged cut reads w at those
    masks.  The odometer is taken cyclically modulo the digit resolution;
    wrap-around affects a t/2**M fraction of samples.  The sample, not the
    wrap, sets the ceiling near log2(sample size): four more digits moved no
    seed-0 reading by more than 0.09 bits.
    """
    n, size = w.shape
    if not size or size & (size - 1):
        raise ValueError(f"w has {size} columns, not a power of two")
    masks = alpha[:, None] + np.arange(t, dtype=np.int64)
    masks &= size - 1  # the odometer modulo 2**N, in place
    masks ^= alpha[:, None]
    feats = np.take_along_axis(w, masks, axis=1)
    return FeatureMetric(feats, np.ones(t, dtype=np.int64))


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
    return FeatureMetric(feats, np.ones(t, dtype=np.int64))


def z_estimates(w: np.ndarray, alpha: np.ndarray, t: int, eps_grid):
    """Covering estimates of the t-step averaged cut, one per eps: direct
    (plain greedy on the metric, sharp at small t, saturating near
    log2(sample size)) and aligned (block-additive on its phase-aligned
    form, tracking the effective dimension at large t)."""
    check_scales("z", [t], eps_grid, len(w), w.shape[1].bit_length() - 1)
    return (feature_entropy_bits(z_feature_metric(w, alpha, t), eps_grid,
                                 block_dim=None),
            feature_entropy_bits(z_aligned_metric(w, alpha, t), eps_grid))


def check_scales(mode: str, scales, eps_grid, samples: int, resolution: int,
                 k: int = 0) -> None:
    """Reject a curve request before anything is drawn (ValueError).

    Scales are equipment levels n (mode "d"), filtration levels n > k
    (mode "filtration") or dyadic times t = 2**n (mode "z"); every n must
    lie within the resolution, and 0 <= k <= measures.PACK_LOG2 in every
    mode (a filtration leaf symbol packs the 2**k digits of D_k in a code).
    The eps grid is nonempty, with no value repeated, each finite and > 0.
    """
    if mode not in ("d", "z", "filtration"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not scales:
        raise ValueError("no scales given")
    eps = list(eps_grid)
    if (not eps or len(set(eps)) < len(eps)
            or not all(math.isfinite(e) and e > 0 for e in eps)):
        raise ValueError(f"eps must be distinct, finite and positive, got {eps}")
    if not 0 <= k <= measures.PACK_LOG2:
        raise ValueError(f"k must lie in [0, {measures.PACK_LOG2}], 2**k "
                         f"digits packed per symbol, got {k}")
    lowest = k + 1 if mode == "filtration" else 0
    for s in scales:
        n = s.bit_length() - 1 if mode == "z" else s
        if mode == "z" and not (s >= 1 and s == 1 << n and n <= resolution):
            raise ValueError(f"scale {s} must be a dyadic time 2**n with "
                             f"0 <= n <= {resolution}")
        if not lowest <= n <= resolution:
            raise ValueError(f"scale {s} must lie in [{lowest}, {resolution}]"
                             + (f" (above k = {k})" if lowest else ""))


def curve_sampler(mode: str, sigma, scales, eps_grid, samples: int,
                  k: int = 0):
    """The sampler a curve of `mode` draws from: m^sigma on D_N with N the
    top scale, or omega^sigma with M = N = log2 of the top time in mode
    "z".  The request passes `check_scales` at N_MAX before it is built."""
    check_scales(mode, scales, eps_grid, samples, N_MAX, k)
    if mode == "z":
        N = max(scales).bit_length() - 1
        return measures.OmegaSigmaSampler(sigma, N, N)
    return measures.MSigmaSampler(sigma, max(scales))


def scaling_curve(mode: str, sampler, scales, eps_grid, samples: int,
                  seed: int, k: int = 0, workers: int = 1) -> EntropyCurve:
    """Entropy curve of `samples` draws from `sampler`, one row per (scale,
    eps), scale outer.

    The request passes `check_scales` at the sampler's resolution N, and mode
    "z" needs digit resolution M = N, before `measures.draw_sharded` draws
    the sample of configurations w (plus digit values alpha in mode "z").

    Mode "d" averages the cut on w(0) over D_n.  Mode "z" averages it over
    t adic steps and takes the max of its two `z_estimates`.  Mode
    "filtration" estimates K_n[rho_k] on the reduced symbol trees, which
    pass through a level whose halves are equal in the sample and split the
    others block-additively (`_split_entropy_bits`).
    """
    from .filtration import _split_entropy_bits, reduce_symbols
    check_scales(mode, scales, eps_grid, samples, sampler.N, k)
    M = getattr(sampler, "M", None)
    if mode == "z" and M != sampler.N:
        raise ValueError(f"mode z needs digit resolution M = N = {sampler.N}"
                         f", got M = {M}")
    sample = measures.draw_sharded(sampler, samples, seed, workers)
    w = sample["w"]
    memo = {}  # filtration: the levels share blocks
    curve = EntropyCurve()
    for s in scales:
        if mode == "d":
            bits = feature_entropy_bits(group_feature_metric(w, s), eps_grid)
        elif mode == "z":
            bits = map(max, *z_estimates(w, sample["alpha"], s, eps_grid))
        else:
            bits = _split_entropy_bits(reduce_symbols(w, s, k), eps_grid, memo)
        for eps, b in zip(eps_grid, bits):
            curve.add(s, eps, b, samples, seed)
    return curve


def scaling_curve_d(sampler, levels, eps_grid=DEFAULT_EPS_GRID,
                    n_samples: int = 2000, seed: int = 0) -> EntropyCurve:
    """Entropy curve of the group-averaged cut metric at equipment levels n."""
    return scaling_curve("d", sampler, levels, eps_grid, n_samples, seed)


def scaling_curve_z(sampler, scales, eps_grid=DEFAULT_EPS_GRID,
                    n_samples: int = 2000, seed: int = 0) -> EntropyCurve:
    """Entropy curve of the adic-averaged cut metric at dyadic times t."""
    return scaling_curve("z", sampler, scales, eps_grid, n_samples, seed)


def sigma_target_d(sigma, levels):
    return [coset_count(sigma, n) for n in levels]


def sigma_target_z(sigma, scales):
    return [coset_count(sigma, t.bit_length() - 1) for t in scales]
