"""Seeded samplers for the invariant-measure zoo, empirical projections and
the periodic-type classifier.

Two sampler families:

* config samplers draw configurations on D_N (optionally with a uniform
  digit sequence attached), constant on cosets of a generator subgroup;
* symbolic samplers draw pairs (window of a point of I^Z, digit sequence),
  covering products eta x m, measures of periodic type k and the aperiodic
  skew products built from a base with an odometer quotient.

A symbolic draw has two phases.  `variates(n, lo, hi, rng)` draws every
random variate of n rows (uniforms, offsets, odometer values, shifts and
the digit value alpha) as a dict of per-row arrays;
`render_rows(v, rows, lo, hi)` builds the windows on [lo, hi] of the
chosen rows from those variates alone.  `draw` is the two composed over
all rows.  Since alpha never depends on a window, theta-projection rejects
on alpha and renders only the rows it keeps, while the generator advances
exactly as it would for full draws.

Empirical measures are cylinder-frequency tables on length-L windows;
total variation between tables is the working distance throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import coset_count, coset_index, sigma_extend


# ---------------------------------------------------------------------------
# configuration samplers (measures on I^{D_N})

def coset_index_map(sigma, n: int) -> np.ndarray:
    """coset_index for every mask in D_n, as an int array of length 2**n."""
    return np.fromiter((coset_index(g, sigma, n) for g in range(1 << n)),
                       dtype=np.int64, count=1 << n)


class MSigmaSampler:
    """Pushforward of Lebesgue measure on I^{D/D^sigma}: one uniform bit per
    coset of the subgroup generated by the g_i with sigma_i = 0."""

    def __init__(self, sigma, N: int):
        self.sigma = sigma_extend(sigma, N)
        self.N = N
        self.index = coset_index_map(self.sigma, N)
        self.n_cosets = coset_count(self.sigma, N)

    def draw_w(self, n: int, rng) -> np.ndarray:
        bits = rng.integers(0, 2, size=(n, self.n_cosets), dtype=np.uint8)
        return bits[:, self.index]


def m_h_sampler(h_generators, N: int) -> MSigmaSampler:
    """Pushforward of Lebesgue measure on I^{D/H} for H generated by a subset
    of generators: same machinery with sigma = 0 exactly on H's generators."""
    gens = set(h_generators)
    return MSigmaSampler([0 if i in gens else 1 for i in range(N)], N)


class OmegaSigmaSampler(MSigmaSampler):
    """omega^sigma = m^sigma x m: the configuration plus uniform digits."""

    def __init__(self, sigma, N: int, M: int):
        super().__init__(sigma, N)
        self.M = M

    def draw(self, n: int, rng) -> dict:
        w = self.draw_w(n, rng)
        alpha = rng.integers(0, 1 << self.M, size=n, dtype=np.int64)
        return {"w": w, "alpha": alpha, "M": self.M}


# ---------------------------------------------------------------------------
# base measures on I^Z

def _rendered(sampler, v: dict, lo: int, hi: int, **extra) -> dict:
    """A full draw: the variates plus the windows of every row."""
    return {**v, "y": sampler.render_rows(v, slice(None), lo, hi), "lo": lo,
            **extra}


class BernoulliBase:
    """i.i.d. bits with success probability p; shift invariant, mixing."""

    invariant_period = 1

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        self.p = p

    def variates(self, n: int, lo: int, hi: int, rng) -> dict:
        return {"u": rng.random(size=(n, hi - lo + 1))}

    def render_rows(self, v: dict, rows, lo: int, hi: int) -> np.ndarray:
        return (v["u"][rows] < self.p).astype(np.uint8)

    def draw(self, n: int, lo: int, hi: int, rng) -> dict:
        return _rendered(self, self.variates(n, lo, hi, rng), lo, hi)


class AtomicBase:
    """Uniform mixture of shifted copies of one periodic word.

    With shifts = {0, p, 2p, ...} inside the word period the law is
    S^p-invariant, so it can serve as the base of a periodic-type measure.
    """

    def __init__(self, word, shifts):
        self.word = np.asarray(word, dtype=np.uint8)
        self.shifts = np.asarray(sorted(shifts), dtype=np.int64)
        self.invariant_period = math.gcd(
            *(int(d) for d in np.diff(self.shifts)), len(self.word)) \
            if len(self.shifts) > 1 else len(self.word)

    def variates(self, n: int, lo: int, hi: int, rng) -> dict:
        return {"off": self.shifts[rng.integers(0, len(self.shifts), size=n)]}

    def render_rows(self, v: dict, rows, lo: int, hi: int) -> np.ndarray:
        pos = v["off"][rows][:, None] + np.arange(lo, hi + 1)[None, :]
        return self.word[pos % len(self.word)]

    def draw(self, n: int, lo: int, hi: int, rng) -> dict:
        return _rendered(self, self.variates(n, lo, hi, rng), lo, hi)


class ToeplitzBase:
    """Coding of the odometer: y_j = parity of the trailing-ones count of
    (v + j), v uniform modulo 2**R.

    The word determines v (the positions with exactly one trailing one form
    a residue class mod 4, those with three a class mod 16, and so on), so
    the shift on this law has the odometer as a quotient and the level sets
    of the dyadic eigenfunctions are simply {v = r mod 2**n}.
    """

    invariant_period = 1

    def __init__(self, R: int = 24):
        self.R = R

    def render(self, val: np.ndarray, lo: int, hi: int) -> np.ndarray:
        u = (val[:, None] + np.arange(lo, hi + 1)[None, :]) % (1 << self.R)
        v = u + 1  # trailing ones of u = trailing zeros of u + 1
        lowbit = v & -v
        odd_positions = 0xAAAAAAAAAAAAAAA  # bits 1, 3, 5, ...
        return ((lowbit & odd_positions) != 0).astype(np.uint8)

    def variates(self, n: int, lo: int, hi: int, rng) -> dict:
        return {"val": rng.integers(0, 1 << self.R, size=n, dtype=np.int64)}

    def render_rows(self, v: dict, rows, lo: int, hi: int) -> np.ndarray:
        return self.render(v["val"][rows], lo, hi)

    def draw(self, n: int, lo: int, hi: int, rng) -> dict:
        return _rendered(self, self.variates(n, lo, hi, rng), lo, hi)


class OdometerLevels:
    """Level-set oracle of the dyadic eigenfunctions of a base sampler.

    level(draw, n) returns r with the sample in B(r, n); the shift
    increments the level by one mod 2**n and each level has mass 2**-n.
    """

    def __init__(self, max_level: int):
        self.max_level = max_level

    def level(self, draw: dict, n: int) -> np.ndarray:
        if n > self.max_level:
            raise ValueError(f"level {n} above resolution {self.max_level}")
        return draw["val"] & ((1 << n) - 1)


class EigenConsistencyError(ValueError):
    pass


EIGEN_PROBES = 20000
EIGEN_DEPTH = 4


def check_eigen_consistency(base, levels: OdometerLevels, rng) -> None:
    """Level sets must carry mass about 2**-n (4 binomial sigma) and the
    shift must advance the level by one."""
    d = base.draw(EIGEN_PROBES, 0, 1, rng)
    for n in range(1, EIGEN_DEPTH + 1):
        r = levels.level(d, n)
        p = 2.0 ** -n
        tol = 4 * math.sqrt(p * (1 - p) / EIGEN_PROBES)
        counts = np.bincount(r, minlength=1 << n) / EIGEN_PROBES
        if np.any(np.abs(counts - p) > tol):
            raise EigenConsistencyError(
                f"level-set mass at depth {n} deviates beyond 4 sigma")


# ---------------------------------------------------------------------------
# symbolic samplers (measures on I^Z x I^N)

class ProductSampler:
    """eta x m: independent base draw and uniform digits."""

    def __init__(self, base, M: int):
        self.base = base
        self.M = M

    def variates(self, n: int, lo: int, hi: int, rng) -> dict:
        v = self.base.variates(n, lo, hi, rng)
        v["alpha"] = rng.integers(0, 1 << self.M, size=n, dtype=np.int64)
        return v

    def render_rows(self, v: dict, rows, lo: int, hi: int) -> np.ndarray:
        return self.base.render_rows(v, rows, lo, hi)

    def draw(self, n: int, lo: int, hi: int, rng) -> dict:
        return _rendered(self, self.variates(n, lo, hi, rng), lo, hi,
                         M=self.M)


class PeriodicTypeSampler:
    """D_k[eta]: pick j uniform below 2**k, emit (S^j y, alpha) with the low
    k digits of alpha encoding j and the rest uniform.

    Requires the base law to be S^{2**k}-invariant.
    """

    def __init__(self, k: int, base, M: int):
        if M < k:
            raise ValueError("digit resolution below the periodic type")
        if (1 << k) % base.invariant_period:
            raise ValueError(f"base is not S^{1 << k}-invariant")
        self.k = k
        self.base = base
        self.M = M

    def variates(self, n: int, lo: int, hi: int, rng) -> dict:
        span = 1 << self.k
        j = rng.integers(0, span, size=n, dtype=np.int64)
        v = self.base.variates(n, lo, hi + span - 1, rng)
        v["j"] = j
        v["alpha"] = j + (rng.integers(0, 1 << (self.M - self.k), size=n,
                                       dtype=np.int64) << self.k)
        return v

    def render_rows(self, v: dict, rows, lo: int, hi: int) -> np.ndarray:
        y = self.base.render_rows(v, rows, lo, hi + (1 << self.k) - 1)
        cols = v["j"][rows][:, None] + np.arange(hi - lo + 1)[None, :]
        return np.take_along_axis(y, cols, axis=1)

    def draw(self, n: int, lo: int, hi: int, rng) -> dict:
        d = _rendered(self, self.variates(n, lo, hi, rng), lo, hi,
                      M=self.M)
        if "val" in d:  # the odometer value of the shifted window
            d["val"] = d["val"] + d["j"]
        return d


class AperiodicSampler:
    """nu^(alpha)[eta]: the skew product with delta fibers.

    The digit value is forced to (level - r(n, alpha)) mod 2**n at every
    depth n, so conditioning the digits on 0 mod 2**n restricts the base to
    the level set B(r(n, alpha), n).  The level oracle is checked against
    the base on a fixed probe sample.
    """

    def __init__(self, base, levels: OdometerLevels, alpha):
        self.base = base
        self.levels = levels
        self.alpha = tuple(int(a) for a in alpha)
        if any(a not in (0, 1) for a in self.alpha):
            raise ValueError(f"alpha digits must be bits, got {self.alpha}")
        if len(self.alpha) > levels.max_level:
            raise ValueError("alpha longer than the level resolution")
        # finite digit specs are zero-extended to the full resolution
        self.M = levels.max_level
        self.r_mask = sum(a << i for i, a in enumerate(self.alpha))
        check_eigen_consistency(base, levels, np.random.default_rng(0))

    def variates(self, n: int, lo: int, hi: int, rng) -> dict:
        v = self.base.variates(n, lo, hi, rng)
        r = self.levels.level(v, self.M)
        v["alpha"] = (r - self.r_mask) & ((1 << self.M) - 1)
        return v

    def render_rows(self, v: dict, rows, lo: int, hi: int) -> np.ndarray:
        return self.base.render_rows(v, rows, lo, hi)

    def draw(self, n: int, lo: int, hi: int, rng) -> dict:
        return _rendered(self, self.variates(n, lo, hi, rng), lo, hi,
                         M=self.M)


def make_aperiodic(base, levels: OdometerLevels, alpha) -> AperiodicSampler:
    return AperiodicSampler(base, levels, alpha)


# ---------------------------------------------------------------------------
# empirical measures

class CylinderTable:
    """Frequencies of length-L words read at a fixed window position."""

    def __init__(self, counts: np.ndarray, L: int, start: int):
        self.counts = np.asarray(counts, dtype=np.float64)
        self.L = L
        self.start = start
        self.n = float(self.counts.sum())

    @property
    def freq(self) -> np.ndarray:
        return self.counts / self.n if self.n else self.counts

    def tv(self, other: "CylinderTable") -> float:
        if self.L != other.L:
            raise ValueError("cylinder lengths differ")
        return 0.5 * float(np.abs(self.freq - other.freq).sum())

    @staticmethod
    def mixture(tables, weights) -> "CylinderTable":
        t0 = tables[0]
        f = sum(w * t.freq for t, w in zip(tables, weights))
        return CylinderTable(f, t0.L, t0.start)


def pack_words(y: np.ndarray, lo: int, start: int, L: int) -> np.ndarray:
    """Encode the length-L window starting at integer position `start` as an
    integer per sample (bit i of the code = symbol at start + i)."""
    c0 = start - lo
    if c0 < 0 or c0 + L > y.shape[1]:
        raise ValueError("window does not cover the requested cylinder")
    block = y[:, c0:c0 + L].astype(np.int64)
    return block @ (1 << np.arange(L, dtype=np.int64))


MAX_DRAWS = 50_000_000  # rows one projection may draw


def project_theta(sampler, k: int, r: int, L: int, n_accept: int, rng,
                  shift: int = 0) -> tuple[CylinderTable, float]:
    """Empirical P_{r,k}: condition the digit value on r modulo 2**k, shift
    the window by `shift`, tabulate length-L words at position -L.

    Conditioning is by rejection on alpha: each chunk draws the variates of
    every row, so the generator advances as for full draws, and renders
    windows only for the kept rows.  Draws continue until n_accept samples
    are kept; the acceptance ratio (about 2**-k) is returned with the table.
    """
    if n_accept < 1:
        raise ValueError(f"n_accept must be at least 1, got {n_accept}")
    if not 0 <= k <= sampler.M:
        raise ValueError(f"k must lie in [0, M = {sampler.M}], got {k}")
    if not 0 <= r < 1 << k:
        raise ValueError(f"r must lie in [0, 2**{k}), got {r}")
    lo, hi = shift - L, shift - 1
    counts = np.zeros(1 << L)
    kept = total = 0
    chunk = max(2048, min(1 << 18, n_accept << (k + 1)))
    while kept < n_accept:
        if total > MAX_DRAWS:
            raise RuntimeError("zero or too few accepted samples")
        v = sampler.variates(chunk, lo, hi, rng)
        hits = np.flatnonzero((v["alpha"] & ((1 << k) - 1)) == r)
        rows = hits[:n_accept - kept]
        # stopping mid-chunk: count draws up to the last kept sample
        total += int(rows[-1]) + 1 if len(rows) < len(hits) else chunk
        if len(rows):
            codes = pack_words(sampler.render_rows(v, rows, lo, hi), lo, lo, L)
            counts += np.bincount(codes, minlength=1 << L)
            kept += len(rows)
        del v  # free this chunk's variates before the next chunk is drawn
    return CylinderTable(counts, L, -L), kept / total


def theta_verdict(tables, acceptance, tol: float, n_accept: int) -> dict:
    """Verdict of the theta ladder theta_0, ..., theta_{k_max + 1}: the TV
    distances of successive tables, and the least k with every later step
    below tol, or aperiodic-up-to-k_max."""
    k_max = len(tables) - 2
    ladder = [tables[k].tv(tables[k + 1]) for k in range(k_max + 1)]
    verdict = next((k for k in range(k_max + 1)
                    if all(step <= tol for step in ladder[k:])),
                   f"aperiodic-up-to-{k_max}")
    return {"verdict": verdict, "tv_ladder": ladder,
            "acceptance": list(acceptance), "tol": tol, "L": tables[0].L,
            "n_accept": n_accept}


def classify_periodic_type(sampler, k_max: int, L: int, n_accept: int,
                           tol: float, rng) -> dict:
    """Smallest k at which the theta ladder stabilizes, or aperiodic-up-to-k_max.

    Computes empirical theta_0, ..., theta_{k_max + 1} and their successive
    total-variation distances; see `theta_verdict`.
    """
    tables, acceptance = zip(*(
        project_theta(sampler, k, 0, L, n_accept, rng)
        for k in range(k_max + 2)))
    return theta_verdict(tables, acceptance, tol, n_accept)

