"""Seeded samplers for the invariant-measure zoo, empirical projections and
the periodic-type classifier.

Two sampler families:

* config samplers draw configurations on D_N (optionally with a uniform
  digit sequence attached), constant on cosets of a generator subgroup;
* symbolic samplers draw pairs (window of a point of I^Z, digit sequence),
  covering products eta x m, measures of periodic type k and the aperiodic
  skew products built from a base with an odometer quotient.

Every symbolic `draw(n, lo, hi, rng, k, r)` returns n rows whose digit
value alpha satisfies alpha = r (mod 2**k), drawn from the law conditioned
on that event; k = 0 is the unconditioned law.

Empirical measures are cylinder-frequency tables on length-L windows;
total variation between tables is the working distance throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import alpha_value, check_bits, coset_count, sigma_extend


# ---------------------------------------------------------------------------
# configuration samplers (measures on I^{D_N})

def coset_index_map(sigma, n: int) -> np.ndarray:
    """Canonical index of the coset of (D^sigma intersect D_n) of every mask
    in D_n: the mask's bits at the positions with sigma_i = 1, packed in
    order, so two masks share an index iff they differ inside D^sigma, and
    the range is {0, ..., 2**sum(sigma_i, i<n) - 1}.  Built by doubling: the
    masks of D_{i+1} above D_i index as those below plus sigma_i << (the
    ones of sigma below i)."""
    index = np.zeros(1 << n, dtype=np.int64)
    ones = 0
    for i, s in enumerate(sigma_extend(sigma, n)):
        np.add(index[:1 << i], s << ones, out=index[1 << i:2 << i])
        ones += s
    return index


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

    def draw(self, n: int, rng) -> dict:
        return {"w": self.draw_w(n, rng)}


class OmegaSigmaSampler(MSigmaSampler):
    """omega^sigma = m^sigma x m: the configuration plus uniform digits."""

    def __init__(self, sigma, N: int, M: int):
        super().__init__(sigma, N)
        self.M = M

    def draw(self, n: int, rng) -> dict:
        w = self.draw_w(n, rng)
        alpha = rng.integers(0, 1 << self.M, size=n, dtype=np.int64)
        return {"w": w, "alpha": alpha}


# ---------------------------------------------------------------------------
# base measures on I^Z
#
# A base `draw(n, lo, hi, rng, shift=0)` returns n windows y on positions
# lo..hi, row i read from the point shifted by shift[i] (an int array or 0).

def _conditioned(rng, n: int, bits: int, k: int, r: int) -> np.ndarray:
    """n uniform values below 2**bits conditioned on r modulo 2**k (k <= bits);
    with k = 0 this is one plain `integers` call."""
    return r + (rng.integers(0, 1 << (bits - k), size=n, dtype=np.int64) << k)


class BernoulliBase:
    """i.i.d. bits with success probability p; shift invariant, mixing."""

    invariant_period = 1

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        self.p = p

    def draw(self, n: int, lo: int, hi: int, rng, shift=0) -> dict:
        # i.i.d. windows have the same law at every shift
        y = (rng.random(size=(n, hi - lo + 1)) < self.p).view(np.uint8)
        return {"y": y}


class AtomicBase:
    """Uniform mixture of shifted copies of one periodic word.

    With shifts = {0, p, 2p, ...} inside the word period the law is
    S^p-invariant, so it can serve as the base of a periodic-type measure.
    """

    def __init__(self, word, shifts):
        self.word = np.asarray(word, dtype=np.uint8)
        self.shifts = np.sort(np.asarray(shifts, dtype=np.int64))
        self.invariant_period = int(np.gcd.reduce(np.diff(self.shifts),
                                                  initial=len(self.word)))

    def draw(self, n: int, lo: int, hi: int, rng, shift=0) -> dict:
        off = self.shifts[rng.integers(0, len(self.shifts), size=n)] + shift
        # one modulo per row, then whole windows by row, no per-cell index
        start = (off + lo) % len(self.word)
        word = np.resize(self.word, hi - lo + len(self.word))
        windows = np.lib.stride_tricks.sliding_window_view(word, hi - lo + 1)
        return {"y": windows.take(start, axis=0)}


class ToeplitzBase:
    """Coding of the odometer: y_j = parity of the trailing-ones count of
    (v + j), v uniform modulo 2**R.

    The word determines v (the positions with exactly one trailing one form
    a residue class mod 4, those with three a class mod 16, and so on), so
    the shift on this law has the odometer as a quotient and the level sets
    of the dyadic eigenfunctions are simply {v = r mod 2**n}.

    `render` adds residues mod 2**R (R <= 30) of values and positions in
    int32: u < 2**(R + 1) - 1 has the t trailing ones of u mod 2**R, and u ^
    (u + 1) = 2**(t + 1) - 1, so y = 1 - popcount(u ^ (u + 1)) mod 2.
    """

    invariant_period = 1

    def __init__(self, R: int = 24):
        if not 0 <= R <= 30:
            raise ValueError(f"R must lie in [0, 30] for int32 sums, got {R}")
        self.R = R

    def render(self, val: np.ndarray, lo: int, hi: int) -> np.ndarray:
        res = (np.arange(lo, hi + 1) & ((1 << self.R) - 1)).astype(np.int32)
        u = (val & ((1 << self.R) - 1)).astype(np.int32)[:, None] + res
        u ^= u + 1
        return (np.bitwise_count(u) & 1) ^ 1

    def draw(self, n: int, lo: int, hi: int, rng, k: int = 0,
             r: int = 0, shift=0) -> dict:
        """n rows with the odometer value conditioned on r modulo 2**k,
        then advanced by `shift`."""
        val = _conditioned(rng, n, self.R, k, r) + shift
        return {"val": val, "y": self.render(val, lo, hi)}


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


# ---------------------------------------------------------------------------
# symbolic samplers (measures on I^Z x I^N)

class ProductSampler:
    """eta x m: independent base draw and uniform digits."""

    def __init__(self, base, M: int):
        self.base = base
        self.M = M

    def draw(self, n: int, lo: int, hi: int, rng, k: int = 0,
             r: int = 0) -> dict:
        d = self.base.draw(n, lo, hi, rng)
        return {**d, "alpha": _conditioned(rng, n, self.M, k, r)}


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

    def draw(self, n: int, lo: int, hi: int, rng, k: int = 0,
             r: int = 0) -> dict:
        # alpha = j + 2**t * upper: conditioning on r mod 2**k fixes the low
        # min(k, t) digits of j and the low k - t digits of upper if k > t
        t = self.k
        kj = min(k, t)
        j = _conditioned(rng, n, t, kj, r & ((1 << t) - 1))
        d = self.base.draw(n, lo, hi, rng, shift=j)
        upper = _conditioned(rng, n, self.M - t, k - kj, r >> t)
        return {**d, "alpha": j + (upper << t)}


class AperiodicSampler:
    """nu^(alpha)[eta]: the skew product with delta fibers.

    The digit value is forced to (level - r(n, alpha)) mod 2**n at every
    depth n, so conditioning the digits on 0 mod 2**n restricts the base to
    the level set B(r(n, alpha), n).  That is exact up to the base's R
    odometer digits, and levels above them are refused; nothing is drawn.
    """

    def __init__(self, base, levels: OdometerLevels, alpha):
        self.base = base
        self.levels = levels
        if levels.max_level > getattr(base, "R", -1):  # -1: no odometer
            raise ValueError("levels above the odometer digits R of the base")
        self.alpha = check_bits(alpha)
        if len(self.alpha) > levels.max_level:
            raise ValueError("alpha longer than the level resolution")
        # finite digit specs are zero-extended to the full resolution
        self.M = levels.max_level
        self.r_mask = alpha_value(self.alpha)

    def draw(self, n: int, lo: int, hi: int, rng, k: int = 0,
             r: int = 0) -> dict:
        # alpha = r mod 2**k exactly when the level is r + r_mask mod 2**k
        d = self.base.draw(n, lo, hi, rng, k, (r + self.r_mask) % (1 << k))
        level = self.levels.level(d, self.M)
        return {**d, "alpha": (level - self.r_mask) & ((1 << self.M) - 1)}


def make_aperiodic(base, levels: OdometerLevels, alpha) -> AperiodicSampler:
    return AperiodicSampler(base, levels, alpha)


# ---------------------------------------------------------------------------
# empirical measures

class CylinderTable:
    """Frequencies of length-L words read at a fixed window position."""

    def __init__(self, counts: np.ndarray, L: int):
        self.counts = np.asarray(counts, dtype=np.float64)
        self.L = L
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
        return CylinderTable(f, t0.L)


PACK_LOG2 = 6  # a code is one int64: at most 2**PACK_LOG2 digits


def pack_words(bits: np.ndarray) -> np.ndarray:
    """The digit codec on arrays: the int64 code whose bit i is bits[..., i]
    (the order of `alpha_value`), one per leading index; Horner's form from
    the top digit shifts and ors in place, with no int64 copy per digit."""
    L = bits.shape[-1]
    if L > 1 << PACK_LOG2:
        raise ValueError(f"{L} digits exceed the {1 << PACK_LOG2} of a code")
    code = np.zeros(bits.shape[:-1], dtype=np.int64)
    for i in reversed(range(L)):
        code <<= 1
        code |= bits[..., i]
    return code


CHUNK = 1 << 18  # rows one draw may hold, so memory is bounded for any n


def project_theta(sampler, k: int, r: int, L: int, n_accept: int, rng,
                  shift: int = 0) -> tuple[CylinderTable, float]:
    """Empirical P_{r,k}: condition the digit value on r modulo 2**k, shift
    the window by `shift`, tabulate length-L words at position -L.

    The sampler draws every row conditioned, so all rows are kept; the share
    of drawn rows kept, 1.0, is returned with the table.
    """
    if n_accept < 1:
        raise ValueError(f"n_accept must be at least 1, got {n_accept}")
    if not 0 <= k <= sampler.M:
        raise ValueError(f"k must lie in [0, M = {sampler.M}], got {k}")
    if not 0 <= r < 1 << k:
        raise ValueError(f"r must lie in [0, 2**{k}), got {r}")
    lo, hi = shift - L, shift - 1
    counts = np.zeros(1 << L)
    for start in range(0, n_accept, CHUNK):
        d = sampler.draw(min(CHUNK, n_accept - start), lo, hi, rng, k, r)
        counts += np.bincount(pack_words(d["y"]), minlength=1 << L)
    return CylinderTable(counts, L), 1.0


def theta_verdict(tables, tol: float, n_accept: int) -> dict:
    """Verdict of the theta ladder theta_0, ..., theta_{k_max + 1}: the TV
    distances of successive tables, and the least k with every later step
    below tol, or aperiodic-up-to-k_max."""
    k_max = len(tables) - 2
    ladder = [tables[k].tv(tables[k + 1]) for k in range(k_max + 1)]
    verdict = next((k for k in range(k_max + 1)
                    if all(step <= tol for step in ladder[k:])),
                   f"aperiodic-up-to-{k_max}")
    return {"verdict": verdict, "tv_ladder": ladder, "tol": tol,
            "L": tables[0].L, "n_accept": n_accept}


# ---------------------------------------------------------------------------
# shards

N_SHARDS = 4


def shard_sizes(total: int) -> list[int]:
    base, rem = divmod(total, N_SHARDS)
    return [base + (1 if s < rem else 0) for s in range(N_SHARDS)]


def run_shards(fn, args_per_shard, workers: int):
    """Evaluate fn over shards, results in shard order regardless of
    scheduling."""
    if workers <= 1:
        return [fn(*a) for a in args_per_shard]
    from concurrent.futures import ThreadPoolExecutor  # loads logging
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda a: fn(*a), args_per_shard))


def draw_sharded(sampler, samples: int, seed: int, workers: int) -> dict:
    """`sampler.draw` of `samples` rows in `shard_sizes` shards, shard s from
    a generator seeded seed XOR s, joined in shard order."""
    parts = run_shards(lambda s, size: sampler.draw(
        size, np.random.default_rng(seed ^ s)),
        list(enumerate(shard_sizes(samples))), workers)
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def classify_periodic_type(sampler, k_max: int, L: int, n_accept: int,
                           tol: float, rng, workers: int = 1) -> dict:
    """Smallest k at which the theta ladder stabilizes, or aperiodic-up-to-k_max.

    Computes empirical theta_0, ..., theta_{k_max + 1} and their successive
    total-variation distances; see `theta_verdict`.  Each k is cut into
    N_SHARDS shards, each nonempty (k, shard) drawing from its own generator
    spawned from `rng`; counts are summed in (k, shard) order, so the
    report is the same for any number of workers.  A bad request raises
    ValueError before anything is drawn.
    """
    if n_accept < 1 or L < 1:
        raise ValueError(f"n_accept and L must be at least 1, got {n_accept}"
                         f" and {L}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if not 0 <= k_max < sampler.M:
        raise ValueError(f"k_max must lie in [0, M = {sampler.M}), got {k_max}")
    jobs = [(k, size) for k in range(k_max + 2)
            for size in shard_sizes(n_accept) if size]

    def work(k, size, child):
        return project_theta(sampler, k, 0, L, size, child)[0].counts

    parts = run_shards(work, [(k, size, child) for (k, size), child
                              in zip(jobs, rng.spawn(len(jobs)))], workers)
    counts = [np.zeros(1 << L) for _ in range(k_max + 2)]
    for (k, _), c in zip(jobs, parts):
        counts[k] += c
    return theta_verdict([CylinderTable(c, L) for c in counts], tol,
                         n_accept)
