"""Coding isomorphisms between path space and symbolic spaces.

A path prefix corresponds to a coded point (w, alpha): alpha is the edge
ordinal sequence and w(g) is the top label read at g XOR a, where a is the
mask packing alpha.  Both sides store a, not the digits.  The group acts
diagonally (translate w, a XOR g); the adic successor acts as the odometer
a + 1 and translates w by the carry.  The fibrewise change of variables
lambda_alpha identifies a segment of integers with a finite subgroup,
turning the adic map into (left shift) x (odometer) on integer-indexed
windows.
"""

from __future__ import annotations

import numpy as np

from . import graph
from .dyadic import (N_MAX, ResolutionError, alpha_digits, alpha_value,
                     check_bits, check_mask, in_group, successor)


class CodedPoint:
    """Truncation of a point of I^D x I^N: w on D_N plus M digits of alpha,
    stored as their packed value a < 2**M; alpha is read back from a."""

    __slots__ = ("w", "a", "N", "M")

    def __init__(self, w, alpha):
        alpha = check_bits(alpha)
        self._set(w, alpha_value(alpha), len(alpha))

    @classmethod
    def from_value(cls, w, a: int, M: int) -> "CodedPoint":
        """The point (w, alpha) whose M digits pack to a, for 0 <= a < 2**M."""
        if not in_group(a, M):
            raise ResolutionError(f"digit value {a} outside D_{M}")
        p = cls.__new__(cls)
        p._set(w, a, M)
        return p

    def _set(self, w, a: int, M: int):
        self.w = w = np.asarray(w, dtype=np.uint8)
        if w.ndim != 1 or w.size & (w.size - 1):
            raise ValueError("w must be a bit vector of length 2**N")
        self.a, self.N, self.M = a, w.size.bit_length() - 1, M

    @property
    def alpha(self) -> tuple[int, ...]:
        return alpha_digits(self.a, self.M)

    def __eq__(self, other):
        return (self.a == other.a and self.M == other.M
                and self.w.tobytes() == other.w.tobytes())

    def __hash__(self):
        return hash((self.a, self.M, self.w.tobytes()))

    def __repr__(self):
        return f"CodedPoint(w={''.join(map(str, self.w))}, alpha={self.alpha})"


class ZWindow:
    """A finite window w(lo), ..., w(hi) of a point of I^Z."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        if hi < lo or bits.shape != (hi - lo + 1,):
            raise ValueError("window bounds do not match bit count")
        self.lo = lo
        self.hi = hi
        self.bits = bits

    def shift(self) -> "ZWindow":
        """Left shift: the new window reads y(k+1) at k."""
        if self.hi == self.lo:
            raise ResolutionError("window too short to shift")
        return ZWindow(self.lo, self.hi - 1, self.bits[1:])

    def __repr__(self):
        return f"ZWindow({self.lo}, {self.hi}, {''.join(map(str, self.bits))})"


def xor_index(n: int, g) -> np.ndarray:
    """The index map j -> j XOR g on D_n (per row for a column of g's)."""
    return np.arange(1 << n) ^ g


def psi(x: graph.PathPrefix) -> CodedPoint:
    """(F, A): A is the edge sequence, F reads the top label through the alpha shift."""
    idx = xor_index(x.depth, x.a)
    return CodedPoint.from_value(x.top.label[idx], x.a, x.depth)


def psi_inv(p: CodedPoint) -> graph.PathPrefix:
    if p.N != p.M:
        raise ResolutionError("psi_inv needs matching resolutions N = M")
    top = p.w[xor_index(p.N, p.a)]
    return graph.PathPrefix.from_value(graph.Vertex(p.N, top), p.a)


def diag(g: int, p: CodedPoint) -> CodedPoint:
    """Diagonal action: (w(.), alpha) -> (w(. + g), alpha + tau(g)); a -> a ^ g."""
    n = min(p.N, p.M)
    if not in_group(g, n):
        raise ResolutionError(f"element {g} outside D_{n}")
    return CodedPoint.from_value(p.w[xor_index(p.N, g)], p.a ^ g, p.M)


def adic_on_coded(p: CodedPoint) -> CodedPoint:
    """Coded form of the adic successor: translate w by the carry, advance alpha."""
    a = successor(p.a, p.M)
    g = a ^ p.a
    if not in_group(g, p.N):
        raise ResolutionError("carry exceeds the w resolution")
    return CodedPoint.from_value(p.w[xor_index(p.N, g)], a, p.M)


def lambda_alpha(alpha, k: int, a: int | None = None) -> int:
    """Group element at integer position k of the alpha-adapted enumeration.

    With a = sum alpha_{i+1} 2^i (callers may pass it in), the integers
    {-a, ..., -a + 2**M - 1} are representable; k maps to (k + a) XOR a.
    """
    a = alpha_value(alpha) if a is None else a
    u = k + a
    if not 0 <= u < (1 << len(alpha)):
        raise ResolutionError(
            f"integer {k} outside the representable segment [{-a}, {-a + (1 << len(alpha)) - 1}]")
    return check_mask(u ^ a)


def lambda_window(p: CodedPoint, L: int) -> ZWindow:
    """Read w through lambda_alpha on the integer window [-L, L].

    With b = min(N, N_MAX) and a_b the digit value a reduced mod 2**b,
    position k is read iff 0 <= k + a < 2**M (the segment) and
    0 <= k + a_b < 2**b (the image (k + a) XOR a = (k + a_b) XOR a_b lies
    in D_b).  Both are intervals around 0, so the bounds are checked once
    and the bits are read in one gather; otherwise the first escaping k
    raises the error position-by-position reading would.
    """
    a = p.a
    b = min(p.N, N_MAX)
    a_b = a % (1 << b)
    last = min((1 << p.M) - a, (1 << b) - a_b) - 1
    if L > a_b or L > last:
        k = -L if L > a_b else last + 1
        lambda_alpha(p.alpha, k, a)  # the segment and D_N_MAX errors
        raise ResolutionError(f"window index {k} escapes the w resolution")
    ks = np.arange(-L, L + 1)
    return ZWindow(-L, L, p.w[(ks + a_b) ^ a_b])
