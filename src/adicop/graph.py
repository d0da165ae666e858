"""The graded graph of ordered pairs.

A floor-(n+1) vertex is an ordered pair of floor-n vertices; its label is
the concatenation of the two child labels, indexed by group masks: the
lower half (masks in D_n) is the label of the first child, the upper half
the label of the second.  A path prefix is stored canonically as the top
vertex label plus the packed edge value a (edge ordinal alpha_i sets bit
i-1); all lower vertices are recomputed by slicing halves, and the group
and the adic successor act on a as `a ^ g` and `a + 1`.
"""

from __future__ import annotations

import numpy as np

from .dyadic import (ResolutionError, alpha_digits, alpha_value, check_bits,
                     in_group, successor)

EXHAUSTIVE_DEPTH = 4


class DepthError(ValueError):
    pass


class Vertex:
    __slots__ = ("floor", "label")

    def __init__(self, floor: int, label):
        label = np.asarray(label, dtype=np.uint8)
        if label.shape != (1 << floor,):
            raise ValueError(f"floor-{floor} label must have length {1 << floor}")
        self.floor = floor
        self.label = label

    def children(self) -> tuple["Vertex", "Vertex"]:
        if self.floor == 0:
            raise DepthError("floor-0 vertex has no children")
        half = 1 << (self.floor - 1)
        return (Vertex(self.floor - 1, self.label[:half]),
                Vertex(self.floor - 1, self.label[half:]))

    def __eq__(self, other):
        return (self.floor == other.floor
                and self.label.tobytes() == other.label.tobytes())

    def __hash__(self):
        return hash((self.floor, self.label.tobytes()))

    def __repr__(self):
        return f"Vertex({self.floor}, {''.join(map(str, self.label))})"


def pair(v0: Vertex, v1: Vertex) -> Vertex:
    if v0.floor != v1.floor:
        raise DepthError("pairing needs equal floors")
    return Vertex(v0.floor + 1, np.concatenate([v0.label, v1.label]))


class PathPrefix:
    """A path of the graph known up to a finite floor.

    Canonical data: the top label and the packed edge value
    a = alpha_1 + 2 alpha_2 + ..., alpha_{n+1} being the ordinal of the
    edge entering floor n+1.  The digits alpha are read back from a;
    vertex(j) recomputes floor-j vertices.
    """

    __slots__ = ("depth", "top", "a")

    def __init__(self, top: Vertex, alpha):
        alpha = check_bits(alpha)
        if len(alpha) != top.floor:
            raise DepthError("alpha length must equal the top floor")
        self.depth, self.top, self.a = top.floor, top, alpha_value(alpha)

    @classmethod
    def from_value(cls, top: Vertex, a: int) -> "PathPrefix":
        """The path into top whose edges pack to a, for 0 <= a < 2**floor."""
        if not in_group(a, top.floor):
            raise ResolutionError(f"edge value {a} outside D_{top.floor}")
        x = cls.__new__(cls)
        x.depth, x.top, x.a = top.floor, top, a
        return x

    @property
    def alpha(self) -> tuple[int, ...]:
        return alpha_digits(self.a, self.depth)

    def vertex(self, j: int) -> Vertex:
        if not 0 <= j <= self.depth:
            raise DepthError(f"floor {j} outside path depth {self.depth}")
        v = self.top
        for n in range(self.depth - 1, j - 1, -1):
            v = v.children()[self.a >> n & 1]
        return v

    def vertices(self) -> list[Vertex]:
        return [self.vertex(j) for j in range(self.depth + 1)]

    def __eq__(self, other):
        return self.a == other.a and self.top == other.top

    def __hash__(self):
        return hash((self.a, self.top))

    def __repr__(self):
        return f"PathPrefix(top={self.top!r}, alpha={self.alpha})"


def vertex_count(n: int, exhaustive: bool = False) -> int:
    """Number of vertices on floor n: 2**2**n."""
    if exhaustive:
        return len(set(v.label.tobytes() for v in iter_vertices(n)))
    return 1 << (1 << n)


def iter_vertices(n: int):
    if n > EXHAUSTIVE_DEPTH:
        raise DepthError(f"exhaustive mode limited to depth {EXHAUSTIVE_DEPTH}")
    size = 1 << n
    for bits in range(1 << size):
        yield Vertex(n, alpha_digits(bits, size))


def iter_paths(n: int):
    """All path prefixes of depth n (top label and alpha both free)."""
    for v in iter_vertices(n):
        for a in range(1 << n):
            yield PathPrefix.from_value(v, a)


def paths_into(v: Vertex, exhaustive: bool = False) -> int:
    """Number of paths from floor 0 into v: 2**floor."""
    if exhaustive:
        if v.floor > EXHAUSTIVE_DEPTH:
            raise DepthError(f"exhaustive mode limited to depth {EXHAUSTIVE_DEPTH}")
        count = 0
        for a in range(1 << v.floor):
            p = PathPrefix.from_value(v, a)
            p.vertices()
            count += 1
        return count
    return 1 << v.floor


def adic_successor(x: PathPrefix) -> PathPrefix:
    """Next path in the reverse-lexicographic order on edge sequences.

    The first 0-edge flips to 1 and every edge below it resets to 0; the
    path is unchanged from that floor upward.  Undefined on the all-ones
    edge sequence at this resolution.
    """
    return PathPrefix.from_value(x.top, successor(x.a, x.depth))


def reverse_lex_key(x: PathPrefix) -> int:
    return x.a


def kappa(g: int, x: PathPrefix) -> PathPrefix:
    """Action of the group element g: flip the edge ordinals named by its mask."""
    if not in_group(g, x.depth):
        raise ResolutionError(f"element {g} outside D_{x.depth}")
    return PathPrefix.from_value(x.top, x.a ^ g)

