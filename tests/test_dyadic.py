import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adicop import coding, dyadic, graph, measures

masks8 = st.integers(min_value=0, max_value=255)


class TestGroupLaws:
    def test_exhaustive_small(self):
        # associativity / identity / involution on D_4, fully enumerated
        for a, b, c in itertools.product(range(16), repeat=3):
            assert dyadic.add(dyadic.add(a, b), c) == dyadic.add(a, dyadic.add(b, c))
        for a in range(256):
            assert dyadic.add(a, 0) == a
            assert dyadic.add(a, a) == 0

    @given(masks8, masks8, masks8)
    def test_associativity(self, a, b, c):
        assert dyadic.add(dyadic.add(a, b), c) == dyadic.add(a, dyadic.add(b, c))

    @given(masks8)
    def test_membership(self, a):
        assert dyadic.in_group(a, 8)
        assert dyadic.in_group(a, 4) == (a < 16)


@pytest.mark.parametrize("digits", [(0, 2), (0.5,), (1, -1)])
def test_one_bit_check_refuses_non_bits(digits):
    # every digit consumer refuses a non-bit, none truncates it
    n = len(digits)
    base = measures.ToeplitzBase()
    consumers = [
        lambda: dyadic.tau_inv(digits),
        lambda: coding.CodedPoint(np.zeros(1 << n), digits),
        lambda: graph.PathPrefix(graph.Vertex(n, np.zeros(1 << n)), digits),
        lambda: measures.AperiodicSampler(
            base, measures.OdometerLevels(base.R), digits),
    ]
    for build in consumers:
        with pytest.raises(ValueError, match="not all bits"):
            build()


class TestTau:
    def test_identity(self):
        assert dyadic.tau(0, 4) == (0, 0, 0, 0)

    def test_mask_0b101(self):
        # g_0 + g_2 has digits (1, 0, 1, 0, ...)
        assert dyadic.tau(0b101, 6) == (1, 0, 1, 0, 0, 0)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_roundtrip(self, a):
        assert dyadic.tau_inv(dyadic.tau(a)) == a

    @given(masks8, masks8)
    def test_xor_homomorphism(self, a, b):
        ta = dyadic.tau(a, 8)
        tb = dyadic.tau(b, 8)
        assert dyadic.tau(dyadic.add(a, b), 8) == tuple(
            x ^ y for x, y in zip(ta, tb))

    def test_injective(self):
        seen = {dyadic.tau(a, 16) for a in range(1 << 12)}
        assert len(seen) == 1 << 12


def coset_index(g: int, sigma, n: int) -> int:
    """Reference for `measures.coset_index_map`, one mask at a time: the
    bits of g at the positions with sigma_i = 1, packed in order."""
    sigma = dyadic.sigma_extend(sigma, n)
    idx = 0
    k = 0
    for i in range(n):
        if sigma[i]:
            idx |= ((g >> i) & 1) << k
            k += 1
    return idx


class TestCosetIndex:
    @pytest.mark.parametrize("g,sigma,n,want", [
        (0b10, (1, 1), 2, 2),   # sigma all ones: index equals the mask
        (0b01, (0, 1), 2, 0),   # g_0 lies in the sigma-kernel subgroup
        (0b00, (0, 1), 2, 0),
        (0b10, (0, 1), 2, 1),
        (0b11, (0, 1), 2, 1),
    ])
    def test_examples(self, g, sigma, n, want):
        assert coset_index(g, sigma, n) == want
        assert measures.coset_index_map(sigma, n)[g] == want

    def test_two_cosets(self):
        assert set(measures.coset_index_map((0, 1), 2).tolist()) == {0, 1}

    def test_index_counts_exhaustive(self):
        # the doubling build is the per-bit loop, and its image has
        # 2^{sum sigma} indices, for every sigma of length <= 8
        for n in range(9):
            for bits in range(1 << n):
                sigma = tuple((bits >> i) & 1 for i in range(n))
                index = measures.coset_index_map(sigma, n)
                assert index.dtype == np.int64
                assert index.tolist() == [coset_index(g, sigma, n)
                                          for g in range(1 << n)]
                assert set(index.tolist()) == set(
                    range(dyadic.coset_count(sigma, n)))

    @given(masks8, masks8, st.lists(st.integers(0, 1), min_size=8, max_size=8))
    def test_same_index_iff_same_coset(self, a, b, sigma):
        kernel_mask = sum((1 - s) << i for i, s in enumerate(sigma))
        index = measures.coset_index_map(sigma, 8)
        assert (index[a] == index[b]) == (dyadic.add(a, b) & ~kernel_mask == 0)

    def test_top_resolution_build_memory(self):
        # D_20 holds 2**20 masks: the index is 8 MiB of int64, where a
        # (2**20 x 20) int64 bit matrix would need 160 MiB
        tracemalloc.start()
        try:
            sampler = measures.MSigmaSampler((1, 0), dyadic.N_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20
        assert sampler.n_cosets == 2
        assert sampler.index.tolist() == [0, 1] * (1 << (dyadic.N_MAX - 1))


class TestSigmaExtend:
    def test_pads_with_zeros(self):
        assert dyadic.sigma_extend((1, 0, 1), 6) == (1, 0, 1, 0, 0, 0)

    def test_truncates(self):
        assert dyadic.sigma_extend((1, 0, 1, 1), 2) == (1, 0)
