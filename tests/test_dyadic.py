import itertools

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


class TestCosetIndex:
    @pytest.mark.parametrize("g,sigma,n,want", [
        (0b10, (1, 1), 2, 2),   # sigma all ones: index equals the mask
        (0b01, (0, 1), 2, 0),   # g_0 lies in the sigma-kernel subgroup
        (0b00, (0, 1), 2, 0),
        (0b10, (0, 1), 2, 1),
        (0b11, (0, 1), 2, 1),
    ])
    def test_examples(self, g, sigma, n, want):
        assert dyadic.coset_index(g, sigma, n) == want

    def test_two_cosets(self):
        idx = {dyadic.coset_index(g, (0, 1), 2) for g in range(4)}
        assert idx == {0, 1}

    def test_index_counts_exhaustive(self):
        # |image| = 2^{sum sigma} for every sigma of length <= 8
        for n in range(1, 9):
            for bits in range(1 << n):
                sigma = tuple((bits >> i) & 1 for i in range(n))
                idx = {dyadic.coset_index(g, sigma, n) for g in range(1 << n)}
                assert idx == set(range(dyadic.coset_count(sigma, n)))
                assert len(idx) == 1 << sum(sigma)

    @given(masks8, masks8, st.lists(st.integers(0, 1), min_size=8, max_size=8))
    def test_same_index_iff_same_coset(self, a, b, sigma):
        kernel_mask = sum((1 - s) << i for i, s in enumerate(sigma))
        same = dyadic.coset_index(a, sigma, 8) == dyadic.coset_index(b, sigma, 8)
        assert same == (dyadic.add(a, b) & ~kernel_mask == 0)

    def test_outside_group(self):
        with pytest.raises(dyadic.ResolutionError):
            dyadic.coset_index(16, (1, 1), 2)


class TestSigmaExtend:
    def test_pads_with_zeros(self):
        assert dyadic.sigma_extend((1, 0, 1), 6) == (1, 0, 1, 0, 0, 0)

    def test_truncates(self):
        assert dyadic.sigma_extend((1, 0, 1, 1), 2) == (1, 0)
