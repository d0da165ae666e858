import numpy as np
import pytest
from hypothesis import given, strategies as st

from adicop import graph
from adicop.dyadic import ResolutionError


def random_path(rng, depth):
    label = rng.integers(0, 2, 1 << depth).astype(np.uint8)
    alpha = rng.integers(0, 2, depth)
    return graph.PathPrefix(graph.Vertex(depth, label), alpha)


class TestCounting:
    @pytest.mark.parametrize("n", range(5))
    def test_vertex_count(self, n):
        assert graph.vertex_count(n) == 1 << (1 << n)
        assert graph.vertex_count(n, exhaustive=True) == 1 << (1 << n)

    @pytest.mark.parametrize("n", range(5))
    def test_paths_into(self, n):
        v = graph.Vertex(n, np.zeros(1 << n, dtype=np.uint8))
        assert graph.paths_into(v) == 1 << n
        assert graph.paths_into(v, exhaustive=True) == 1 << n

    def test_depth_limit(self):
        with pytest.raises(graph.DepthError):
            graph.vertex_count(9, exhaustive=True)


class TestLabels:
    def test_pair_concatenates(self):
        v0 = graph.Vertex(1, [0, 1])
        v1 = graph.Vertex(1, [1, 1])
        assert list(graph.pair(v0, v1).label) == [0, 1, 1, 1]

    def test_children_invert_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v0 = graph.Vertex(2, rng.integers(0, 2, 4))
            v1 = graph.Vertex(2, rng.integers(0, 2, 4))
            c0, c1 = graph.pair(v0, v1).children()
            assert c0 == v0 and c1 == v1

    def test_path_vertex_is_alpha_half(self):
        # the floor-n vertex of a path is the alpha_{n+1}-half of the
        # floor-(n+1) label
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_path(rng, 4)
            for n in range(4):
                upper = x.vertex(n + 1)
                lower = upper.children()[x.alpha[n]]
                assert x.vertex(n) == lower


class TestAdicOrder:
    def test_full_tail_class_depth_10(self):
        # successor = +1 in the reverse-lexicographic order, over all 2^10
        # edge sequences into a fixed top vertex
        depth = 10
        top = graph.Vertex(depth, np.zeros(1 << depth, dtype=np.uint8))
        for v in range((1 << depth) - 1):
            x = graph.PathPrefix(top, graph.alpha_digits(v, depth))
            y = graph.adic_successor(x)
            assert graph.reverse_lex_key(y) == v + 1
            assert y.top == x.top

    def test_all_ones_undefined(self):
        top = graph.Vertex(3, np.zeros(8, dtype=np.uint8))
        x = graph.PathPrefix(top, (1, 1, 1))
        with pytest.raises(ResolutionError):
            graph.adic_successor(x)

    def test_first_zero_flips(self):
        top = graph.Vertex(4, np.zeros(16, dtype=np.uint8))
        x = graph.PathPrefix(top, (1, 1, 0, 1))
        assert graph.adic_successor(x).alpha == (0, 0, 1, 1)


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


# small floors, so that equal vertices are drawn often
vertices = st.integers(0, 2).flatmap(
    lambda f: bit_lists(1 << f).map(lambda bits: graph.Vertex(f, bits)))


class TestVertexEquality:
    @given(vertices, vertices)
    def test_eq_is_floor_and_label(self, u, v):
        # label lengths differ across floors; equal vertices hash equal
        want = u.floor == v.floor and np.array_equal(u.label, v.label)
        assert (u == v) == want == (v == u)
        if want:
            assert hash(u) == hash(v)
        copy = graph.Vertex(u.floor, u.label.copy())
        assert u == copy and hash(u) == hash(copy)


class TestKappa:
    def test_orbits_are_free(self):
        # the D_n-orbit of any path hits every alpha exactly once
        rng = np.random.default_rng(2)
        for depth in (2, 3, 4):
            x = random_path(rng, depth)
            orbit = {graph.kappa(g, x).alpha for g in range(1 << depth)}
            assert len(orbit) == 1 << depth

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_action_law(self, g, h):
        top = graph.Vertex(4, np.arange(16) % 2)
        x = graph.PathPrefix(top, (0, 1, 0, 1))
        assert graph.kappa(g, graph.kappa(h, x)) == graph.kappa(g ^ h, x)

    def test_outside_group(self):
        top = graph.Vertex(2, np.zeros(4, dtype=np.uint8))
        with pytest.raises(ResolutionError):
            graph.kappa(4, graph.PathPrefix(top, (0, 0)))


@st.composite
def packed_paths(draw):
    """A top vertex at depth 0-12 and an edge value in range for it."""
    depth = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    label = np.random.default_rng(seed).integers(0, 2, 1 << depth)
    return graph.Vertex(depth, label), draw(st.integers(0, (1 << depth) - 1))


class TestFromValue:
    @given(packed_paths())
    def test_equals_digit_built(self, path):
        top, a = path
        x = graph.PathPrefix.from_value(top, a)
        y = graph.PathPrefix(top, graph.alpha_digits(a, top.floor))
        assert x == y and hash(x) == hash(y)
        assert x.alpha == y.alpha == graph.alpha_digits(a, top.floor)
        assert x.a == y.a == a

    @given(st.integers(0, 12), st.integers(1, 1 << 20))
    def test_refuses_values_outside(self, depth, k):
        # the edges of -1 and 2**depth are refused like any other
        # value outside D_depth
        top = graph.Vertex(depth, np.zeros(1 << depth, dtype=np.uint8))
        for a in (-1, 1 << depth, -k, (1 << depth) - 1 + k):
            with pytest.raises(ResolutionError) as err:
                graph.PathPrefix.from_value(top, a)
            assert type(err.value) is ResolutionError

    def test_alpha_is_read_only(self):
        top = graph.Vertex(2, [0, 1, 1, 0])
        for x in (graph.PathPrefix.from_value(top, 2),
                  graph.PathPrefix(top, (0, 1))):
            with pytest.raises(AttributeError):
                x.alpha = (1, 1)
            assert x.alpha == (0, 1)
