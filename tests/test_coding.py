import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from adicop import coding, dyadic, graph
from adicop.dyadic import ResolutionError, tau


def random_point(rng, N, M=None):
    w = rng.integers(0, 2, 1 << N).astype(np.uint8)
    alpha = rng.integers(0, 2, M if M is not None else N)
    return coding.CodedPoint(w, alpha)


class TestPsi:
    def test_roundtrip_exhaustive_depth2(self):
        for x in graph.iter_paths(2):
            assert coding.psi_inv(coding.psi(x)) == x

    def test_bijective_depth3(self):
        images = {coding.psi(x) for x in graph.iter_paths(3)}
        assert len(images) == (1 << 8) * 8

    def test_identity_alpha_reads_label(self):
        x = graph.PathPrefix(graph.Vertex(3, np.arange(8) % 2), (0, 0, 0))
        p = coding.psi(x)
        assert np.array_equal(p.w, x.top.label)

    def test_resolution_mismatch(self):
        p = coding.CodedPoint(np.zeros(4, dtype=np.uint8), (0, 1, 1))
        with pytest.raises(ResolutionError):
            coding.psi_inv(p)


def vertex_labels(w: np.ndarray, a, n: int) -> np.ndarray:
    """Floor-n vertex labels of coded paths, vectorized over the rows of w
    with digit values a: the floor-n vertex keeps the n lowest digits, so
    psi_inv's index map reads its label at j XOR (a mod 2**n), j < 2**n."""
    idx = coding.xor_index(n, np.asarray(a)[..., None] % (1 << n))
    return np.take_along_axis(w, idx, axis=-1)


class TestVertexLabels:
    def test_rows_read_the_path_vertices(self):
        # row i of the vectorized reader is floor n of psi_inv's path
        rng = np.random.default_rng(13)
        N = 6
        w = rng.integers(0, 2, (40, 1 << N)).astype(np.uint8)
        a = rng.integers(0, 1 << N, 40)
        for n in range(N + 1):
            labels = vertex_labels(w, a, n)
            for i in range(40):
                p = coding.CodedPoint(w[i], dyadic.alpha_digits(int(a[i]), N))
                assert np.array_equal(labels[i],
                                      coding.psi_inv(p).vertex(n).label)


class TestGroupDiagram:
    def test_exhaustive_depth2(self):
        # psi intertwines the edge-flip action with the diagonal action
        for x in graph.iter_paths(2):
            for g in range(4):
                assert coding.psi(graph.kappa(g, x)) == coding.diag(g, coding.psi(x))

    def test_exhaustive_depth4_vectorized(self):
        # both sides permute the label by the same index map, so the
        # depth-4 check reduces to 256 permutation identities plus the
        # digit images; verified against all 2^16 labels at once
        idx = np.arange(16)
        labels = ((np.arange(1 << 16)[:, None] >> idx[None, :]) & 1).astype(np.uint8)
        for a in range(16):
            for g in range(16):
                lhs = labels[:, idx ^ (a ^ g)]
                rhs = labels[:, (idx ^ g) ^ a]
                assert np.array_equal(lhs, rhs)
                alpha = graph.alpha_digits(a, 4)
                kap = graph.alpha_digits(a ^ g, 4)
                dia = tuple(x ^ t for x, t in zip(alpha, tau(g, 4)))
                assert kap == dia

    def test_random_pairs_at_depths_8_to_12(self):
        # beyond the exhaustive depth: psi(kappa(g, x)) = diag(g, psi(x))
        rng = np.random.default_rng(12)
        for _ in range(300):
            depth = int(rng.integers(8, 13))
            label = rng.integers(0, 2, 1 << depth).astype(np.uint8)
            x = graph.PathPrefix(graph.Vertex(depth, label),
                                 rng.integers(0, 2, depth))
            g = int(rng.integers(0, 1 << depth))
            assert coding.psi(graph.kappa(g, x)) == coding.diag(g, coding.psi(x))

    def test_diag_is_action(self):
        rng = np.random.default_rng(0)
        p = random_point(rng, 4)
        for g in range(16):
            for h in range(16):
                assert coding.diag(g, coding.diag(h, p)) == coding.diag(g ^ h, p)


def odometer(alpha) -> tuple[int, ...]:
    """Add one with carry: the lowest 0 flips to 1, all digits below reset."""
    alpha = tuple(int(a) for a in alpha)
    v = dyadic.successor(dyadic.alpha_value(alpha), len(alpha))
    return dyadic.alpha_digits(v, len(alpha))


def odometer_inv(alpha) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    v = dyadic.alpha_value(alpha)
    if v == 0:
        raise ResolutionError("inverse odometer undefined at this resolution (all-zeros digits)")
    return dyadic.alpha_digits(v - 1, len(alpha))


class TestOdometer:
    def test_counter_law(self):
        # repeated succession enumerates the digit values 0, 1, 2, ...
        alpha = (0, 0, 0, 0)
        for v in range(1, 16):
            alpha = odometer(alpha)
            assert dyadic.alpha_value(alpha) == v

    def test_inverse(self):
        alpha = (1, 0, 1, 0)
        assert odometer_inv(odometer(alpha)) == alpha

    def test_boundaries(self):
        with pytest.raises(ResolutionError):
            odometer((1, 1, 1))
        with pytest.raises(ResolutionError):
            odometer_inv((0, 0, 0))

    def test_adic_on_coded_matches_graph(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = graph.PathPrefix(graph.Vertex(4, rng.integers(0, 2, 16)),
                                 rng.integers(0, 2, 4))
            if x.alpha == (1, 1, 1, 1):
                continue
            lhs = coding.adic_on_coded(coding.psi(x))
            rhs = coding.psi(graph.adic_successor(x))
            assert lhs == rhs


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


# short w and alpha, so that equal points are drawn often
coded_points = st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
    lambda nm: st.builds(coding.CodedPoint, bit_lists(1 << nm[0]),
                         bit_lists(nm[1])))


class TestCodedPointEquality:
    @given(coded_points, coded_points)
    def test_eq_is_w_and_alpha(self, p, q):
        # w and alpha lengths may differ; equal points hash equal
        want = p.alpha == q.alpha and np.array_equal(p.w, q.w)
        assert (p == q) == want == (q == p)
        if want:
            assert hash(p) == hash(q)
        copy = coding.CodedPoint(p.w.copy(), list(p.alpha))
        assert p == copy and hash(p) == hash(copy)


@st.composite
def packed_points(draw):
    """w on D_N, a digit value a < 2**M and M, with N and M in 0-12 drawn
    apart, so that N != M is common."""
    N, M = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    w = np.random.default_rng(seed).integers(0, 2, 1 << N)
    return w, draw(st.integers(0, (1 << M) - 1)), M


class TestFromValue:
    @given(packed_points())
    @example((np.arange(8) % 2, 1000, 12))   # N = 3 < M = 12
    @example((np.arange(4096) % 2, 5, 3))    # N = 12 > M = 3
    def test_equals_digit_built(self, point):
        w, a, M = point
        p = coding.CodedPoint.from_value(w, a, M)
        q = coding.CodedPoint(w, dyadic.alpha_digits(a, M))
        assert p == q and hash(p) == hash(q)
        assert p.alpha == q.alpha == dyadic.alpha_digits(a, M)
        assert (p.a, p.N, p.M) == (q.a, q.N, q.M) == (a, w.size.bit_length() - 1, M)

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 1 << 20))
    def test_refuses_values_outside(self, N, M, k):
        # the digit values -1 and 2**M are refused like any other value
        # outside D_M, whatever the w resolution N
        w = np.zeros(1 << N, dtype=np.uint8)
        for a in (-1, 1 << M, -k, (1 << M) - 1 + k):
            with pytest.raises(ResolutionError) as err:
                coding.CodedPoint.from_value(w, a, M)
            assert type(err.value) is ResolutionError

    def test_alpha_is_read_only(self):
        w = np.zeros(4, dtype=np.uint8)
        for p in (coding.CodedPoint.from_value(w, 6, 3),
                  coding.CodedPoint(w, (0, 1, 1))):
            with pytest.raises(AttributeError):
                p.alpha = (1, 1, 1)
            assert p.alpha == (0, 1, 1)


@st.composite
def windows(draw):
    """Digits, a w resolution N and a half-width L up to 2**min(M, N), so
    that [-L, L] often leaves the segment or D_N, from either end."""
    M = draw(st.integers(1, 8))
    N = draw(st.integers(0, 9))
    return draw(bit_lists(M)), N, draw(st.integers(0, 1 << min(M, N)))


def lambda_segment(alpha, n: int) -> range:
    """Integer preimage of D_n: the segment {-a_n, ..., -a_n + 2**n - 1}."""
    if n > len(alpha):
        raise ResolutionError(f"n = {n} exceeds the digit resolution {len(alpha)}")
    a_n = dyadic.alpha_value(alpha[:n])
    return range(-a_n, -a_n + (1 << n))


class TestLambda:
    def test_zero_alpha_is_identity_on_masks(self):
        alpha = (0, 0, 0)
        for k in range(8):
            assert coding.lambda_alpha(alpha, k) == k

    def test_segment(self):
        alpha = (1, 1, 0)   # digit value 3
        assert lambda_segment(alpha, 2) == range(-3, 1)
        assert lambda_segment(alpha, 3) == range(-3, 5)

    def test_zero_fixed(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = tuple(rng.integers(0, 2, 6))
            assert coding.lambda_alpha(alpha, 0) == 0

    def test_bijection_onto_group(self):
        alpha = (1, 0, 1, 1)
        seg = lambda_segment(alpha, 4)
        image = {coding.lambda_alpha(alpha, k) for k in seg}
        assert image == set(range(16))

    def test_out_of_segment(self):
        with pytest.raises(ResolutionError):
            coding.lambda_alpha((0, 0), -1)

    @given(windows(), st.integers(0, 2 ** 32 - 1))
    def test_window_reads_lambda_alpha(self, window, seed):
        # same bits as position-by-position lambda_alpha, and the same
        # ResolutionError, at the same k, when [-L, L] leaves the segment
        # or, at a w resolution N other than M, D_N
        alpha, N, L = window
        w = np.random.default_rng(seed).integers(0, 2, 1 << N)
        p = coding.CodedPoint(w, alpha)

        def read(k):
            g = coding.lambda_alpha(alpha, k)
            if g >= 1 << N:
                raise ResolutionError(f"window index {k} escapes the w resolution")
            return p.w[g]

        try:
            want = [read(k) for k in range(-L, L + 1)]
        except ResolutionError as err:
            with pytest.raises(ResolutionError) as got:
                coding.lambda_window(p, L)
            assert str(got.value) == str(err)
        else:
            assert coding.lambda_window(p, L).bits.tolist() == want


class TestAdicDiagram:
    def test_shift_diagram_random(self):
        # the adic map reads as the left shift through the integer
        # enumeration: the shifted window of x equals the window of Tx
        rng = np.random.default_rng(3)
        L = 8
        checked = 0
        while checked < 200:
            p = random_point(rng, 10, 10)
            try:
                win = coding.lambda_window(p, L)
                win_next = coding.lambda_window(coding.adic_on_coded(p), L)
            except ResolutionError:
                continue
            assert np.array_equal(win.shift().bits, win_next.bits[:2 * L])
            checked += 1
