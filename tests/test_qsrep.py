import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qscond import (
    GvTangentParams,
    QsParams,
    gv_materialize,
    gv_tangent_to_trig,
    gv_to_qs,
    qs_from_dense,
    qs_materialize,
    qs_matvec,
)

from qscond.experiments import gen_illscaled_qs

from conftest import make_gv, make_qs


def scalar_fill(d, p, a, q, g, b, h):
    """Entry-by-entry assembly: walk each row leftwards, each column upwards."""
    n = len(d)
    A = np.zeros((n, n))
    np.fill_diagonal(A, d)
    for i in range(1, n):
        val = p[i - 1]
        for j in range(i - 1, -1, -1):
            A[i, j] = val * q[j]
            if j >= 1:
                val *= a[j - 1]
    for j in range(1, n):
        val = h[j - 1]
        for i in range(j - 1, -1, -1):
            A[i, j] = g[i] * val
            if i >= 1:
                val *= b[i - 1]
    return A


class TestQsMaterialize:
    def test_n2_all_ones(self):
        qs = QsParams(p=[1], a=[], q=[1], d=[1, 1], g=[1], b=[], h=[1])
        np.testing.assert_array_equal(qs_materialize(qs), np.ones((2, 2)))

    def test_diagonal(self):
        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=[2, 3, 4], g=[0, 0], b=[0], h=[0, 0])
        np.testing.assert_array_equal(qs_materialize(qs), np.diag([2.0, 3.0, 4.0]))

    def test_entry_is_parameter_product(self, rng):
        qs = make_qs(6, rng)
        A = qs_materialize(qs)
        # one-based (5, 2): p_5 a_4 a_3 q_2
        expected = qs.p[3] * qs.a[2] * qs.a[1] * qs.q[1]
        assert A[4, 1] == pytest.approx(expected, rel=1e-15)
        # one-based (2, 4): g_2 b_3 h_4
        expected = qs.g[1] * qs.b[1] * qs.h[2]
        assert A[1, 3] == pytest.approx(expected, rel=1e-15)

    def test_low_rank_blocks(self, rng):
        qs = make_qs(7, rng)
        A = qs_materialize(qs)
        n = 7
        for i in range(1, n):
            for block in (A[i:, :i], A[:i, i:]):
                if min(block.shape) >= 2:
                    s = np.linalg.svd(block, compute_uv=False)
                    assert s[1] < 1e-10 * np.linalg.norm(A)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            QsParams(p=[1, 2], a=[], q=[1], d=[1, 1], g=[1], b=[], h=[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bit_identical_to_scalar_walk(self, rng):
        cases = [make_qs(n, rng) for n in (2, 3, 20)] + [gen_illscaled_qs(30, 1000)]
        # Overflow: the running products reach inf in the same entries.
        big = make_qs(20, rng)
        big.p *= 1e200
        big.a *= 1e30
        cases.append(big)
        for qs in cases:
            expected = scalar_fill(qs.d, qs.p, qs.a, qs.q, qs.g, qs.b, qs.h)
            assert np.array_equal(qs_materialize(qs), expected, equal_nan=True)


class TestGvTrig:
    def test_zero_tangent(self):
        gv = GvTangentParams(l=[0.0], v=[1, 1], d=[1, 1, 1], w=[1, 1], u=[0.0])
        c, s, r, t = gv_tangent_to_trig(gv)
        assert c[0] == 1.0 and s[0] == 0.0 and r[0] == 1.0 and t[0] == 0.0

    def test_unit_tangent(self):
        gv = GvTangentParams(l=[1.0], v=[1, 1], d=[1, 1, 1], w=[1, 1], u=[1.0])
        c, s, _, _ = gv_tangent_to_trig(gv)
        assert c[0] == pytest.approx(1 / np.sqrt(2), rel=1e-15)
        assert s[0] == pytest.approx(1 / np.sqrt(2), rel=1e-15)

    def test_tangent_three(self):
        gv = GvTangentParams(l=[3.0], v=[1, 1], d=[1, 1, 1], w=[1, 1], u=[3.0])
        c, s, _, _ = gv_tangent_to_trig(gv)
        assert c[0] == pytest.approx(0.31622776601683794, rel=1e-14)
        assert s[0] == pytest.approx(0.9486832980505138, rel=1e-14)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8))
    def test_pythagorean_identity(self, tangents):
        n = len(tangents) + 2
        gv = GvTangentParams(
            l=tangents, v=np.ones(n - 1), d=np.ones(n), w=np.ones(n - 1), u=tangents
        )
        c, s, r, t = gv_tangent_to_trig(gv)
        eps = np.finfo(float).eps
        assert np.all(np.abs(c**2 + s**2 - 1.0) <= 4 * eps)
        assert np.all(np.abs(r**2 + t**2 - 1.0) <= 4 * eps)


class TestGvMaterialize:
    def test_identity(self):
        gv = GvTangentParams(l=[0, 0], v=[0, 0, 0], d=[1, 1, 1, 1], w=[0, 0, 0], u=[0, 0])
        np.testing.assert_array_equal(gv_materialize(gv), np.eye(4))

    def test_hand_entry_n3(self):
        gv = GvTangentParams(l=[1.0], v=[1, 1], d=[0, 0, 0], w=[1, 1], u=[1.0])
        A = gv_materialize(gv)
        assert A[2, 0] == pytest.approx(1 / np.sqrt(2), rel=1e-14)

    def test_bit_identical_to_scalar_walk(self, rng):
        for n in (3, 4, 20):
            gv = make_gv(n, rng)
            c, s, r, t = gv_tangent_to_trig(gv)
            expected = scalar_fill(gv.d, np.append(c, 1.0), s, gv.v, gv.w, t, np.append(r, 1.0))
            assert np.array_equal(gv_materialize(gv), expected)

    def test_matches_qs_route(self, rng):
        for n in (3, 4, 7, 12):
            gv = make_gv(n, rng)
            A1 = gv_materialize(gv)
            A2 = qs_materialize(gv_to_qs(gv))
            assert np.max(np.abs(A1 - A2)) <= 1e-14 * np.max(np.abs(A1))


class TestGvToQs:
    def test_identity_case(self):
        gv = GvTangentParams(l=[0], v=[0, 0], d=[1, 1, 1], w=[0, 0], u=[0])
        np.testing.assert_array_equal(qs_materialize(gv_to_qs(gv)), np.eye(3))

    def test_hand_mapping_n3(self):
        gv = GvTangentParams(l=[1.0], v=[2, 3], d=[1, 1, 1], w=[1, 1], u=[0.5])
        qs = gv_to_qs(gv)
        c, s, r, _ = gv_tangent_to_trig(gv)
        np.testing.assert_allclose(qs.p, [c[0], 1.0])
        np.testing.assert_allclose(qs.a, [s[0]])
        np.testing.assert_array_equal(qs.q, gv.v)
        np.testing.assert_allclose(qs.h, [r[0], 1.0])


class TestQsFromDense:
    def test_tridiagonal(self):
        A = np.diag([1.0, 2, 3, 4]) + np.diag([1.0, 1, 1], 1) + np.diag([2.0, 2, 2], -1)
        qs = qs_from_dense(A)
        np.testing.assert_allclose(qs_materialize(qs), A, atol=1e-14)
        np.testing.assert_array_equal(qs.a, 0.0)
        np.testing.assert_array_equal(qs.b, 0.0)

    def test_round_trip_random_qs(self, rng):
        for n in (3, 5, 9):
            ref = make_qs(n, rng)
            A = qs_materialize(ref)
            back = qs_materialize(qs_from_dense(A))
            assert np.max(np.abs(back - A)) <= 1e-12 * np.max(np.abs(A))

    def test_full_rank_matrix_rejected(self, rng):
        A = rng.standard_normal((4, 4))
        # confirm independently that a lower block has rank 2
        assert np.linalg.matrix_rank(A[1:, :2]) > 1
        with pytest.raises(ValueError, match="not .1;1.-quasiseparable"):
            qs_from_dense(A)

    def test_broken_chain_rejected(self):
        A = np.eye(4)
        with pytest.raises(ValueError, match="generator chain broken"):
            qs_from_dense(A)


class TestQsMatvec:
    def test_diagonal(self):
        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=[2, 3, 4], g=[0, 0], b=[0], h=[0, 0])
        np.testing.assert_allclose(qs_matvec(qs, [1, 1, 1]), [2, 3, 4])

    def test_unit_vector_extracts_column(self, rng):
        qs = make_qs(50, rng)
        x = np.zeros(50)
        x[2] = 1.0
        A = qs_materialize(qs)
        np.testing.assert_allclose(qs_matvec(qs, x), A[:, 2], rtol=1e-12, atol=1e-12)

    def test_matches_dense_many(self, rng):
        for trial in range(100):
            n = (5, 20, 100)[trial % 3]
            qs = make_qs(n, rng)
            x = rng.standard_normal(n)
            y_ref = qs_materialize(qs) @ x
            y = qs_matvec(qs, x)
            assert np.max(np.abs(y - y_ref)) <= 1e-12 * max(np.max(np.abs(y_ref)), 1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="does not match"):
            qs_matvec(make_qs(4, rng), np.ones(5))


class TestSplit:
    """The strictly lower part of A is the matrix of p, a, q alone, the
    diagonal that of d, and the strictly upper part that of g, b, h."""

    @staticmethod
    def parts(qs):
        out = []
        for fams in ("paq", "d", "gbh"):
            part = qs.copy()
            for f in "paqdgbh":
                if f not in fams:
                    getattr(part, f)[:] = 0.0
            out.append(qs_materialize(part))
        return out

    def test_identity(self):
        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=[1, 1, 1], g=[0, 0], b=[0], h=[0, 0])
        L, D, U = self.parts(qs)
        np.testing.assert_array_equal(L, np.zeros((3, 3)))
        np.testing.assert_array_equal(D, np.eye(3))
        np.testing.assert_array_equal(U, np.zeros((3, 3)))

    def test_sum_reconstructs(self, rng):
        qs = make_qs(5, rng)
        A = qs_materialize(qs)
        L, D, U = self.parts(qs)
        np.testing.assert_array_equal(L, np.tril(A, -1))
        np.testing.assert_array_equal(D, np.diag(np.diag(A)))
        np.testing.assert_array_equal(U, np.triu(A, 1))
        np.testing.assert_array_equal(L + D + U, A)
