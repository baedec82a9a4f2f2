import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscond import (
    gv_derivatives,
    gv_materialize,
    gv_tangent_to_trig,
    gv_weighted_derivatives,
    qs_derivatives,
    qs_materialize,
    qs_weighted_derivatives,
)

from conftest import make_gv, make_qs

QS_FIELD = {"p": "p", "a": "a", "q": "q", "d": "d", "g": "g", "b": "b", "h": "h"}
QS_OFFSET = {"p": 2, "a": 2, "q": 1, "d": 1, "g": 1, "b": 2, "h": 2}
GV_OFFSET = {"l": 2, "v": 1, "d": 1, "w": 1, "u": 2}


def fd_matrix(params, family, index, offset, materialize, field=None):
    """Central finite difference of the materialization in one parameter."""
    field = field or family
    pos = index - offset
    base = float(getattr(params, field)[pos])
    step = 1e-6 * max(1.0, abs(base))
    hi, lo = params.copy(), params.copy()
    getattr(hi, field)[pos] = base + step
    getattr(lo, field)[pos] = base - step
    return (materialize(hi) - materialize(lo)) / (2.0 * step)


class TestQsDerivatives:
    def test_diagonal_params_only_d_terms(self):
        from qscond import QsParams

        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=[1, 2, 3], g=[0, 0], b=[0], h=[0, 0])
        for t in qs_weighted_derivatives(qs):
            if t.family != "d":
                np.testing.assert_array_equal(t.matrix, 0.0)

    def test_count(self, rng):
        for n in (2, 5, 11):
            qs = make_qs(n, rng)
            assert len(qs_derivatives(qs)) == 7 * n - 8
            assert len(qs_weighted_derivatives(qs)) == 7 * n - 8

    def test_finite_differences(self, rng):
        for n in (4, 6):
            qs = make_qs(n, rng)
            for t in qs_derivatives(qs):
                fd = fd_matrix(qs, t.family, t.index, QS_OFFSET[t.family], qs_materialize)
                scale = max(np.max(np.abs(fd)), 1.0)
                assert np.max(np.abs(t.matrix - fd)) <= 1e-6 * scale, (t.family, t.index)

    def test_weighted_equals_value_times_unweighted(self, rng):
        qs = make_qs(6, rng)
        for tu, tw in zip(qs_derivatives(qs), qs_weighted_derivatives(qs)):
            assert (tu.family, tu.index) == (tw.family, tw.index)
            np.testing.assert_allclose(tu.value * tu.matrix, tw.matrix, atol=1e-13)

    def test_weighted_term_is_A_minus_A_without_parameter(self, rng):
        """omega * dA/domega = A - A(omega:=0) bit for bit, d included."""
        for n in (2, 3, 6):
            qs = make_qs(n, rng)
            A = qs_materialize(qs)
            for t in qs_weighted_derivatives(qs):
                zeroed = qs.copy()
                getattr(zeroed, t.family)[t.index - QS_OFFSET[t.family]] = 0.0
                np.testing.assert_array_equal(
                    t.matrix, A - qs_materialize(zeroed), err_msg=f"{t.family}_{t.index}"
                )

    def test_a2_block_placement(self, rng):
        qs = make_qs(4, rng)
        A = qs_materialize(qs)
        term = next(t for t in qs_weighted_derivatives(qs) if t.family == "a" and t.index == 2)
        expected = np.zeros((4, 4))
        expected[2:, :1] = A[2:, :1]
        np.testing.assert_array_equal(term.matrix, expected)

    def test_sparsity_patterns(self, rng):
        n = 5
        qs = make_qs(n, rng)
        for t in qs_weighted_derivatives(qs):
            i = t.index
            mask = np.zeros((n, n), dtype=bool)
            if t.family == "d":
                mask[i - 1, i - 1] = True
            elif t.family == "p":
                mask[i - 1, : i - 1] = True
            elif t.family == "q":
                mask[i:, i - 1] = True
            elif t.family == "a":
                mask[i:, : i - 1] = True
            elif t.family == "g":
                mask[i - 1, i:] = True
            elif t.family == "h":
                mask[: i - 1, i - 1] = True
            elif t.family == "b":
                mask[: i - 1, i:] = True
            assert np.all(t.matrix[~mask] == 0.0), (t.family, t.index)


class TestGvDerivatives:
    def test_count(self, rng):
        for n in (3, 5, 11):
            gv = make_gv(n, rng)
            assert len(gv_derivatives(gv)) == 5 * n - 6
            assert len(gv_weighted_derivatives(gv)) == 5 * n - 6

    def test_finite_differences(self, rng):
        for n in (4, 6):
            gv = make_gv(n, rng)
            for t in gv_derivatives(gv):
                fd = fd_matrix(gv, t.family, t.index, GV_OFFSET[t.family], gv_materialize)
                scale = max(np.max(np.abs(fd)), 1.0)
                assert np.max(np.abs(t.matrix - fd)) <= 1e-6 * scale, (t.family, t.index)

    def test_weighted_equals_value_times_unweighted(self, rng):
        gv = make_gv(6, rng)
        for tu, tw in zip(gv_derivatives(gv), gv_weighted_derivatives(gv)):
            assert (tu.family, tu.index) == (tw.family, tw.index)
            np.testing.assert_allclose(tu.value * tu.matrix, tw.matrix, atol=1e-12)

    def test_zero_tangent_term(self, rng):
        gv = make_gv(5, rng)
        gv.l[0] = 0.0  # one-based l_2
        A = gv_materialize(gv)
        term = next(t for t in gv_weighted_derivatives(gv) if t.family == "l" and t.index == 2)
        # s_2 = 0 kills the row part; c_2^2 = 1 leaves the pure block
        expected = np.zeros((5, 5))
        expected[2:, :1] = A[2:, :1]
        np.testing.assert_allclose(term.matrix, expected, atol=1e-14)

    def test_u2_structure_n4(self, rng):
        gv = make_gv(4, rng)
        _, _, r, t = gv_tangent_to_trig(gv)
        A = gv_materialize(gv)
        term = next(term for term in gv_weighted_derivatives(gv) if term.family == "u" and term.index == 2)
        expected = np.zeros((4, 4))
        expected[:1, 1] = -t[0] ** 2 * A[:1, 1]
        expected[:1, 2:] = r[0] ** 2 * A[:1, 2:]
        np.testing.assert_allclose(term.matrix, expected, atol=1e-14)


def support(family, i, n):
    """(head, block) masks of a weighted term: the diagonal entry, row or
    column that holds the parameter's own factor, and the block below or
    right of it that holds the transfer coefficient (QS a/b, GV l/u) or
    nothing."""
    head, block = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    if family == "d":
        head[i - 1, i - 1] = True
    if family in ("p", "l"):
        head[i - 1, : i - 1] = True
    if family in ("a", "l"):
        block[i:, : i - 1] = True
    if family in ("q", "v"):
        head[i:, i - 1] = True
    if family in ("g", "w"):
        head[i - 1, i:] = True
    if family in ("h", "u"):
        head[: i - 1, i - 1] = True
    if family in ("b", "u"):
        block[: i - 1, i:] = True
    return head, block


@st.composite
def params_with_zeros(draw, gv):
    """Random QS or GV parameters with a random subset set exactly to 0."""
    n = draw(st.integers(3 if gv else 2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = make_gv(n, rng) if gv else make_qs(n, rng)
    share = draw(st.sampled_from([0.0, 0.3, 0.7]))
    for f in ("lvdwu" if gv else "paqdgbh"):
        vec = getattr(params, f)
        vec[rng.random(vec.size) < share] = 0.0
    return params


class TestZeroParameters:
    """Exact derivatives when any subset of the parameters is zero."""

    def check(self, params, unweighted, weighted, materialize, offsets, coefs):
        n = params.n
        A = materialize(params)
        for tu, tw in zip(unweighted(params), weighted(params)):
            assert (tu.family, tu.index, tu.value) == (tw.family, tw.index, tw.value)
            fd = fd_matrix(params, tu.family, tu.index, offsets[tu.family], materialize)
            scale = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(tu.matrix - fd)) <= 1e-6 * scale, (tu.family, tu.index)
            np.testing.assert_allclose(tu.value * tu.matrix, tw.matrix, rtol=1e-12, atol=1e-13)
            head, block = support(tu.family, tu.index, n)
            ch, cb = coefs(tu.family, tu.index)
            expected = np.where(head, ch * A, 0.0) + np.where(block, cb * A, 0.0)
            np.testing.assert_array_equal(tw.matrix, expected)

    @settings(max_examples=40, deadline=None)
    @given(params_with_zeros(gv=False))
    def test_qs(self, qs):
        self.check(
            qs, qs_derivatives, qs_weighted_derivatives, qs_materialize, QS_OFFSET,
            lambda family, i: (1.0, 1.0),
        )

    @settings(max_examples=40, deadline=None)
    @given(params_with_zeros(gv=True))
    def test_gv(self, gv):
        c2, s2, r2, t2 = (x**2 for x in gv_tangent_to_trig(gv))

        def coefs(family, i):
            if family == "l":
                return -s2[i - 2], c2[i - 2]
            if family == "u":
                return -t2[i - 2], r2[i - 2]
            return 1.0, 1.0

        self.check(gv, gv_derivatives, gv_weighted_derivatives, gv_materialize, GV_OFFSET, coefs)


class TestSolutionDerivative:
    """The first-order change of X = A^{-1} B along (dA, dB) is
    A^{-1} (dB - dA X): checked against perturbed solves."""

    def test_rhs_only(self, rng):
        A = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        dB = rng.standard_normal((3, 2))
        step = 1e-3  # X is affine in B
        fd = (np.linalg.solve(A, B + step * dB) - np.linalg.solve(A, B)) / step
        np.testing.assert_allclose(fd, np.linalg.solve(A, dB), rtol=1e-9, atol=1e-12)

    def test_matrix_only(self, rng):
        A = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        X = np.linalg.solve(A, B)
        dA = rng.standard_normal((3, 3))
        step = 1e-6
        fd = (np.linalg.solve(A + step * dA, B) - np.linalg.solve(A - step * dA, B)) / (2 * step)
        np.testing.assert_allclose(fd, -np.linalg.solve(A, dA @ X), rtol=1e-6, atol=1e-8)

    def test_identity_case(self):
        B = np.arange(6.0).reshape(3, 2)
        dA = np.zeros((3, 3))
        dA[0, 0] = 1.0
        step = 1e-6  # (I + t dA)^{-1} B scales row 0 of B by 1/(1+t)
        I = np.eye(3)
        fd = (np.linalg.solve(I + step * dA, B) - np.linalg.solve(I - step * dA, B)) / (2 * step)
        np.testing.assert_allclose(fd, -dA @ B, atol=1e-8)

    def test_against_finite_difference(self, rng):
        """Perturb one QS parameter and compare the predicted dX."""
        qs = make_qs(5, rng)
        A = qs_materialize(qs)
        B = rng.standard_normal((5, 2))
        X = np.linalg.solve(A, B)
        term = qs_derivatives(qs)[3]
        step = 1e-6 * max(1.0, abs(term.value))
        hi, lo = qs.copy(), qs.copy()
        pos = term.index - QS_OFFSET[term.family]
        getattr(hi, term.family)[pos] += step
        getattr(lo, term.family)[pos] -= step
        fd = (
            np.linalg.solve(qs_materialize(hi), B) - np.linalg.solve(qs_materialize(lo), B)
        ) / (2 * step)
        pred = -np.linalg.solve(A, term.matrix @ X)
        assert np.max(np.abs(pred - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1.0)
