import numpy as np
import pytest

from qscond import (
    SparseRhs,
    cond_gv,
    cond_qs,
    gv_materialize,
    gv_weighted_derivatives,
    qs_materialize,
    qs_weighted_derivatives,
)
from qscond.oracle import (
    linearized_sup_oracle,
    sampled_ratio_lower_bound,
    worst_sign_pattern,
)

from conftest import make_gv, make_qs


def qs_problem(n, m, rng):
    qs = make_qs(n, rng)
    A = qs_materialize(qs)
    B = rng.standard_normal((n, m))
    X = np.linalg.solve(A, B)
    rhs = SparseRhs.from_dense(B)
    terms = qs_weighted_derivatives(qs)
    return qs, A, B, X, rhs, terms


class TestLinearizedOracle:
    def test_single_parameter(self, rng):
        A = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        X = rng.standard_normal((3, 1))
        dA = rng.standard_normal((3, 3))
        got = linearized_sup_oracle(A, X, [dA], [2.0])
        T = -np.linalg.inv(A) @ dA @ X * 2.0
        assert got == pytest.approx(np.max(np.abs(T)) / np.max(np.abs(X)), rel=1e-13)

    def test_budget_error_when_strict(self, rng):
        A = np.eye(2)
        X = np.ones((2, 1))
        dA = [np.eye(2)] * 23
        with pytest.raises(ValueError, match="budget exceeded"):
            linearized_sup_oracle(A, X, dA, [1.0] * 23, enumerate_signs=True)
        # auto mode silently falls back to the entrywise evaluation
        assert np.isfinite(linearized_sup_oracle(A, X, dA, [1.0] * 23))

    def test_weight_length_checked_by_both_evaluations(self):
        X = np.ones((2, 1))
        for e in ([1.0, 1.0, 5.0], [1.0]):
            for evaluate in (linearized_sup_oracle, worst_sign_pattern):
                with pytest.raises(ValueError, match="weight vector length"):
                    evaluate(np.eye(2), X, [np.eye(2)] * 2, e)

    def test_zero_solution_error(self):
        with pytest.raises(ValueError, match="zero solution"):
            linearized_sup_oracle(np.eye(2), np.zeros((2, 1)))

    def test_equals_cond_qs_n3(self, rng):
        qs, A, B, X, rhs, terms = qs_problem(3, 1, rng)
        brute = linearized_sup_oracle(
            A,
            X,
            [t.matrix for t in terms],
            np.ones(len(terms)),
            [S for S, _ in rhs.terms],
            [abs(w) for _, w in rhs.terms],
        )
        assert cond_qs(qs, rhs, X) == pytest.approx(brute, rel=1e-10)

    def test_equals_cond_gv_n3(self, rng):
        gv = make_gv(3, rng)
        A = gv_materialize(gv)
        B = rng.standard_normal((3, 1))
        X = np.linalg.solve(A, B)
        rhs = SparseRhs.from_dense(B)
        terms = gv_weighted_derivatives(gv)
        brute = linearized_sup_oracle(
            A,
            X,
            [t.matrix for t in terms],
            np.ones(len(terms)),
            [S for S, _ in rhs.terms],
            [abs(w) for _, w in rhs.terms],
        )
        assert cond_gv(gv, rhs, X) == pytest.approx(brute, rel=1e-10)


class TestSampledLowerBound:
    def build(self, rng, n=3, m=1):
        qs, A, B, X, rhs, terms = qs_problem(n, m, rng)
        flat0 = np.concatenate([qs.flat(), B.ravel()])
        n_qs = qs.flat().size

        def unflatten(omega):
            out = qs.copy()
            pieces = np.split(omega[:n_qs], np.cumsum([f.size for f in
                              (qs.p, qs.a, qs.q, qs.d, qs.g, qs.b, qs.h)])[:-1])
            for name, val in zip("paqdgbh", pieces):
                getattr(out, name)[:] = val
            return out, omega[n_qs:].reshape(n, m)

        def A_of(omega):
            return qs_materialize(unflatten(omega)[0])

        def B_of(omega):
            return unflatten(omega)[1]

        weights = np.abs(flat0)
        closed = cond_qs(qs, SparseRhs.from_dense(B), X)
        return qs, A, B, X, flat0, A_of, B_of, weights, closed, terms, rhs

    def test_eta_sweep_converges(self, rng):
        _, _, _, _, flat0, A_of, B_of, w, closed, _, _ = self.build(rng)
        vals = [
            sampled_ratio_lower_bound(A_of, B_of, flat0, w, eta, trials=200, seed=1)
            for eta in (1e-5, 1e-7)
        ]
        assert vals[0] <= closed * (1 + 1e-2)
        assert vals[1] <= closed * (1 + 1e-3)
        assert vals[1] > 0.0

    def test_zero_weights(self, rng):
        _, _, _, _, flat0, A_of, B_of, w, _, _, _ = self.build(rng)
        got = sampled_ratio_lower_bound(A_of, B_of, flat0, np.zeros_like(w), 1e-6, 5, seed=0)
        assert got == 0.0

    def test_planted_worst_signs_recover_closed_form(self, rng):
        _, A, B, X, flat0, A_of, B_of, w, closed, terms, rhs = self.build(rng)
        signs = worst_sign_pattern(
            A,
            X,
            [t.matrix for t in terms],
            np.ones(len(terms)),
            [S for S, _ in rhs.terms],
            [abs(v) for _, v in rhs.terms],
        )
        # weighted terms absorb the signed parameter, the sampler perturbs
        # by eta*|omega|: flip the planted sign where the parameter is negative
        planted = signs.copy()
        for k, t in enumerate(terms):
            if t.value < 0:
                planted[k] = -planted[k]
        got = sampled_ratio_lower_bound(
            A_of, B_of, flat0, w, 1e-8, trials=1, seed=0, planted_signs=planted
        )
        assert got >= 0.999 * closed
        assert got <= closed * (1 + 1e-3)

    def test_eta_validation(self, rng):
        _, _, _, _, flat0, A_of, B_of, w, _, _, _ = self.build(rng)
        with pytest.raises(ValueError):
            sampled_ratio_lower_bound(A_of, B_of, flat0, w, 1e-3, 5)
        with pytest.raises(ValueError):
            sampled_ratio_lower_bound(A_of, B_of, flat0, w, 1e-6, 0)
