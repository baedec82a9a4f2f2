import json
from pathlib import Path

import numpy as np
import pytest

import qscond.condnum as condnum
from qscond import (
    QsParams,
    SparseRhs,
    WeightSpec,
    cond_eff,
    cond_gv,
    cond_param_denseB,
    cond_param_general,
    cond_param_sparseB,
    cond_qs,
    cond_report,
    cond_unstructured,
    cond_unstructuredA_sparseB,
    gv_derivatives,
    gv_to_qs,
    linearized_sup_oracle,
    qs_derivatives,
    qs_materialize,
    qs_weighted_derivatives,
)
from qscond.cli import main
from qscond.condnum import matrix_inverse
from qscond.experiments import gen_illscaled_qs, gen_random_gv, gen_sparse_rhs
from qscond.io import params_to_json_dict, rhs_from_text
from qscond.qsrep import gv_tangent_to_trig

from conftest import make_gv, make_qs


# Reference: the structured numbers summed one dense n x n block per
# transfer (a_i, b_i) or rotation (l_i, u_i) parameter, O(n^4).


def block_ratio(weights, params, natural, family):
    if natural:
        return np.ones_like(params)
    if weights is None:
        raise ValueError(f"explicit weights missing for parameter family {family!r}")
    out = np.zeros_like(params)
    for k in range(params.size):
        if params[k] == 0.0:
            if weights[k] != 0.0:
                raise ValueError(f"weighted ratio undefined: {family}_{k} = 0 with nonzero weight")
        else:
            out[k] = abs(weights[k] / params[k])
    return out


def block_rhs_term(Ainv, rhs, weights):
    if isinstance(rhs, SparseRhs):
        f = [abs(o) for _, o in rhs.terms] if weights.natural else weights.f
        total = np.zeros((Ainv.shape[0], rhs.m))
        for (S, _), fk in zip(rhs.terms, f):
            total += np.abs(Ainv @ S) * fk
        return total
    return np.abs(Ainv) @ (np.abs(rhs) if weights.natural else weights.F)


def block_generator_terms(params, weights, Ainv, A, X, fams):
    """Diagonal and generator-vector terms; fams maps family -> (kind, lead)."""
    AL, AU = np.tril(A, -1), np.triu(A, 1)
    absAinv = np.abs(Ainv)
    Dd = np.abs(params.d) if weights.natural else weights.e["d"]
    total = absAinv @ (Dd[:, None] * np.abs(X))
    for fam, (kind, lead) in fams.items():
        D = np.ones(params.n)
        r = block_ratio(weights.e.get(fam), getattr(params, fam), weights.natural, fam)
        if lead:
            D[1:] = r
        else:
            D[:-1] = r
        if kind == "row":  # p, g, w: |A^-1| D |A_part X|
            part = AL if fam == "p" else AU
            total += absAinv @ (D[:, None] * np.abs(part @ X))
        else:  # q, h, v: |A^-1 A_part| D |X|
            part = AU if fam == "h" else AL
            total += np.abs(Ainv @ part) @ (D[:, None] * np.abs(X))
    return total


def block_cond_qs(params, rhs, X, weights=None):
    weights = weights or WeightSpec()
    n = params.n
    A = qs_materialize(params)
    Ainv = matrix_inverse(A)
    total = block_rhs_term(Ainv, rhs, weights)
    fams = {"p": ("row", True), "q": ("col", False), "g": ("row", False), "h": ("col", True)}
    total += block_generator_terms(params, weights, Ainv, A, X, fams)
    ra = block_ratio(weights.e.get("a"), params.a, weights.natural, "a")
    rb = block_ratio(weights.e.get("b"), params.b, weights.natural, "b")
    for i in range(2, n):  # one-based transfer index
        if ra[i - 2] != 0.0:
            Ba = np.zeros((n, n))
            Ba[i:, : i - 1] = A[i:, : i - 1]
            total += np.abs(Ainv @ Ba @ X) * ra[i - 2]
        if rb[i - 2] != 0.0:
            Bb = np.zeros((n, n))
            Bb[: i - 1, i:] = A[: i - 1, i:]
            total += np.abs(Ainv @ Bb @ X) * rb[i - 2]
    return np.max(total) / np.max(np.abs(X))


def block_cond_gv(params, rhs, X, weights=None):
    weights = weights or WeightSpec()
    n = params.n
    A = qs_materialize(gv_to_qs(params))
    Ainv = matrix_inverse(A)
    total = block_rhs_term(Ainv, rhs, weights)
    total += block_generator_terms(params, weights, Ainv, A, X, {"v": ("col", False), "w": ("row", False)})
    rl = block_ratio(weights.e.get("l"), params.l, weights.natural, "l")
    ru = block_ratio(weights.e.get("u"), params.u, weights.natural, "u")
    _, s, _, t = gv_tangent_to_trig(params)
    for i in range(2, n):  # one-based rotation index
        if rl[i - 2] != 0.0:
            M = np.zeros((n, n))
            M[i - 1, : i - 1] = -s[i - 2] ** 2 * A[i - 1, : i - 1]
            M[i:, : i - 1] = (1.0 - s[i - 2] ** 2) * A[i:, : i - 1]
            total += np.abs(Ainv @ M @ X) * rl[i - 2]
        if ru[i - 2] != 0.0:
            M = np.zeros((n, n))
            M[: i - 1, i - 1] = -t[i - 2] ** 2 * A[: i - 1, i - 1]
            M[: i - 1, i:] = (1.0 - t[i - 2] ** 2) * A[: i - 1, i:]
            total += np.abs(Ainv @ M @ X) * ru[i - 2]
    return np.max(total) / np.max(np.abs(X))


def entry_derivatives(A):
    n = A.shape[0]
    dA, e = [], []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            dA.append(E)
            e.append(abs(A[i, j]))
    return dA, e


class TestSparseRhs:
    def test_pattern_validation(self):
        with pytest.raises(ValueError, match="entries in"):
            SparseRhs(n=2, m=1, terms=[(np.array([[2.0], [0.0]]), 1.0)])

    def test_materialize_round_trip(self, rng):
        B = rng.standard_normal((4, 3)) * (rng.random((4, 3)) < 0.5)
        rhs = SparseRhs.from_dense(B)
        np.testing.assert_array_equal(rhs.materialize(), B)
        assert rhs.num_terms == np.count_nonzero(B)

    def test_from_dense_patterns(self, rng):
        """One unit pattern per nonzero of B, in row-major order, with its value."""
        B = rng.standard_normal((4, 3)) * (rng.random((4, 3)) < 0.5)
        terms = SparseRhs.from_dense(B).terms
        want = []
        for i, j in zip(*np.nonzero(B)):
            S = np.zeros((4, 3))
            S[i, j] = 1.0
            want.append((S, B[i, j]))
        assert len(terms) == len(want)
        for (S, omega), (S_want, omega_want) in zip(terms, want):
            np.testing.assert_array_equal(S, S_want)
            assert omega == omega_want


class TestCondUnstructured:
    def test_identity_two(self):
        B = np.ones((3, 2))
        assert cond_unstructured(np.eye(3), B, B) == pytest.approx(2.0)

    def test_skeel_with_zero_F(self, rng):
        A = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        X = np.linalg.solve(A, B)
        got = cond_unstructured(A, B, X, F=np.zeros_like(B))
        Ainv = np.linalg.inv(A)
        skeel = np.max(np.abs(Ainv) @ np.abs(A) @ np.abs(X)) / np.max(np.abs(X))
        assert got == pytest.approx(skeel, rel=1e-13)

    def test_zero_solution_error(self):
        with pytest.raises(ValueError, match="zero solution"):
            cond_unstructured(np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_singular_error(self):
        A = np.ones((3, 3))
        with pytest.raises(ValueError, match="singular coefficient matrix"):
            cond_unstructured(A, np.ones((3, 1)), np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        A, B = np.eye(2), np.ones((2, 1))
        X = np.array([[1.0], [bad]])
        with pytest.raises(ValueError, match="solution X has non-finite entries"):
            cond_unstructured(A, B, X)
        with pytest.raises(ValueError, match="coefficient matrix A has non-finite entries"):
            cond_unstructured(np.array([[1.0, bad], [0.0, 1.0]]), B, B)


class TestCondParamGeneral:
    def test_all_zero_derivatives(self, rng):
        A = np.eye(3)
        X = rng.standard_normal((3, 1))
        z = [np.zeros((3, 3))] * 2
        zb = [np.zeros((3, 1))] * 2
        assert cond_param_general(A, X, z, zb, [1.0, 1.0], [1.0, 1.0], n_shared=2) == 0.0

    def test_no_shared_reduces_to_denseB(self, rng):
        A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        X = np.linalg.solve(A, B)
        dA, e = entry_derivatives(A)
        dB, f = [], []
        for i in range(3):
            for j in range(2):
                S = np.zeros((3, 2))
                S[i, j] = 1.0
                dB.append(S)
                f.append(abs(B[i, j]))
        general = cond_param_general(A, X, dA, dB, e, f, n_shared=0)
        dense = cond_param_denseB(A, X, dA, e, np.abs(B))
        assert general == pytest.approx(dense, rel=1e-13)

    def test_provider_count_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cond_param_general(np.eye(2), np.ones((2, 1)), [np.eye(2)], [], [1.0, 2.0], [])


class TestCondParamDenseB:
    def test_no_A_params_identity(self, rng):
        B = rng.standard_normal((3, 2))
        X = B.copy()
        got = cond_param_denseB(np.eye(3), X, [], [], np.abs(B))
        assert got == pytest.approx(np.max(np.abs(B)) / np.max(np.abs(X)))

    def test_entry_params_reproduce_unstructured(self, rng):
        A = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        X = np.linalg.solve(A, B)
        dA, e = entry_derivatives(A)
        got = cond_param_denseB(A, X, dA, e, np.abs(B))
        assert got == pytest.approx(cond_unstructured(A, B, X), rel=1e-12)


class TestCondParamSparseB:
    def test_full_pattern_reduces_to_dense(self, rng):
        A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        X = np.linalg.solve(A, B)
        dA, e = entry_derivatives(A)
        rhs = SparseRhs.from_dense(B)
        f = [abs(w) for _, w in rhs.terms]
        sparse = cond_param_sparseB(A, X, dA, e, rhs, f)
        dense = cond_param_denseB(A, X, dA, e, np.abs(B))
        assert sparse == pytest.approx(dense, rel=1e-13)

    def test_single_ones_pattern(self, rng):
        X = rng.standard_normal((3, 2))
        rhs = SparseRhs(n=3, m=2, terms=[(np.ones((3, 2)), 1.0)])
        got = cond_param_sparseB(np.eye(3), X, [], [], rhs, [1.0])
        assert got == pytest.approx(1.0 / np.max(np.abs(X)))


class TestCondUnstructuredASparseB:
    def test_identity_ones(self):
        B = np.ones((3, 1))
        rhs = SparseRhs.from_dense(B)
        assert cond_unstructuredA_sparseB(np.eye(3), B, rhs) == pytest.approx(2.0)

    def test_restricting_pattern_never_exceeds_dense(self, rng):
        qs = make_qs(6, rng)
        A = qs_materialize(qs)
        B = rng.standard_normal((6, 2)) * (rng.random((6, 2)) < 0.4)
        if not B.any():
            B[0, 0] = 1.0
        X = np.linalg.solve(A, B)
        sparse = cond_unstructuredA_sparseB(A, X, SparseRhs.from_dense(B))
        dense = cond_unstructured(A, B, X)
        assert sparse <= dense * (1 + 1e-12)


class TestCondQs:
    def test_diagonal_matrix_value(self, rng):
        d = np.array([2.0, -3.0, 4.0])
        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=d, g=[0, 0], b=[0], h=[0, 0])
        B = rng.standard_normal((3, 2))
        X = B / d[:, None]
        got = cond_qs(qs, B, X)
        Ainv = np.diag(1.0 / d)
        expected = np.max(
            np.abs(Ainv) @ np.abs(B) + np.abs(Ainv) @ np.abs(np.diag(d)) @ np.abs(X)
        ) / np.max(np.abs(X))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_representation_invariance(self, rng):
        qs = make_qs(7, rng)
        B = rng.standard_normal((7, 2))
        X = np.linalg.solve(qs_materialize(qs), B)
        base = cond_qs(qs, B, X)
        for alpha, beta in ((1e-3, 1e3), (1e3, 1e-3), (7.0, 0.02)):
            scaled = qs.copy()
            scaled.p *= alpha
            scaled.q /= alpha
            scaled.g *= beta
            scaled.h /= beta
            assert cond_qs(scaled, B, X) == pytest.approx(base, rel=1e-12)

    def test_explicit_natural_weights_agree(self, rng, tmp_path, capsys):
        qs = make_qs(5, rng)
        B = rng.standard_normal((5, 2))
        X = np.linalg.solve(qs_materialize(qs), B)
        explicit = WeightSpec(
            variant="explicit",
            e={f: np.abs(getattr(qs, f)) for f in "paqdgbh"},
            F=np.abs(B),
        )
        assert cond_qs(qs, B, X, explicit) == cond_qs(qs, B, X)
        # Through the CLI, every k_* of a weights file equal to the natural
        # weights is the natural value to the bit, ill-scaled input included.
        sparse = gen_sparse_rhs(12, 3, 0.4, 2)
        cases = [(make_qs(12, rng), sparse), (make_qs(12, rng), rng.standard_normal((12, 3)))]
        cases.append((gen_illscaled_qs(20, 5), gen_sparse_rhs(20, 3, 0.3, 5)))
        for k, (params, rhs) in enumerate(cases):
            paths = {name: str(tmp_path / f"{k}-{name}.json") for name in ("qs", "rhs", "w")}
            weights = {"e": {f: np.abs(getattr(params, f)).tolist() for f in "paqdgbh"}}
            if isinstance(rhs, SparseRhs):
                terms = [(*np.argwhere(S)[0], omega) for S, omega in rhs.terms]
                rhs_doc = {"n": rhs.n, "m": rhs.m, "terms": [{"i": int(i) + 1, "j": int(j) + 1, "omega": w} for i, j, w in terms]}
                weights["f"] = [abs(w) for _, _, w in terms]
            else:
                rhs_doc = rhs.tolist()
                weights["F"] = np.abs(rhs).tolist()
            for name, doc in (("qs", params_to_json_dict(params)), ("rhs", rhs_doc), ("w", weights)):
                with open(paths[name], "w") as fh:
                    json.dump(doc, fh)
            outputs = []
            for extra in ([], ["--weights", paths["w"]]):
                assert main(["cond", paths["qs"], paths["rhs"], "--json", *extra]) == 0
                values = json.loads(capsys.readouterr().out)
                outputs.append({key: v for key, v in values.items() if key.startswith("k_")})
            assert outputs[0] == outputs[1]
            expected = {"k_qs", "k_eff", "k_unstructured"} | ({"k_unstructured_sparse"} if isinstance(rhs, SparseRhs) else set())
            assert set(outputs[0]) == expected

    def test_zero_params_with_weights_match_oracle(self, rng):
        """Every weight bounds its own parameter, a zero parameter included:
        cond_qs and cond_gv equal the sup oracle over the unweighted
        derivatives with the same weights."""
        for trial in range(60):
            n = 3 + trial % 6
            for make, derivatives, cond in ((make_qs, qs_derivatives, cond_qs), (make_gv, gv_derivatives, cond_gv)):
                while True:  # zeroed generators can leave A singular: redraw those
                    params = make(n, rng)
                    for v in vars(params).values():
                        v[rng.random(v.size) < 0.3] = 0.0
                    A = qs_materialize(params if make is make_qs else gv_to_qs(params))
                    if np.linalg.cond(A) < 1e6:
                        break
                rhs = SparseRhs.from_dense(rng.standard_normal((n, 2)) * (rng.random((n, 2)) < 0.6) + np.eye(n, 2))
                X = solve(A, rhs)
                e = {f: 0.1 + rng.random(v.size) for f, v in vars(params).items()}
                weights = WeightSpec(variant="explicit", e=e, f=0.1 + rng.random(rhs.num_terms))
                terms = derivatives(params)
                want = linearized_sup_oracle(
                    A, X, [t.matrix for t in terms], np.concatenate(list(e.values())),
                    [S for S, _ in rhs.terms], weights.f, enumerate_signs=False,
                )
                assert cond(params, rhs, X, weights) == pytest.approx(want, rel=1e-10)
                # natural mode stays total
                assert np.isfinite(cond(params, rhs, X))

    def test_negative_or_nonfinite_weights_refused(self):
        for bad in (-1.0, np.nan, np.inf):
            vector = np.array([1.0, bad, 0.5])
            for kwargs in ({"e": {"d": vector}}, {"F": vector[:, None]}, {"f": vector}):
                with pytest.raises(ValueError, match="weights must be nonnegative"):
                    WeightSpec(variant="explicit", **kwargs)

    def test_weight_monotonicity(self, rng):
        qs = make_qs(5, rng)
        B = rng.standard_normal((5, 2))
        X = np.linalg.solve(qs_materialize(qs), B)
        e = {f: np.abs(getattr(qs, f)) for f in "paqdgbh"}
        base = cond_qs(qs, B, X, WeightSpec(variant="explicit", e=e, F=np.abs(B)))
        bigger = {f: 2.0 * v for f, v in e.items()}
        grown = cond_qs(qs, B, X, WeightSpec(variant="explicit", e=bigger, F=np.abs(B)))
        assert grown >= base

    def test_rhs_scale_invariance(self, rng):
        qs = make_qs(6, rng)
        A = qs_materialize(qs)
        B = rng.standard_normal((6, 2))
        X = np.linalg.solve(A, B)
        base = cond_qs(qs, B, X)
        assert cond_qs(qs, 5.0 * B, 5.0 * X) == pytest.approx(base, rel=1e-12)
        assert cond_eff(qs, 5.0 * B, 5.0 * X) == pytest.approx(cond_eff(qs, B, X), rel=1e-12)


class TestCondGv:
    def test_zero_tangents_trivial_blocks(self, rng):
        gv = make_gv(5, rng)
        gv.l[:] = 0.0
        gv.u[:] = 0.0
        B = rng.standard_normal((5, 2))
        A = qs_materialize(gv_to_qs(gv))
        X = np.linalg.solve(A, B)
        # With s = t = 0 the rotation terms reduce to pure blocks of A;
        # cross-check against the oracle built from the weighted terms.
        from qscond import gv_weighted_derivatives
        from qscond.oracle import linearized_sup_oracle

        terms = gv_weighted_derivatives(gv)
        rhs = SparseRhs.from_dense(B)
        brute = linearized_sup_oracle(
            A,
            X,
            [t.matrix for t in terms],
            np.ones(len(terms)),
            [S for S, _ in rhs.terms],
            [abs(w) for _, w in rhs.terms],
            enumerate_signs=False,
        )
        assert cond_gv(gv, rhs, X) == pytest.approx(brute, rel=1e-12)

    def test_thm52_chain_small(self, rng):
        for n in (5, 10):
            gv = make_gv(n, rng)
            qs = gv_to_qs(gv)
            B = rng.standard_normal((n, 2))
            X = np.linalg.solve(qs_materialize(qs), B)
            k_gv = cond_gv(gv, B, X)
            k_qs = cond_qs(qs, B, X)
            assert k_gv <= k_qs <= (3 * n - 2) * k_gv

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_cond_gv_is_report_k_gv(self, n):
        """cond_gv, cond_qs, cond_eff and the full report read k_gv, k_qs and
        k_eff from one preparation, bit for bit: dense and sparse RHS,
        natural and explicit weights, and a 1-D b and x as one column."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            gv = make_gv(n, rng)
            qs = gv_to_qs(gv)
            B = rng.standard_normal((n, 2))
            X = np.linalg.solve(qs_materialize(qs), B)
            rhs = SparseRhs.from_dense(B)
            k_gv = cond_report(gv, rhs, X=X).k_gv
            assert cond_gv(gv, rhs, X) == k_gv
            assert cond_gv(gv, B, X) == k_gv == cond_report(gv, B, X=X).k_gv
            for b, x in ((B, X), (B[:, 0], X[:, 0])):
                cols = b.reshape(n, -1)
                assert cond_gv(gv, b, x) == cond_gv(gv, cols, x.reshape(n, -1))
                F, f = rng.random(cols.shape), rng.random(np.count_nonzero(cols))
                explicit_qs = WeightSpec("explicit", e={k: rng.random(getattr(qs, k).size) for k in "paqdgbh"}, F=F, f=f)
                explicit_gv = WeightSpec("explicit", e={k: rng.random(getattr(gv, k).size) for k in "lvdwu"}, F=F, f=f)
                for r in (b, SparseRhs.from_dense(cols)):
                    for w_qs, w_gv in ((None, None), (explicit_qs, explicit_gv)):
                        rep_qs, rep_gv = cond_report(qs, r, X=x, weights=w_qs), cond_report(gv, r, X=x, weights=w_gv)
                        assert cond_qs(qs, r, x, w_qs) == rep_qs.k_qs
                        assert cond_gv(gv, r, x, w_gv) == rep_gv.k_gv
                        assert cond_eff(qs, r, x) == rep_qs.k_eff == rep_gv.k_eff

    def test_requires_n3(self):
        from qscond import GvTangentParams

        with pytest.raises(ValueError):
            GvTangentParams(l=[], v=[1], d=[1, 1], w=[1], u=[])


class TestCondEff:
    def test_identity_ones(self):
        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=[1, 1, 1], g=[0, 0], b=[0], h=[0, 0])
        B = np.ones((3, 1))
        rhs = SparseRhs.from_dense(B)
        assert cond_eff(qs, rhs, B) == pytest.approx(2.0)

    def test_dense_equals_trivial_sparse(self, rng):
        qs = make_qs(6, rng)
        B = rng.standard_normal((6, 3))
        X = np.linalg.solve(qs_materialize(qs), B)
        assert cond_eff(qs, B, X) == pytest.approx(
            cond_eff(qs, SparseRhs.from_dense(B), X), rel=1e-13
        )

    def test_thm53_chain(self, rng):
        for n in (5, 9, 14):
            qs = make_qs(n, rng)
            B = rng.standard_normal((n, 2))
            X = np.linalg.solve(qs_materialize(qs), B)
            k_eff = cond_eff(qs, B, X)
            k_qs = cond_qs(qs, B, X)
            assert k_eff <= k_qs <= (n - 1) * k_eff

    def test_prop51_bound(self, rng):
        for n in (5, 9):
            qs = make_qs(n, rng)
            A = qs_materialize(qs)
            B = rng.standard_normal((n, 2)) * (rng.random((n, 2)) < 0.5)
            if not B.any():
                B[0, 0] = 1.0
            rhs = SparseRhs.from_dense(B)
            X = np.linalg.solve(A, B)
            assert cond_qs(qs, rhs, X) <= n * cond_unstructuredA_sparseB(A, X, rhs)


def every_cond_call():
    """The n = 5 system of ``gen_random_gv(5, 1)`` with a 5 x 2 B, its X and
    every public cond_* function of it as a function of X."""
    gv = gen_random_gv(5, 1)
    qs = gv_to_qs(gv)
    A = qs_materialize(qs)
    B = np.random.default_rng(1).standard_normal((5, 2))
    rhs = SparseRhs.from_dense(B)
    dA = [t.matrix for t in qs_weighted_derivatives(qs)]
    e, patterns, f = np.ones(len(dA)), [S for S, _ in rhs.terms], [abs(w) for _, w in rhs.terms]
    return np.linalg.solve(A, B), {
        "cond_report": lambda X: cond_report(gv, B, X=X),
        "cond_qs": lambda X: cond_qs(qs, B, X),
        "cond_gv": lambda X: cond_gv(gv, B, X),
        "cond_eff": lambda X: cond_eff(qs, rhs, X),
        "cond_unstructured": lambda X: cond_unstructured(A, B, X),
        "cond_param_general": lambda X: cond_param_general(A, X, dA, patterns, e, f),
        "cond_param_denseB": lambda X: cond_param_denseB(A, X, dA, e, np.abs(B)),
        "cond_param_sparseB": lambda X: cond_param_sparseB(A, X, dA, e, rhs, f),
        "cond_unstructuredA_sparseB": lambda X: cond_unstructuredA_sparseB(A, X, rhs),
    }


class TestInputContract:
    """Every entry point refuses a malformed X with a message naming it, before any work on it."""

    @pytest.fixture(autouse=True)
    def no_sweeps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a malformed X reached the generator system or the dense inverse")

        for name in ("_running_sums", "dgbtrf", "matrix_inverse"):
            monkeypatch.setattr(condnum, name, refuse)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", list(every_cond_call()[1]))
    def test_non_finite_x_is_refused_before_the_sweeps(self, name, bad):
        X, calls = every_cond_call()
        X[3, 1] = bad
        with pytest.raises(ValueError, match="the solution X has non-finite entries"):
            calls[name](X)

    @pytest.mark.parametrize("name", list(every_cond_call()[1]))
    def test_x_of_the_wrong_shape_is_refused(self, name):
        """X with B's first column only, 2-D or 1-D, or transposed, is no
        solution of A X = B, and no number may be read from it."""
        X, calls = every_cond_call()
        for wrong in (X[:, :1], X[:, 0], X.T):
            with pytest.raises(ValueError, match=r"the solution X has shape \(.*\), its right-hand side \(5, 2\)"):
                calls[name](wrong)


class TestCondReport:
    def test_identity_degeneracy(self):
        qs = QsParams(p=[0, 0], a=[0], q=[0, 0], d=[1, 1, 1], g=[0, 0], b=[0], h=[0, 0])
        B = np.ones((3, 2))
        rep = cond_report(qs, B)
        assert rep.k_qs == pytest.approx(rep.k_eff)
        assert rep.k_qs == pytest.approx(rep.k_unstructured)

    def test_chains_hold(self, rng):
        gv = make_gv(8, rng)
        B = rng.standard_normal((8, 2)) * (rng.random((8, 2)) < 0.5)
        if not B.any():
            B[0, 0] = 1.0
        rep = cond_report(gv, SparseRhs.from_dense(B))
        n = rep.n
        assert rep.k_gv <= rep.k_qs <= (3 * n - 2) * rep.k_gv
        assert rep.k_eff <= rep.k_qs <= (n - 1) * rep.k_eff
        assert rep.k_qs <= n * rep.k_unstructured_sparse

    def test_serialization(self, rng):
        qs = make_qs(4, rng)
        B = rng.standard_normal((4, 1))
        rep = cond_report(qs, B, seed=7)
        d = rep.to_json_dict()
        assert d["n"] == 4 and d["seed"] == 7 and "k_qs" in d
        row = rep.to_csv_row()
        assert len(row.split(",")) == 9


def rhs_cases(n, rng):
    """Single-entry sparse, multi-entry sparse (one all-ones pattern) and dense RHS."""
    m = 3
    B = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.5)
    B[0, 0] = 1.0
    multi = SparseRhs(
        n=n,
        m=m,
        terms=[(np.ones((n, m)), 0.7), ((rng.random((n, m)) < 0.4).astype(float), -1.3)]
        + SparseRhs.from_dense(B).terms,
    )
    return [SparseRhs.from_dense(B), multi, rng.standard_normal((n, m))]


def explicit_weights(params, rhs, fams, rng):
    """Random weights; every zero parameter gets a zero weight (ratio 0)."""
    e = {f: rng.random(getattr(params, f).size) * (getattr(params, f) != 0.0) for f in fams}
    if isinstance(rhs, SparseRhs):
        return WeightSpec(variant="explicit", e=e, f=rng.random(rhs.num_terms))
    return WeightSpec(variant="explicit", e=e, F=rng.random(rhs.shape))


def solve(A, rhs):
    return np.linalg.solve(A, rhs.materialize() if isinstance(rhs, SparseRhs) else rhs)


class TestRankOneCore:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 25])
    def test_qs_matches_block_loop(self, n, rng):
        for trial in range(3):
            qs = make_qs(n, rng)
            if n >= 4 and trial == 2:  # zero transfer parameters with zero weights
                qs.a[1] = 0.0
                qs.b[0] = 0.0
            for rhs in rhs_cases(n, rng):
                X = solve(qs_materialize(qs), rhs)
                for w in (None, explicit_weights(qs, rhs, "paqdgbh", rng)):
                    got, want = cond_qs(qs, rhs, X, w), block_cond_qs(qs, rhs, X, w)
                    assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7, 25])
    def test_gv_matches_block_loop(self, n, rng):
        for trial in range(3):
            gv = make_gv(n, rng)
            if trial == 2:  # zero tangents with zero weights
                gv.l[0] = 0.0
                gv.u[-1] = 0.0
            for rhs in rhs_cases(n, rng):
                X = solve(qs_materialize(gv_to_qs(gv)), rhs)
                for w in (None, explicit_weights(gv, rhs, "lvdwu", rng)):
                    got, want = cond_gv(gv, rhs, X, w), block_cond_gv(gv, rhs, X, w)
                    assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 25])
    def test_eff_and_unstructured_sparse_match_per_term_sums(self, n, rng):
        qs = make_qs(n, rng)
        A = qs_materialize(qs)
        Ainv = matrix_inverse(A)
        AL, AD, AU = np.tril(A, -1), np.diag(np.diag(A)), np.triu(A, 1)
        for rhs in rhs_cases(n, rng)[:2]:
            X = solve(A, rhs)
            R = block_rhs_term(Ainv, rhs, WeightSpec())
            absAinv, absX = np.abs(Ainv), np.abs(X)
            eff = R + absAinv @ np.abs(AD) @ absX
            eff += absAinv @ np.abs(AL @ X) + np.abs(Ainv @ AL) @ absX
            eff += absAinv @ np.abs(AU @ X) + np.abs(Ainv @ AU) @ absX
            norm = np.max(np.abs(X))
            assert cond_eff(qs, rhs, X) == pytest.approx(np.max(eff) / norm, rel=1e-12)
            unstr = R + absAinv @ np.abs(A) @ absX
            assert cond_unstructuredA_sparseB(A, X, rhs) == pytest.approx(np.max(unstr) / norm, rel=1e-12)


class TestIndexMap:
    """The generator system E built from one index map equals the per-family loops, bit for bit."""

    @staticmethod
    def families(s):
        for f, (r, c, sign, _) in condnum._PLACE.items():
            yield r, c, sign * getattr(s.qs, f)

    def reference_band(self, s):
        ab = np.zeros((10, 3 * s.qs.n))
        ab[6, 0::3] = ab[6, 2::3] = 1.0
        for r, c, v in self.families(s):
            ab[6 + r - c, c::3][: v.size] = v
        return ab

    def reference_times(self, s, S, absolute):
        out = S.copy()
        out[1::3] = 0.0
        for r, c, v in self.families(s):
            out[r::3][: v.size] += (np.abs(v) if absolute else v)[:, None] * S[c::3][: v.size]
        return out

    def reference_place(self, s, w):
        M = np.zeros_like(s.S)
        start = 0
        for r, c, v in self.families(s):
            wf = w[start:start + v.size]
            start += v.size
            M[r::3][: v.size] += wf[:, None] * s.absS[c::3][: v.size]
        return M

    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    @pytest.mark.parametrize("given_x", [False, True])
    def test_band_times_and_place_match_family_loops(self, n, given_x, rng):
        qs = make_qs(n, rng)
        B = rng.standard_normal((n, 3))
        X = np.linalg.solve(qs_materialize(qs), B) if given_x else None
        s = condnum._Embedded(qs, X, B)
        assert s.vals.size == 7 * n - 8
        np.testing.assert_array_equal(s._band(), self.reference_band(s))
        for absolute in (False, True):
            np.testing.assert_array_equal(s._times(s.S, absolute), self.reference_times(s, s.S, absolute))
        w = rng.random(7 * n - 8) * (rng.random(7 * n - 8) < 0.7)
        got, want = s.place(w), self.reference_place(s, w)
        np.testing.assert_array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous  # BLAS reads both orders differently


class TestFactorOnce:
    @pytest.mark.parametrize("kind", ["qs", "gv", "dense"])
    @pytest.mark.parametrize("given_x", [False, True])
    def test_one_inverse_and_one_materialization_per_report(self, kind, given_x, rng, monkeypatch):
        """The one inverse is the banded factorization of the generator
        system; no structured source takes a dense inverse."""
        gv = make_gv(9, rng)
        source = {"qs": gv_to_qs(gv), "gv": gv, "dense": qs_materialize(gv_to_qs(gv))}[kind]
        rhs = SparseRhs.from_dense(rng.standard_normal((9, 2)) * (rng.random((9, 2)) < 0.5) + np.eye(9, 2))
        X = solve(qs_materialize(gv_to_qs(gv)), rhs) if given_x else None
        calls = {"dgbtrf": 0, "matrix_inverse": 0, "qs_materialize": 0}

        def counted(name):
            real = getattr(condnum, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(condnum, name, counted(name))
        rep = cond_report(source, rhs, X=X)
        assert calls == {"dgbtrf": 1, "matrix_inverse": 0, "qs_materialize": 1}
        assert (rep.k_gv is not None) == (kind == "gv")


ILLSCALED_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "illscaled_reference.json"


class TestIllScaledReference:
    def test_report_matches_stored_high_precision_values(self):
        """cond_report solves the stored ill-scaled instances to their mpmath values."""
        doc = json.loads(ILLSCALED_REFERENCE.read_text())
        assert len(doc["instances"]) == 4
        for inst in doc["instances"]:
            qs = QsParams(**{f: inst["params"][f] for f in "paqdgbh"})
            rep = cond_report(qs, rhs_from_text(json.dumps(inst["rhs"])))
            for key in ("k_qs", "k_eff", "k_unstructured", "k_unstructured_sparse"):
                want = float(inst["reference"][key])
                assert getattr(rep, key) == pytest.approx(want, rel=1e-12), (inst["n"], inst["seed"], key)


def mp_materialize(mp, g):
    """The dense matrix of the generators ``g`` in mpmath, entry by entry."""
    n = len(g["d"])
    A = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                A[i, j] = g["d"][i]
            elif i > j:
                A[i, j] = g["p"][i - 1] * mp.fprod(g["a"][j : i - 1]) * g["q"][j]
            else:
                A[i, j] = g["g"][i] * mp.fprod(g["b"][i : j - 1]) * g["h"][j - 1]
    return A


def mp_k_qs(qs, B, X, dps=800):
    """k_qs with natural weights at ``dps`` digits: every generator term is
    ω ∂A/∂ω = A - A(ω:=0), since each entry holds each generator at most once."""
    import mpmath as mp

    with mp.workdps(dps):
        g = {f: [mp.mpf(float(v)) for v in getattr(qs, f)] for f in "paqdgbh"}
        A = mp_materialize(mp, g)
        Ainv, Xm = A**-1, mp.matrix(X.tolist())
        absAinv = Ainv.apply(abs)
        total = absAinv * mp.matrix(np.abs(B).tolist())
        for f in "paqdgbh":
            for k in range(len(g[f])):
                zeroed = dict(g, **{f: g[f][:k] + [mp.mpf(0)] + g[f][k + 1 :]})
                total += (Ainv * (A - mp_materialize(mp, zeroed)) * Xm).apply(abs)
        return float(max(total) / max(Xm.apply(abs)))


class TestTinyP:
    """Tiny p against huge transfer coefficients: A is finite, while the
    generator system spans the range of double precision."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(0)
        p, a = np.array([1.0, 1e-300, 1e-300, 1e-300]), np.array([1e200, 1e200, 1.0])
        q, d, g, b, h = (rng.standard_normal(k) for k in (4, 5, 4, 3, 4))
        qs = QsParams(p=p, a=a, q=q, d=d, g=g, b=b, h=h)
        return qs, rng.standard_normal((5, 2))

    def test_given_x_matches_mpmath(self):
        pytest.importorskip("mpmath")
        qs, B = self.instance()
        X = np.linalg.solve(qs_materialize(qs), B)
        got = cond_report(qs, B, X=X).k_qs
        assert np.isfinite(got)
        assert got == pytest.approx(mp_k_qs(qs, B, X), rel=1e-12)

    def test_untrusted_solve_is_refused(self, tmp_path, capsys):
        qs, B = self.instance()
        with pytest.raises(ArithmeticError, match="backward error"):
            cond_report(qs, B)
        params, rhs = tmp_path / "qs.json", tmp_path / "B.json"
        params.write_text(json.dumps(params_to_json_dict(qs)))
        rhs.write_text(json.dumps(B.tolist()))
        assert main(["cond", str(params), str(rhs), "--json"]) == 2
        assert "backward error" in capsys.readouterr().err


def test_overflowing_matrix_is_reported_as_overflow():
    qs = gen_illscaled_qs(300, 0)
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(qs_materialize(qs)))
    with pytest.raises(ArithmeticError, match="overflow"):
        cond_report(qs, gen_sparse_rhs(300, 3, 0.3, 0))
