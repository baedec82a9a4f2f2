"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or in the captured output of a failing test) and then
asserts, so the suite both documents and enforces the criteria.

Criterion 1 (worked-example table reproduction) is known to fail: the
fixture matrices are printed to five significant figures while the
coefficient matrix has a condition number near 5e13, so the tabulated
condition numbers are not determined by the printed digits.  The test
implements the criterion faithfully and is expected red.
"""

import time

import numpy as np
import pytest

from qscond import (
    ExperimentConfig,
    QsParams,
    SparseRhs,
    cond_eff,
    cond_gv,
    cond_param_denseB,
    cond_param_general,
    cond_param_sparseB,
    cond_qs,
    cond_unstructured,
    cond_unstructuredA_sparseB,
    gen_illscaled_qs,
    gen_random_gv,
    gen_sparse_rhs,
    gv_materialize,
    gv_to_qs,
    gv_weighted_derivatives,
    linearized_sup_oracle,
    qs_materialize,
    qs_matvec,
    qs_weighted_derivatives,
    run_table,
)

from conftest import make_gv, make_qs

RESULTS: list[str] = []


def record(ok: bool, label: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def entry_terms(A: np.ndarray):
    """One derivative per entry of A with its natural weight |a_ij|."""
    n = A.shape[0]
    mats, weights = [], []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            mats.append(E)
            weights.append(abs(A[i, j]))
    return mats, weights


def test_criterion_1_table_reproduction():
    """Worked-example table: six values within 1e-3 relative, under 1 s."""
    expected_sparse = (6.1526e5, 5.9573e1, 6.8460e1)
    expected_dense = (7.9145e4, 1.3532e1, 1.4920e1)
    start = time.perf_counter()
    rows = run_table(ExperimentConfig(n=5, m=2, rho=0.5, seed=0, trials=1,
                                      generator="example1-fixed"))
    elapsed = time.perf_counter() - start
    got_sparse = (rows[0].k_unstructured_sparse, rows[0].k_eff, rows[0].k_qs)
    got_dense = (rows[1].k_unstructured, rows[1].k_eff, rows[1].k_qs)
    devs = [rel(g, e) for g, e in zip(got_sparse + got_dense,
                                      expected_sparse + expected_dense)]
    ok = max(devs) <= 1e-3 and elapsed < 1.0
    record(ok, "criterion 1 (table reproduction)",
           f"max relative deviation {max(devs):.3e} (tol 1e-3), "
           f"computed {tuple(float(f'{v:.5g}') for v in got_sparse + got_dense)}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    """Every closed form equals the sign-enumeration oracle to 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    for idx in range(30):
        n = (2, 3, 4)[idx % 3]
        m = (1, 2)[(idx // 3) % 2]
        rng = np.random.default_rng(1000 + idx)
        qs = make_qs(n, rng)
        A = qs_materialize(qs)
        B = rng.standard_normal((n, m))
        X = np.linalg.solve(A, B)
        terms = qs_weighted_derivatives(qs)
        dA = [t.matrix for t in terms]
        eA = [1.0] * len(terms)  # weighted terms absorb their parameters
        dense_rhs = SparseRhs.from_dense(B)
        dB = [S for S, _ in dense_rhs.terms]
        fB = [abs(w) for _, w in dense_rhs.terms]
        dense_oracle = linearized_sup_oracle(A, X, dA, eA, dB, fB)

        # structured QS form and the general parameterized-A form
        worst = max(worst, rel(cond_qs(qs, B, X), dense_oracle))
        worst = max(worst, rel(cond_param_denseB(A, X, dA, eA, np.abs(B)),
                               dense_oracle))

        # shared-parameter form: diagonal params also drive B's first column
        shared = [t for t in terms if t.family == "d"]
        others = [t for t in terms if t.family != "d"]
        dA_sh = [t.matrix for t in shared + others]
        eA_sh = [1.0] * len(dA_sh)
        dB_sh = [np.eye(n)[:, [i]] @ np.ones((1, m)) * 0.0 for i in range(n)]
        for i in range(n):
            dB_sh[i][i, 0] = 1.0
        dB_all = dB_sh + dB
        f_all = [0.0] * n + fB
        worst = max(worst, rel(
            cond_param_general(A, X, dA_sh, dB_all, eA_sh, f_all, n_shared=n),
            linearized_sup_oracle(A, X, dA_sh, eA_sh, dB_all, f_all, n_shared=n)))

        # sparse-RHS forms
        sparse = gen_sparse_rhs(n, m, 0.6, seed=2000 + idx)
        while sparse.num_terms == 0:
            sparse = gen_sparse_rhs(n, m, 0.6, seed=3000 + idx)
        Bs = sparse.materialize()
        Xs = np.linalg.solve(A, Bs)
        dBs = [S for S, _ in sparse.terms]
        fs = [abs(w) for _, w in sparse.terms]
        worst = max(worst, rel(cond_param_sparseB(A, Xs, dA, eA, sparse, fs),
                               linearized_sup_oracle(A, Xs, dA, eA, dBs, fs)))
        dAe, eAe = entry_terms(A)
        worst = max(worst, rel(cond_unstructuredA_sparseB(A, Xs, sparse),
                               linearized_sup_oracle(A, Xs, dAe, eAe, dBs, fs)))

        # effective term set
        eff = [t for t in terms if t.family not in ("a", "b")]
        worst = max(worst, rel(
            cond_eff(qs, sparse, Xs),
            linearized_sup_oracle(A, Xs, [t.matrix for t in eff],
                                  [1.0] * len(eff), dBs, fs)))

        # tangent-parameterized representation (needs order >= 3)
        if n >= 3:
            gv = make_gv(n, rng)
            Ag = gv_materialize(gv)
            Bg = rng.standard_normal((n, m))
            Xg = np.linalg.solve(Ag, Bg)
            gterms = gv_weighted_derivatives(gv)
            grhs = SparseRhs.from_dense(Bg)
            worst = max(worst, rel(
                cond_gv(gv, grhs, Xg),
                linearized_sup_oracle(Ag, Xg, [t.matrix for t in gterms],
                                      [1.0] * len(gterms),
                                      [S for S, _ in grhs.terms],
                                      [abs(w) for _, w in grhs.terms])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    record(ok, "criterion 2 (oracle equivalence)",
           f"30 instances, max relative deviation {worst:.3e} (tol 1e-10), "
           f"runtime {elapsed:.1f}s (limit 30s)")


def test_criterion_3_inequality_suite():
    """Structured-vs-unstructured inequality chains: zero violations."""
    start = time.perf_counter()
    slack = 1e-12
    violations = []
    count = 0
    idx = 0
    while count < 200:
        n = (10, 20, 60)[idx % 3]
        generator = ("random-gv", "illscaled-qs")[(idx // 3) % 2]
        rho = (0.3, 1.0)[(idx // 6) % 2]
        cfg = ExperimentConfig(n=n, m=2, rho=rho, seed=5000 + idx,
                               trials=1, generator=generator)
        idx += 1
        row = run_table(cfg)[0]
        count += 1
        k_u = row.k_unstructured_sparse if row.k_unstructured_sparse is not None else row.k_unstructured
        if row.k_qs > n * k_u * (1.0 + slack):
            violations.append(f"{generator} n={n} rho={rho}: k_qs > n*k_unstructured")
        if not (row.k_eff <= row.k_qs * (1.0 + slack)
                and row.k_qs <= (n - 1) * row.k_eff * (1.0 + slack)):
            violations.append(f"{generator} n={n} rho={rho}: effective chain")
        if row.k_gv is not None and not (
                row.k_gv <= row.k_qs * (1.0 + slack)
                and row.k_qs <= (3 * n - 2) * row.k_gv * (1.0 + slack)):
            violations.append(f"{generator} n={n} rho={rho}: tangent chain")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    record(ok, "criterion 3 (inequality suite)",
           f"200 instances, {len(violations)} violations, "
           f"runtime {elapsed:.1f}s (limit 120s)"
           + ("" if not violations else f"; first: {violations[0]}"))


def test_criterion_4_representation_invariance():
    """Counter-rescaling generators leaves the structured value unchanged."""
    worst = 0.0
    for idx in range(50):
        n = (5, 8, 12)[idx % 3]
        rng = np.random.default_rng(7000 + idx)
        qs = make_qs(n, rng)
        A = qs_materialize(qs)
        B = rng.standard_normal((n, 2))
        X = np.linalg.solve(A, B)
        base = cond_qs(qs, B, X)
        for factor in (1e-3, 1e3):
            scaled = QsParams(p=qs.p / factor, a=qs.a.copy(), q=qs.q * factor,
                              d=qs.d.copy(), g=qs.g * factor, b=qs.b.copy(),
                              h=qs.h / factor)
            np.testing.assert_allclose(qs_materialize(scaled), A, rtol=1e-9)
            worst = max(worst, rel(cond_qs(scaled, B, X), base))
    ok = worst <= 1e-12
    record(ok, "criterion 4 (representation invariance)",
           f"50 instances x factors {{1e-3, 1e3}}, "
           f"max relative change {worst:.3e} (tol 1e-12)")


def test_criterion_5_derivative_correctness():
    """Weighted derivative terms match central finite differences."""
    qs_offset = {"p": 2, "a": 2, "q": 1, "d": 1, "g": 1, "b": 2, "h": 2}
    gv_offset = {"l": 2, "v": 1, "d": 1, "w": 1, "u": 2}

    def fd(params, family, index, offsets, materialize):
        pos = index - offsets[family]
        base = float(getattr(params, family)[pos])
        step = 1e-6 * max(1.0, abs(base))
        hi, lo = params.copy(), params.copy()
        getattr(hi, family)[pos] = base + step
        getattr(lo, family)[pos] = base - step
        return (materialize(hi) - materialize(lo)) / (2.0 * step)

    worst = 0.0
    for idx in range(50):
        n = (4, 8, 16)[idx % 3]
        rng = np.random.default_rng(9000 + idx)
        qs = make_qs(n, rng)
        for t in qs_weighted_derivatives(qs):
            # weighted forms absorb the parameter value
            approx = fd(qs, t.family, t.index, qs_offset, qs_materialize) * t.value
            scale = max(np.max(np.abs(t.matrix)), 1e-300)
            worst = max(worst, np.max(np.abs(t.matrix - approx)) / scale)
        gv = make_gv(n, rng)
        for t in gv_weighted_derivatives(gv):
            approx = fd(gv, t.family, t.index, gv_offset, gv_materialize) * t.value
            scale = max(np.max(np.abs(t.matrix)), 1e-300)
            worst = max(worst, np.max(np.abs(t.matrix - approx)) / scale)
    ok = worst <= 1e-6
    record(ok, "criterion 5 (derivative correctness)",
           f"50 instances n in {{4,8,16}}, max relative FD deviation "
           f"{worst:.3e} (tol 1e-6)")


def test_criterion_6_conversion_consistency():
    """Direct tangent materialization agrees with conversion-then-walk."""
    worst = 0.0
    for idx in range(100):
        n = 3 + idx % 14
        rng = np.random.default_rng(11000 + idx)
        gv = make_gv(n, rng)
        direct = gv_materialize(gv)
        via_qs = qs_materialize(gv_to_qs(gv))
        scale = max(np.max(np.abs(direct)), 1e-300)
        worst = max(worst, np.max(np.abs(direct - via_qs)) / scale)
    ok = worst <= 1e-14
    record(ok, "criterion 6 (conversion consistency)",
           f"100 instances, max relative deviation {worst:.3e} (tol 1e-14)")


def test_criterion_7_structured_matvec():
    """Matvec correctness at moderate order, linear-time scaling at large."""
    worst = 0.0
    for idx in range(10):
        n = 50 + 25 * idx
        rng = np.random.default_rng(13000 + idx)
        qs = make_qs(n, rng)
        x = rng.standard_normal(n)
        dense = qs_materialize(qs) @ x
        fast = qs_matvec(qs, x)
        worst = max(worst, np.max(np.abs(dense - fast)) / max(np.max(np.abs(dense)), 1e-300))

    def best_time(n: int) -> float:
        rng = np.random.default_rng(n)
        qs = make_qs(n, rng)
        x = rng.standard_normal(n)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            qs_matvec(qs, x)
            best = min(best, time.perf_counter() - t0)
        return best

    growth = best_time(10**5) / best_time(10**4)
    ok = worst <= 1e-12 and growth <= 20.0
    record(ok, "criterion 7 (structured matvec)",
           f"max relative deviation {worst:.3e} (tol 1e-12); "
           f"time growth 1e4 -> 1e5: {growth:.1f}x (limit 20x)")


def test_criterion_8_regime_reproduction():
    """Ill-scaled instances: unstructured/effective ratio above 1e4."""
    failures = []
    for n in (20, 40, 60):
        for rho in (0.3, 1.0):
            cfg = ExperimentConfig(n=n, m=3, rho=rho, seed=17000 + n,
                                   trials=20, generator="illscaled-qs")
            rows = run_table(cfg)
            hits = sum(1 for r in rows if r.ratio > 1e4)
            if hits < 18:  # 90% of 20
                failures.append(f"n={n} rho={rho}: {hits}/20")
    ok = not failures
    record(ok, "criterion 8 (regime reproduction)",
           "ratio > 1e4 in >= 90% of 20 trials for every configuration"
           if ok else f"below 90%: {', '.join(failures)}")


def test_zzz_summary(capsys):
    with capsys.disabled():
        print("\nAcceptance summary:")
        for line in RESULTS:
            print(f"  {line}")
