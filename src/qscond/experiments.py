"""Instance generators and table reproduction.

Three generators: the fixed 5x5 worked example, random tangent-GV
instances, and ill-scaled quasiseparable instances whose selected lower
generators are blown up over several orders of magnitude.  ``run_table``
drives them into condition-number report rows with CSV and Markdown
emitters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condnum import CSV_HEADER, CondReport, SparseRhs, cond_report, matrix_inverse
from .qsrep import GvTangentParams, QsParams, qs_from_dense

GENERATORS = ("example1-fixed", "random-gv", "illscaled-qs")


@dataclass
class ExperimentConfig:
    n: int = 20
    m: int = 2
    rho: float = 0.5
    seed: int = 0
    trials: int = 1
    generator: str = "random-gv"

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        min_n = 3 if self.generator == "random-gv" else 2
        if self.n < min_n:
            raise ValueError(f"n must be at least {min_n} for {self.generator}")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def example1_fixture():
    """The fixed 5x5 quasiseparable system: (A, sparse B1, dense B2)."""
    A = np.array(
        [
            [1.0, -2.9442, 0.0, 0.0, 0.0],
            [7.2688e4, 1.0, 1.4383e1, 0.0, 0.0],
            [-2.6958e6, -3.0344e2, 1.0, 3.2519e-1, 0.0],
            [-2.9947e9, -3.3709e5, 2.9387e2, 1.0, -7.5493e-1],
            [-8.5754e12, -9.6526e8, 8.4150e5, -7.8728e2, 1.0],
        ]
    )
    B1 = np.array(
        [
            [1.0933, 0.0],
            [1.1093, 0.0],
            [-8.6365e-1, 0.0],
            [0.0, 7.7359e-2],
            [0.0, -1.2141],
        ]
    )
    B2 = np.array(
        [
            [1.0000e-3, 1.0],
            [1.0, 1.0],
            [1.0, 1.0],
            [1.0, 1.0],
            [1.0, 1.0],
        ]
    )
    return A, B1, B2


def gen_random_gv(n: int, seed: int | None = None) -> GvTangentParams:
    """Standard-normal tangent GV parameters of order n (n >= 3)."""
    if n < 3:
        raise ValueError("GV representation requires n >= 3")
    rng = np.random.default_rng(seed)
    return GvTangentParams(
        l=rng.standard_normal(n - 2),
        v=rng.standard_normal(n - 1),
        d=rng.standard_normal(n),
        w=rng.standard_normal(n - 1),
        u=rng.standard_normal(n - 2),
    )


def gen_illscaled_qs(n: int, seed: int | None = None) -> QsParams:
    """Quasiseparable parameters with badly scaled lower generators.

    Starting from standard-normal parameters, l1 = floor(0.3(n-1)) of the
    p's and l2 = floor(0.3(n-2)) of the a's (chosen without replacement,
    applied in ascending index order) are inflated by 10^(alpha_i + 3)
    and 10^(beta_i + 3), where alpha_i = 1 + (i-1)*4/(l1-1) runs from 1
    to 5 and beta_i = alpha_{l2-i+1} runs back down.  All d's are scaled
    by 1e-3 and all g's by 1e3.
    """
    l1 = int(np.floor(0.3 * (n - 1)))
    l2 = int(np.floor(0.3 * (n - 2)))
    if l1 < 2 or l2 < 1:
        raise ValueError(f"n = {n} too small for the ill-scaled generator (need n >= 8)")
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(n - 1)
    a = rng.standard_normal(n - 2)
    q = rng.standard_normal(n - 1)
    d = rng.standard_normal(n) * 1e-3
    g = rng.standard_normal(n - 1) * 1e3
    b = rng.standard_normal(n - 2)
    h = rng.standard_normal(n - 1)
    alpha = 1.0 + np.arange(l1) * 4.0 / (l1 - 1)
    beta = alpha[l2 - 1 :: -1] if l2 <= l1 else alpha[::-1]
    p_idx = np.sort(rng.choice(n - 1, size=l1, replace=False))
    a_idx = np.sort(rng.choice(n - 2, size=l2, replace=False))
    p[p_idx] *= 10.0 ** (alpha + 3.0)
    a[a_idx] *= 10.0 ** (beta + 3.0)
    return QsParams(p=p, a=a, q=q, d=d, g=g, b=b, h=h)


def gen_sparse_rhs(n: int, m: int, rho: float, seed: int | None = None) -> SparseRhs:
    """Sparse RHS: each entry nonzero with probability rho, values in (0,1)."""
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < rho
    terms = []
    for i, j in zip(*np.nonzero(mask)):
        S = np.zeros((n, m))
        S[i, j] = 1.0
        terms.append((S, float(rng.uniform(0.0, 1.0))))
    return SparseRhs(n=n, m=m, terms=terms)


def _solve_checked(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense solve with a backward-error sanity check.

    The residual is scaled by max|A| * max|X| + max|B| (the usual
    backward-error denominator), so badly scaled but backward-stably
    solved systems are not rejected.  The solve goes through the
    equilibrated inverse of the printed matrix of the worked example.
    """
    X = matrix_inverse(A) @ B
    denom = np.max(np.abs(A)) * np.max(np.abs(X)) + np.max(np.abs(B))
    resid = np.max(np.abs(A @ X - B)) / max(denom, np.finfo(float).tiny)
    if resid > 1e-8:
        raise ArithmeticError(f"dense solve residual {resid:.3e} exceeds 1e-8; trial aborted")
    return X


def run_table(config: ExperimentConfig) -> list[CondReport]:
    """Generate instances per the config and compute one report per trial.

    ``example1-fixed`` ignores the dimensions and emits exactly the two
    rows of the worked example (sparse B1, then dense B2), with X solved
    from the printed matrix.  The generated rows let ``cond_report`` solve
    from the generators, which refuses a solve it cannot trust.
    """
    if config.generator == "example1-fixed":
        A, B1, B2 = example1_fixture()
        qs = qs_from_dense(A, tol=1e-4)
        rows = []
        rhs1 = SparseRhs.from_dense(B1)
        rows.append(cond_report(qs, rhs1, X=_solve_checked(A, B1), seed=config.seed))
        rows.append(cond_report(qs, B2, X=_solve_checked(A, B2), seed=config.seed))
        return rows

    rows = []
    root = np.random.default_rng(config.seed)
    for trial in range(config.trials):
        inst_seed = int(root.integers(0, 2**63 - 1))
        rhs_seed = int(root.integers(0, 2**63 - 1))
        gen = gen_random_gv if config.generator == "random-gv" else gen_illscaled_qs
        source = gen(config.n, inst_seed)
        if config.rho < 1.0:
            rhs = gen_sparse_rhs(config.n, config.m, config.rho, rhs_seed)
            while rhs.num_terms == 0:  # redraw: an all-zero RHS has no condition number
                rhs_seed += 1
                rhs = gen_sparse_rhs(config.n, config.m, config.rho, rhs_seed)
        else:
            rhs = np.random.default_rng(rhs_seed).standard_normal((config.n, config.m))
        rows.append(cond_report(source, rhs, seed=inst_seed, rho=config.rho if config.rho < 1.0 else None))
    return rows


def rows_to_csv(rows: list[CondReport]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in rows])


def rows_to_markdown(rows: list[CondReport]) -> str:
    """Markdown table mirroring the paper layout: structured values first."""
    header = "| n | m | rho | K_gv | K_qs | K_eff | K_unstructured | ratio |"
    sep = "|---|---|-----|------|------|-------|----------------|-------|"
    lines = [header, sep]
    for r in rows:
        k_u = r.k_unstructured_sparse if r.k_unstructured_sparse is not None else r.k_unstructured
        lines.append(
            "| {n} | {m} | {rho} | {gv} | {qs:.4e} | {eff:.4e} | {u:.4e} | {ratio:.4e} |".format(
                n=r.n,
                m=r.m,
                rho="" if r.rho is None else r.rho,
                gv="" if r.k_gv is None else f"{r.k_gv:.4e}",
                qs=r.k_qs,
                eff=r.k_eff,
                u=k_u,
                ratio=r.ratio,
            )
        )
    return "\n".join(lines)
