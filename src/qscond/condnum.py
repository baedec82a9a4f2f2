"""Componentwise condition numbers for A X = B under the max norm.

All condition numbers share the same shape: a nonnegative matrix expression
measuring the worst first-order change of X, maximized entrywise, divided
by ``max(|X|)``.  The functions range from the fully general parameterized
form down to the structured quasiseparable formulas and the effective
condition number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .qsrep import (
    GvTangentParams,
    QsParams,
    gv_tangent_to_trig,
    gv_to_qs,
    qs_from_dense,
    qs_materialize,
)


@dataclass
class SparseRhs:
    """Right-hand side B = Σ_k ω_k S_k with 0/1 pattern matrices S_k."""

    n: int
    m: int
    terms: list[tuple[np.ndarray, float]]

    def __post_init__(self):
        cleaned = []
        for S, omega in self.terms:
            S = np.asarray(S, dtype=float)
            if S.shape != (self.n, self.m):
                raise ValueError(f"pattern matrix has shape {S.shape}, expected {(self.n, self.m)}")
            if not np.all((S == 0.0) | (S == 1.0)):
                raise ValueError("pattern matrices must have entries in {0, 1}")
            cleaned.append((S, float(omega)))
        self.terms = cleaned

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def materialize(self) -> np.ndarray:
        B = np.zeros((self.n, self.m))
        for S, omega in self.terms:
            B += omega * S
        return B

    @classmethod
    def from_dense(cls, B: np.ndarray) -> "SparseRhs":
        """Trivial expansion with one unit pattern per nonzero entry."""
        B = np.asarray(B, dtype=float)
        n, m = B.shape
        terms = []
        for i, j in zip(*np.nonzero(B)):
            S = np.zeros((n, m))
            S[i, j] = 1.0
            terms.append((S, B[i, j]))
        return cls(n=n, m=m, terms=terms)


@dataclass
class WeightSpec:
    """Perturbation weights for the structured condition numbers.

    variant "natural" weights every parameter by its own magnitude (and B
    by |B|).  variant "explicit" supplies per-family weight vectors in
    ``e`` (keys matching the parameter families, e.g. "p", "a", ... or
    "l", "v", ...), an entrywise matrix weight ``F`` for a dense RHS, or a
    per-term vector ``f`` for a sparse RHS.
    """

    variant: str = "natural"
    e: dict[str, np.ndarray] = field(default_factory=dict)
    F: np.ndarray | None = None
    f: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("natural", "explicit"):
            raise ValueError(f"unknown weight variant {self.variant!r}")

    @property
    def natural(self) -> bool:
        return self.variant == "natural"


@dataclass
class CondReport:
    """Bundle of condition numbers for one system, with metadata.

    ``k_unstructured`` is the dense entrywise value; when the RHS is
    sparse, ``k_unstructured_sparse`` additionally restricts the RHS
    perturbation to the sparsity pattern.  ``ratio`` is the headline
    unstructured-over-effective quotient (using the sparse-aware
    unstructured value when one exists).
    """

    n: int
    m: int
    rhs_mode: str
    k_unstructured: float
    k_eff: float
    k_qs: float
    k_unstructured_sparse: float | None = None
    k_gv: float | None = None
    seed: int | None = None
    rho: float | None = None

    @property
    def ratio(self) -> float:
        k_u = self.k_unstructured_sparse if self.k_unstructured_sparse is not None else self.k_unstructured
        return k_u / self.k_eff

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "rhs_mode": self.rhs_mode,
            "k_unstructured": self.k_unstructured,
            "k_eff": self.k_eff,
            "k_qs": self.k_qs,
            "ratio": self.ratio,
        }
        for key in ("k_unstructured_sparse", "k_gv", "seed", "rho"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    def to_csv_row(self) -> str:
        k_u = self.k_unstructured_sparse if self.k_unstructured_sparse is not None else self.k_unstructured
        fields = [
            str(self.n),
            str(self.m),
            "" if self.rho is None else repr(self.rho),
            "" if self.seed is None else str(self.seed),
            repr(k_u),
            repr(self.k_eff),
            repr(self.k_qs),
            "" if self.k_gv is None else repr(self.k_gv),
            repr(self.ratio),
        ]
        return ",".join(fields)


CSV_HEADER = "n,m,rho,seed,k_unstructured,k_eff,k_qs,k_gv,ratio"


def _mx(M: np.ndarray) -> float:
    return float(np.max(np.abs(M)))


def matrix_inverse(A: np.ndarray) -> np.ndarray:
    """Dense inverse via LU with partial pivoting; rejects singular input.

    The matrix is first equilibrated by iterated two-sided diagonal
    scaling (Ruiz iteration on max-norms), the scaled copy is factored,
    and the scalings are undone on the inverse.  The experiment
    generator deliberately produces matrices whose entries span dozens
    of orders of magnitude; their ill-conditioning is largely diagonal
    scaling, so factoring the equilibrated copy keeps the inverse
    accurate enough for the condition-number quotients while computing
    exactly the same mathematical object.

    Singularity is flagged structurally: a zero row or column, an
    exactly zero pivot, or nonfinite entries in the factorization or
    inverse.  A magnitude threshold on pivots is deliberately avoided
    because the ill-scaled experiment matrices sit far beyond any
    eps-relative cutoff while exactly singular inputs still produce
    zero pivots.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    scaled = A.copy()
    row = np.ones(n)
    col = np.ones(n)
    for _ in range(50):
        rmax = np.max(np.abs(scaled), axis=1)
        cmax = np.max(np.abs(scaled), axis=0)
        if np.any(rmax == 0.0) or np.any(cmax == 0.0):
            raise ValueError("singular coefficient matrix")
        if np.max(rmax) <= 2.0 and np.min(rmax) >= 0.5 and np.max(cmax) <= 2.0 and np.min(cmax) >= 0.5:
            break
        dr = 1.0 / np.sqrt(rmax)
        scaled *= dr[:, None]
        row *= dr
        dc = 1.0 / np.sqrt(np.max(np.abs(scaled), axis=0))
        scaled *= dc[None, :]
        col *= dc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(scaled, check_finite=False)
    if np.any(np.diag(lu) == 0.0) or not np.all(np.isfinite(lu)):
        raise ValueError("singular coefficient matrix")
    scaled_inverse = scipy.linalg.lu_solve((lu, piv), np.eye(n), check_finite=False)
    if not np.all(np.isfinite(scaled_inverse)):
        raise ValueError("singular coefficient matrix")
    # (R A C)^-1 = C^-1 A^-1 R^-1, so A^-1 = C (R A C)^-1 R.
    return (col[:, None] * scaled_inverse) * row[None, :]


def _check_x(X: np.ndarray) -> float:
    norm = _mx(X)
    if norm == 0.0:
        raise ValueError("zero solution")
    return norm


class _System:
    """A X = B prepared once per call: A, its equilibrated inverse and X.

    Every condition number of one call reads from one instance, so A is
    factored once.  An omitted X is solved from B after the inverse has
    checked A for singularity.  The products of the strictly lower and
    upper parts, and of the transfer profiles of the generators ``qs`` of
    A, are computed on first use.
    """

    def __init__(self, A, X=None, B=None, qs: QsParams | None = None):
        self.A, self.qs = np.asarray(A, dtype=float), qs
        if X is not None:
            _check_x(np.asarray(X, dtype=float))
        self.Ainv = matrix_inverse(self.A)
        self.X = np.linalg.solve(self.A, B) if X is None else np.asarray(X, dtype=float)
        self.norm = _check_x(self.X)
        self.absAinv, self.absX = np.abs(self.Ainv), np.abs(self.X)
        self._parts = self._transfer = None

    def k(self, total: np.ndarray) -> float:
        return _mx(total) / self.norm

    def parts(self):
        """(|A_L X|, |A_U X|, |A⁻¹ A_L|, |A⁻¹ A_U|)."""
        if self._parts is None:
            AL, AU = np.tril(self.A, -1), np.triu(self.A, 1)
            products = (AL @ self.X, AU @ self.X, self.Ainv @ AL, self.Ainv @ AU)
            self._parts = tuple(np.abs(M, out=M) for M in products)
        return self._parts

    def transfer(self):
        """(A⁻¹ Lcol, Lrow X, A⁻¹ Ucol, Urow X), one column/row per transfer index.

        The a_i block of A is a_i Lcol_i Lrow_iᵀ and the b_i block
        Ucol_i b_i Urow_iᵀ (see :func:`_profiles`).
        """
        if self._transfer is None:
            lcol, lrow = _profiles(self.qs.p, self.qs.a, self.qs.q)
            urow, ucol = _profiles(self.qs.h, self.qs.b, self.qs.g)
            self._transfer = (self.Ainv @ lcol.T, lrow @ self.X, self.Ainv @ ucol.T, urow @ self.X)
        return self._transfer


def _profiles(p: np.ndarray, a: np.ndarray, q: np.ndarray):
    """Rank-one factors of the transfer blocks of the lower part (p, a, q).

    Zero-based, the block of the one-based transfer index i covers rows
    r >= i and columns c <= i-2 and equals a_i Lcol_i Lrow_iᵀ, with
    Lcol_i[r] = p[r-1] a[i-1] ... a[r-2] and Lrow_i[c] = a[c] ... a[i-3] q[c].
    Returns (Lcol, Lrow) as (n-2) x n arrays, row k for i = k + 2.  The
    upper part is the lower part of Aᵀ, so (h, b, g) gives (Urow, Ucol).
    """
    n = p.size + 1
    col, row = np.zeros((2, max(n - 2, 0), n))
    for k in range(n - 2):
        j = n - 3 - k
        if k > 0:
            row[k] = row[k - 1] * a[k - 1]
            col[j] = col[j + 1] * a[j + 1]
        row[k, k], col[j, j + 2] = q[k], p[j + 1]
    return col, row


def _rank_one_sum(Y: np.ndarray, w: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Σ_i w_i |y_i| |z_i|ᵀ = |Y| diag(w) |Z|, that is Σ_i w_i |A⁻¹ y_i z_iᵀ X|
    for Y = A⁻¹[y_i] and Z = [z_iᵀ] X.  A zero weight contributes exactly 0,
    even against a non-finite factor.
    """
    left, right, skip = np.abs(Y), np.abs(Z), w == 0.0
    left *= w
    left[:, skip] = right[skip] = 0.0
    return left @ right


def _ratios(weights: WeightSpec, params: np.ndarray, family: str) -> np.ndarray:
    """|e_k / omega_k| with the zero-parameter conventions.

    Natural mode: the ratio is identically 1, including at omega = 0.
    Explicit mode: 0 when both weight and parameter vanish, error when the
    weight is nonzero but the parameter is 0.
    """
    if weights.natural:
        return np.ones_like(params)
    if weights.e.get(family) is None:
        raise ValueError(f"explicit weights missing for parameter family {family!r}")
    e = np.asarray(weights.e[family], dtype=float)
    if e.shape != params.shape:
        raise ValueError(f"weight vector for {family!r} has wrong length")
    zero = params == 0.0
    bad = np.flatnonzero(zero & (e != 0.0))
    if bad.size:
        raise ValueError(f"weighted ratio undefined: {family}_{bad[0]} = 0 with nonzero weight")
    out = np.zeros_like(params)
    out[~zero] = np.abs(e[~zero] / params[~zero])
    return out


def _row_weights(weights: WeightSpec, params: np.ndarray, family: str) -> np.ndarray:
    """The weight diagonal D_family: the ratios padded with a 1 in the row
    the family never reaches (the first for p and h, the last otherwise).
    """
    if family == "d":
        e = np.abs(params) if weights.natural else weights.e.get("d")
        if e is None:
            raise ValueError("explicit weights missing for parameter family 'd'")
        return np.asarray(e, dtype=float)
    r = _ratios(weights, params, family)
    return np.concatenate(([1.0], r) if family in "ph" else (r, [1.0]))


def _rhs_weights(rhs, weights: WeightSpec):
    """The RHS weights: f (one per sparse term) or F (dense, entrywise)."""
    if isinstance(rhs, SparseRhs):
        if weights.natural:
            return np.array([abs(omega) for _, omega in rhs.terms])
        if weights.f is None:
            raise ValueError("explicit weights missing for sparse RHS")
        if np.size(weights.f) != rhs.num_terms:
            raise ValueError("RHS weight vector length mismatch")
        return np.asarray(weights.f, dtype=float)
    B = np.asarray(rhs, dtype=float)
    F = np.abs(B) if weights.natural else weights.F
    if F is None or np.shape(F) != B.shape:
        raise ValueError("dense RHS weight matrix missing or mismatched")
    return np.asarray(F, dtype=float)


def _rhs_term(s: _System, rhs, f) -> np.ndarray:
    """The RHS contribution: Σ_k |A⁻¹ S_k| f_k, or |A⁻¹| F for dense B.

    When every pattern has exactly one nonzero the sparse sum is |A⁻¹| F
    with F = Σ_k f_k S_k, one product instead of one per term.
    """
    if not isinstance(rhs, SparseRhs):
        return s.absAinv @ np.asarray(f, dtype=float)
    if all(np.count_nonzero(S) == 1 for S, _ in rhs.terms):
        F = np.zeros(rhs.n * rhs.m)
        np.add.at(F, np.array([S.argmax() for S, _ in rhs.terms], dtype=np.intp), f)
        return s.absAinv @ F.reshape(rhs.n, rhs.m)
    terms = (np.abs(s.Ainv @ S) * fk for (S, _), fk in zip(rhs.terms, f))
    return sum(terms, np.zeros((s.A.shape[0], rhs.m)))


def _entry_term(s: _System, E=None) -> np.ndarray:
    """|A⁻¹| E |X|, entrywise perturbations of A (E defaults to |A|)."""
    E = np.abs(s.A) if E is None else np.asarray(E, dtype=float)
    return s.absAinv @ (E @ s.absX)


def _generator_terms(s: _System, Dd, Dp, Dq, Dg, Dh) -> np.ndarray:
    """|A⁻¹|(D_d|X| + D_p|A_L X| + D_g|A_U X|) + |A⁻¹A_L| D_q|X| + |A⁻¹A_U| D_h|X|;
    the GV form has no p and h families and passes None for them.
    """
    ALX, AUX, AinvAL, AinvAU = s.parts()
    inner = Dd[:, None] * s.absX + Dg[:, None] * AUX
    if Dp is not None:
        inner += Dp[:, None] * ALX
    total = s.absAinv @ inner + AinvAL @ (Dq[:, None] * s.absX)
    if Dh is not None:
        total += AinvAU @ (Dh[:, None] * s.absX)
    return total


def _k_qs(s: _System, rhs_term: np.ndarray, weights: WeightSpec) -> float:
    """k_qs over the generators the system was built from."""
    qs = s.qs
    D = [_row_weights(weights, getattr(qs, f), f) for f in "dpqgh"]
    ra, rb = (_ratios(weights, getattr(qs, f), f) for f in "ab")
    Yl, Zl, Yu, Zu = s.transfer()
    total = rhs_term + _generator_terms(s, *D)
    total += _rank_one_sum(Yl, np.abs(qs.a) * ra, Zl)
    total += _rank_one_sum(Yu, np.abs(qs.b) * rb, Zu)
    return s.k(total)


def _k_gv(s: _System, gv: GvTangentParams, rhs_term: np.ndarray, weights: WeightSpec) -> float:
    """k_gv over ``gv``, whose QS embedding the system was built from.

    The l_i term is the a_i block with its head row scaled by -s_i² and the
    rows below by c_i²: its column is c_i² a_i Lcol_i - s_i² p_i e_i (the
    head row) over the row profile Lrow_i.  The u_i term modifies Urow_i
    with r_i and t_i the same way.
    """
    n = gv.n
    Dd, Dv, Dw = (_row_weights(weights, getattr(gv, f), f) for f in "dvw")
    rl, ru = (_ratios(weights, getattr(gv, f), f) for f in "lu")
    trig = gv_tangent_to_trig(gv)
    c, sn, r, t = trig.c, trig.s, trig.r, trig.t
    Yl, Zl, Yu, Zu = s.transfer()
    total = rhs_term + _generator_terms(s, Dd, None, Dv, Dw, None)
    total += _rank_one_sum(Yl * (c * c * sn) - s.Ainv[:, 1 : n - 1] * (sn * sn * c), rl, Zl)
    total += _rank_one_sum(Yu, ru, Zu * (r * r * t)[:, None] - s.X[1 : n - 1] * (t * t * r)[:, None])
    return s.k(total)


def _k_eff(s: _System, rhs_term: np.ndarray) -> float:
    ones = np.ones(s.A.shape[0])
    return s.k(rhs_term + _generator_terms(s, np.abs(np.diag(s.A)), ones, ones, ones, ones))


def cond_unstructured(A, B, X, E=None, F=None) -> float:
    """Entrywise condition number for perturbations of every entry of A, B.

    Returns ``max(|A⁻¹| E |X| + |A⁻¹| F) / max|X|``; ``E`` defaults to
    |A| and ``F`` to |B| (the natural entrywise weights).
    """
    s = _System(A, X)
    F = np.abs(np.asarray(B, dtype=float)) if F is None else F
    return s.k(_entry_term(s, E) + _rhs_term(s, B, F))


def _param_terms(s: _System, dA_terms: Sequence[np.ndarray], e: Sequence[float]) -> np.ndarray:
    if len(e) != len(dA_terms):
        raise ValueError("weight vector length does not match derivative provider count")
    return sum((np.abs(s.Ainv @ dA @ s.X) * ek for dA, ek in zip(dA_terms, e)), np.zeros_like(s.X))


def cond_param_general(
    A,
    X,
    dA_terms: Sequence[np.ndarray],
    dB_terms: Sequence[np.ndarray],
    e: Sequence[float],
    f: Sequence[float],
    n_shared: int = 0,
) -> float:
    """Condition number for a general shared parameterization of (A, B).

    The first ``n_shared`` parameters perturb both A and B; ``dA_terms``
    lists all N derivatives of A (shared first), ``dB_terms`` all M
    derivatives of B (shared first).  ``e`` has length N and weights the
    A-side parameters, ``f`` has length M and weights the B-only tail
    (its first ``n_shared`` entries are ignored).
    """
    s = _System(A, X)
    Ainv, X = s.Ainv, s.X
    if len(e) != len(dA_terms) or len(f) != len(dB_terms):
        raise ValueError("weight vector length does not match derivative provider count")
    if n_shared > min(len(dA_terms), len(dB_terms)):
        raise ValueError("shared prefix exceeds derivative provider count")
    total = _param_terms(s, dA_terms[n_shared:], e[n_shared:])
    for k in range(n_shared):
        total += np.abs(Ainv @ dA_terms[k] @ X - Ainv @ dB_terms[k]) * e[k]
    for k in range(n_shared, len(dB_terms)):
        total += np.abs(Ainv @ dB_terms[k]) * f[k]
    return s.k(total)


def cond_param_denseB(A, X, dA_terms: Sequence[np.ndarray], e: Sequence[float], F) -> float:
    """Parameterized A with a dense, independently perturbed B."""
    s = _System(A, X)
    return s.k(s.absAinv @ np.asarray(F, dtype=float) + _param_terms(s, dA_terms, e))


def cond_param_sparseB(A, X, dA_terms: Sequence[np.ndarray], e: Sequence[float], rhs: SparseRhs, f: Sequence[float]) -> float:
    """Parameterized A with a sparse B = Σ ω_k S_k, so ∂B/∂ω_k = S_k."""
    s = _System(A, X)
    total = _param_terms(s, dA_terms, e)
    if len(f) != rhs.num_terms:
        raise ValueError("RHS weight vector length mismatch")
    return s.k(total + _rhs_term(s, rhs, f))


def cond_unstructuredA_sparseB(A, X, rhs: SparseRhs, E=None, f=None) -> float:
    """Entrywise perturbations of A combined with a sparse RHS pattern.

    Natural weights (the defaults) use E = |A| and f_k = |ω_k|.
    """
    s = _System(A, X)
    f = _rhs_weights(rhs, WeightSpec()) if f is None else f
    if len(f) != rhs.num_terms:
        raise ValueError("RHS weight vector length mismatch")
    return s.k(_entry_term(s, E) + _rhs_term(s, rhs, f))


def cond_qs(params: QsParams, rhs, X, weights: WeightSpec | None = None) -> float:
    """Structured condition number over the generator representation.

    Sums the RHS contribution, the diagonal, the four generator-vector
    terms through the weight diagonals D_p, D_q, D_g, D_h, and one rank-one
    term per transfer coefficient a_i, b_i scaled by the weight/parameter
    ratio.  With natural weights the diagonals collapse to the identity
    (D_d to |A_D|) and every ratio is 1.
    """
    weights = weights or WeightSpec()
    s = _System(qs_materialize(params), X, qs=params)
    return _k_qs(s, _rhs_term(s, rhs, _rhs_weights(rhs, weights)), weights)


def cond_gv(params: GvTangentParams, rhs, X, weights: WeightSpec | None = None) -> float:
    """Structured condition number over the tangent GV representation."""
    weights = weights or WeightSpec()
    qs = gv_to_qs(params)
    s = _System(qs_materialize(qs), X, qs=qs)
    return _k_gv(s, params, _rhs_term(s, rhs, _rhs_weights(rhs, weights)), weights)


def cond_eff(params: QsParams, rhs, X) -> float:
    """Effective condition number: structure-aware but parameter-free.

    Uses only the materialized matrix and the RHS pattern; a dense RHS
    counts as one pattern per entry, whose contribution is |A⁻¹||B|.
    """
    s = _System(qs_materialize(params), X)
    return _k_eff(s, _rhs_term(s, rhs, _rhs_weights(rhs, WeightSpec())))


def cond_report(source, rhs, X=None, seed=None, rho=None, weights: WeightSpec | None = None) -> CondReport:
    """Compute every applicable condition number from one prepared system.

    ``source`` may be QS parameters, GV parameters, or a dense matrix
    recognizable as {1;1}-quasiseparable.  If X is omitted it is solved
    from the materialized system.  ``weights`` (natural by default) applies
    to ``k_qs``, ``k_gv`` and the RHS of the unstructured values; ``k_eff``
    is parameter-free.
    """
    weights = weights or WeightSpec()
    gv = source if isinstance(source, GvTangentParams) else None
    if gv is not None:
        qs = gv_to_qs(gv)
    elif isinstance(source, QsParams):
        qs = source
    else:
        qs = qs_from_dense(np.asarray(source, dtype=float))
    sparse = isinstance(rhs, SparseRhs)
    B = rhs.materialize() if sparse else np.asarray(rhs, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    rhs = rhs if sparse else B
    if X is not None and np.ndim(X) == 1:
        X = np.asarray(X, dtype=float)[:, None]

    s = _System(qs_materialize(qs), X, B, qs=qs)
    rhs_term = _rhs_term(s, rhs, _rhs_weights(rhs, weights))
    k_qs = _k_qs(s, rhs_term, weights)
    k_gv = _k_gv(s, gv, rhs_term, weights) if gv is not None else None
    k_eff = _k_eff(s, rhs_term if weights.natural else _rhs_term(s, rhs, _rhs_weights(rhs, WeightSpec())))
    entry = _entry_term(s)
    F = np.abs(B) if weights.F is None else weights.F
    return CondReport(
        n=qs.n,
        m=B.shape[1],
        rhs_mode="sparse" if sparse else "dense",
        k_unstructured=s.k(entry + _rhs_term(s, B, F)),
        k_unstructured_sparse=s.k(entry + rhs_term) if sparse else None,
        k_qs=k_qs,
        k_eff=k_eff,
        k_gv=k_gv,
        seed=seed,
        rho=rho,
    )
