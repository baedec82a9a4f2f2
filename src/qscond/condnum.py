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
from scipy.linalg.lapack import dgbtrf, dgbtrs

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

    Each weight bounds the perturbation of its own parameter,
    |δω_k| <= ε w_k.  variant "natural" takes w_k = |ω_k| (and |B| for the
    RHS).  variant "explicit" supplies per-family weight vectors in ``e``
    (keys matching the parameter families, e.g. "p", "a", ... or "l",
    "v", ...), an entrywise matrix weight ``F`` for a dense RHS, or a
    per-term vector ``f`` for a sparse RHS; they are used as given, a
    nonzero weight on a zero parameter included.  Negative or non-finite
    weights are refused.
    """

    variant: str = "natural"
    e: dict[str, np.ndarray] = field(default_factory=dict)
    F: np.ndarray | None = None
    f: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("natural", "explicit"):
            raise ValueError(f"unknown weight variant {self.variant!r}")
        self.e = {fam: np.asarray(v, dtype=float) for fam, v in self.e.items()}
        self.F, self.f = (None if v is None else np.asarray(v, dtype=float) for v in (self.F, self.f))
        for v in (*self.e.values(), self.F, self.f):
            if v is not None and not np.all((v >= 0.0) & (v < np.inf)):
                raise ValueError("weights must be nonnegative and finite")

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

    Only the dense API uses it.  The matrix is first equilibrated by
    iterated two-sided diagonal scaling (Ruiz iteration on max-norms), the
    scaled copy is factored, and the scalings are undone on the inverse.
    Singularity is flagged structurally: a zero row or column, an exactly
    zero pivot, or nonfinite entries in the factorization or inverse, not
    by a pivot-magnitude threshold, which badly scaled input would trip.
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
    """A and X prepared once per call of the dense API: A, its equilibrated
    inverse and the given X.  Every number of one call reads from it.
    """

    def __init__(self, A, X):
        self.A = np.asarray(A, dtype=float)
        self.X = np.asarray(X, dtype=float)
        self.norm = _check_x(self.X)
        self.Ainv = matrix_inverse(self.A)
        self.absAinv, self.absX = np.abs(self.Ainv), np.abs(self.X)

    def k(self, total: np.ndarray) -> float:
        return _mx(total) / self.norm


# Where each QS generator family sits in the generator system E: the
# (row, column) of its first generator and the sign it enters with.  The
# k-th generator of a family sits 3k rows and columns further on.
_PLACE = {"d": (1, 1, 1.0), "p": (4, 3, 1.0), "g": (1, 2, 1.0), "q": (3, 1, -1.0),
          "a": (6, 3, -1.0), "h": (2, 4, -1.0), "b": (2, 5, -1.0)}
_BAND = 3  # sub- and superdiagonals of E


class _Embedded:
    """A X = B as one banded system E S = [B; 0; 0] over the generators of A.

    The unknowns of index r are z_r, x_r and y_r, at rows 3r, 3r+1 and
    3r+2, and the rows are the two sweeps of :func:`qs_matvec`:

        x-row  d x + p z + g y = B
        z-row  z - a z_prev - q x_prev = 0
        y-row  y - b y_next - h x_next = 0

    Eliminating z and y gives back A X = B, so det E = det A.  E has three
    sub- and superdiagonals and is factored once.  Every generator ω is one
    entry (R, C) = ±ω of E, so ω ∂X/∂ω = ∓ω G[:, R] S[C] with G the x rows
    of E⁻¹, and G[:, 1::3] = A⁻¹.

    Given X, z and y follow from the sweeps.  Otherwise S is solved with
    one step of refinement and refused when its componentwise backward
    error max|E S - R| / (|E||S| + |R|) exceeds 1e-8.
    """

    def __init__(self, qs: QsParams, X=None, B=None):
        n, self.qs = qs.n, qs
        self.entries = [(r, c, sign * getattr(qs, f)) for f, (r, c, sign) in _PLACE.items()]
        ab = np.zeros((3 * _BAND + 1, 3 * n))  # E[i, j] at ab[2 * _BAND + i - j, j]
        ab[2 * _BAND, 0::3] = ab[2 * _BAND, 2::3] = 1.0
        for r, c, v in self.entries:
            ab[2 * _BAND + r - c, c::3][: v.size] = v
        lu, piv, info = dgbtrf(ab, _BAND, _BAND)
        if info > 0:
            raise ValueError("singular coefficient matrix")
        unit = np.zeros((3 * n, n))
        unit[1::3] = np.eye(n)
        self.G = dgbtrs(lu, _BAND, _BAND, unit, piv, trans=1)[0].T
        if not np.all(np.isfinite(self.G)):
            raise ArithmeticError("the inverse of the generator system overflows")
        if X is None:  # one refinement step, then the backward-error gate
            R = np.zeros((3 * n, np.shape(B)[1]))
            R[1::3] = B
            S = dgbtrs(lu, _BAND, _BAND, R, piv)[0]
            S += dgbtrs(lu, _BAND, _BAND, R - self._times(S), piv)[0]
            scale = self._times(np.abs(S), absolute=True) + np.abs(R)
            with np.errstate(invalid="ignore", divide="ignore"):
                berr = np.max(np.abs(self._times(S) - R) / scale, initial=0.0, where=scale != 0.0)
            if not berr <= 1e-8:
                raise ArithmeticError(f"backward error {berr:.3e} of the generator solve exceeds 1e-8")
        else:  # z and y from X by the sweeps of qs_matvec
            X = np.asarray(X, dtype=float)
            S = np.zeros((3 * n, X.shape[1]))
            S[1::3] = X
            z, y = S[0::3], S[2::3]
            a, b = np.append(0.0, qs.a), np.append(qs.b, 0.0)
            for r in range(1, n):
                z[r] = a[r - 1] * z[r - 1] + qs.q[r - 1] * X[r - 1]
            for r in range(n - 2, -1, -1):
                y[r] = b[r] * y[r + 1] + qs.h[r] * X[r + 1]
            if not np.all(np.isfinite(S)):
                raise ArithmeticError("the generator sweeps overflow for the given X")
        self.S, self.absS = S, np.abs(S)
        self.X, self.absX = S[1::3], self.absS[1::3]
        self.norm = _check_x(self.X)
        self.absG = np.abs(self.G)
        self.Ainv, self.absAinv = self.G[:, 1::3], np.ascontiguousarray(self.absG[:, 1::3])

    def _times(self, S: np.ndarray, absolute: bool = False) -> np.ndarray:
        """E S, or |E| S with ``absolute``."""
        out = S.copy()
        out[1::3] = 0.0
        for r, c, v in self.entries:
            out[r::3][: v.size] += (np.abs(v) if absolute else v)[:, None] * S[c::3][: v.size]
        return out

    def place(self, w: dict[str, np.ndarray]) -> np.ndarray:
        """W|S|: row R_k holds w_k |S[C_k]| summed over the families in ``w``."""
        M = np.zeros_like(self.S)
        for f, wf in w.items():
            r, c, _ = _PLACE[f]
            M[r::3][: wf.size] += wf[:, None] * self.absS[c::3][: wf.size]
        return M

    def k(self, total: np.ndarray) -> float:
        return _mx(total) / self.norm


def _family_weights(weights: WeightSpec, params: np.ndarray, family: str) -> np.ndarray:
    """w_k of the terms |G[:, R_k]| w_k |S[C_k]|: |ω_k|, or the explicit e_k as given."""
    if weights.natural:
        return np.abs(params)
    e = weights.e.get(family)
    if e is None:
        raise ValueError(f"explicit weights missing for parameter family {family!r}")
    if e.shape != params.shape:
        raise ValueError(f"weight vector for {family!r} has wrong length")
    return e


def _rhs_weights(rhs, weights: WeightSpec):
    """The RHS weights: f (one per sparse term) or F (dense, entrywise)."""
    if isinstance(rhs, SparseRhs):
        if weights.natural:
            return np.array([abs(omega) for _, omega in rhs.terms])
        if weights.f is None:
            raise ValueError("explicit weights missing for sparse RHS")
        if np.size(weights.f) != rhs.num_terms:
            raise ValueError("RHS weight vector length mismatch")
        return weights.f
    B = np.asarray(rhs, dtype=float)
    F = np.abs(B) if weights.natural else weights.F
    if F is None or F.shape != B.shape:
        raise ValueError("dense RHS weight matrix missing or mismatched")
    return F


def _rhs_term(s, rhs, f) -> np.ndarray:
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
    return sum(terms, np.zeros((s.X.shape[0], rhs.m)))


def _entry_term(s, E=None) -> np.ndarray:
    """|A⁻¹| E |X|, entrywise perturbations of A (E defaults to |A|)."""
    E = np.abs(s.A) if E is None else np.asarray(E, dtype=float)
    return s.absAinv @ (E @ s.absX)


def _k_qs(s: _Embedded, rhs_term: np.ndarray, weights: WeightSpec, families=_PLACE) -> float:
    """k_qs over the generators the system was built from, or over ``families`` of them."""
    w = {f: _family_weights(weights, getattr(s.qs, f), f) for f in families}
    return s.k(s.absG @ s.place(w) + rhs_term)


def _k_gv(s: _Embedded, gv: GvTangentParams, rhs_term: np.ndarray, weights: WeightSpec) -> float:
    """k_gv over ``gv``, whose QS embedding the system was built from.

    v, d and w are the q, d and g entries.  l_i moves the p and a entries
    of one z column, c_i and -s_i, at the rates (-s_i c_i², c_i³); u_i
    moves the h and b entries of one y row, -r_i and -t_i, at the rates
    (-t_i r_i², r_i³).
    """
    k = gv.n - 2
    w = {f: _family_weights(weights, getattr(gv, f), f) for f in "lvdwu"}
    M = s.place({q: w[f] for f, q in zip("vdw", "qdg")})
    c, sn, r, t = gv_tangent_to_trig(gv)
    Su = (r * r * r)[:, None] * s.S[5::3][:k] - (t * r * r)[:, None] * s.S[4::3][:k]
    M[2::3][:k] += w["u"][:, None] * np.abs(Su)
    Gl = s.G[:, 4::3][:, :k] * (sn * c * c) + s.G[:, 6::3][:, :k] * (c * c * c)
    return s.k(s.absG @ M + np.abs(Gl) @ (w["l"][:, None] * s.absS[3::3][:k]) + rhs_term)


_EFF = "dpgqh"  # k_eff leaves out the transfer coefficients a and b


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
    return cond_param_general(A, X, dA_terms, [S for S, _ in rhs.terms], e, f)


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

    Sums the RHS contribution and one term |G[:, R]| w |S[C]| per
    generator of the banded generator system (see :class:`_Embedded`).
    The weight w is |ω| with natural weights, otherwise the explicit one.
    """
    weights = weights or WeightSpec()
    s = _Embedded(params, X)
    return _k_qs(s, _rhs_term(s, rhs, _rhs_weights(rhs, weights)), weights)


def cond_gv(params: GvTangentParams, rhs, X, weights: WeightSpec | None = None) -> float:
    """Structured condition number over the tangent GV representation."""
    weights = weights or WeightSpec()
    s = _Embedded(gv_to_qs(params), X)
    return _k_gv(s, params, _rhs_term(s, rhs, _rhs_weights(rhs, weights)), weights)


def cond_eff(params: QsParams, rhs, X) -> float:
    """Effective condition number: structure-aware but parameter-free.

    Sums the natural-weight terms of every generator except the transfer
    coefficients a and b, and the RHS pattern; a dense RHS counts as one
    pattern per entry, whose contribution is |A⁻¹||B|.
    """
    s = _Embedded(params, X)
    return _k_qs(s, _rhs_term(s, rhs, _rhs_weights(rhs, WeightSpec())), WeightSpec(), _EFF)


def cond_report(source, rhs, X=None, seed=None, rho=None, weights: WeightSpec | None = None) -> CondReport:
    """Compute every applicable condition number from one prepared system.

    ``source`` may be QS parameters, GV parameters, or a dense matrix
    recognizable as {1;1}-quasiseparable.  One banded generator system is
    factored for every number; if X is omitted it is solved from it.  The
    materialized A enters only the unstructured values, and a non-finite A
    is refused as an overflow.  ``weights`` (natural by default) applies
    to ``k_qs``, ``k_gv`` and the RHS of the unstructured values, where a
    given ``F`` must have the shape of B; ``k_eff`` is parameter-free.  For a GV source the parameter weights name the GV
    families, so ``k_qs`` of the embedded generators keeps natural
    generator weights; its RHS weights are still the explicit ones.
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
    if B.shape[0] != qs.n:
        raise ValueError(f"the right-hand side has {B.shape[0]} rows, the matrix has order {qs.n}")
    rhs = rhs if sparse else B
    if X is not None and np.ndim(X) == 1:
        X = np.asarray(X, dtype=float)[:, None]

    with np.errstate(over="ignore"):
        A = qs_materialize(qs)
    if not np.all(np.isfinite(A)):
        raise ArithmeticError("the coefficient matrix overflows: its materialized entries are not finite")
    s = _Embedded(qs, X, B)
    rhs_term = _rhs_term(s, rhs, _rhs_weights(rhs, weights))
    k_qs = _k_qs(s, rhs_term, WeightSpec() if gv is not None else weights)
    k_gv = _k_gv(s, gv, rhs_term, weights) if gv is not None else None
    eff_rhs_term = rhs_term if weights.natural else _rhs_term(s, rhs, _rhs_weights(rhs, WeightSpec()))
    k_eff = _k_qs(s, eff_rhs_term, WeightSpec(), _EFF)
    entry = _entry_term(s, np.abs(A))
    F = np.abs(B) if weights.F is None else _rhs_weights(B, weights)
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
