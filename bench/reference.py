"""Independent evaluator of the condition numbers, built from the generators.

The benchmark checks qscond's outputs against this module, which never calls
``qscond.condnum``.  It evaluates the defining sums of the paper directly,

    k = max( Σ_k |A⁻¹ (ω_k ∂A/∂ω_k) X| + RHS term ) / max|X|,

with natural weights.  Every transfer (a, b) and rotation (l, u) term is rank
one, A⁻¹ (y zᵀ) X = (A⁻¹ y)(zᵀ X), so each family sums as one product and the
whole evaluation stays O(n³).  Row, column and diagonal families collapse to
|A⁻¹| |A_L X|, |A⁻¹ A_L| |X| and the like.

The same code runs in float64 (numpy float arrays) and in high precision
(numpy object arrays of mpmath numbers), so the ill-scaled reference is the
float evaluator run at more digits.

Run as a script to regenerate the stored high-precision reference for the
ill-scaled instances of the ``cond-files-small`` workload:

    python3 bench/reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "illscaled_reference.json"

# Ill-scaled instances that every cond-files-small round runs, as
# (n, seed) for gen_illscaled_qs(n, seed) with gen_sparse_rhs(n, 3, 0.3, seed).
# They do not depend on the workload seed; see README.md for what each shows.
ILLSCALED_INSTANCES = [(20, 5), (20, 6), (30, 1000), (40, 1019)]
ILLSCALED_M = 3
ILLSCALED_RHO = 0.3
# Digits beyond the log10 dynamic range of |A|; the regeneration recomputes
# with DPS_CHECK more digits and requires agreement to 1e-15.
DPS_MARGIN = 40
DPS_CHECK = 20

class Float64:
    """Arithmetic in numpy float64."""

    def lift(self, x):
        return float(x)

    def zeros(self, shape):
        return np.zeros(shape)

    def sqrt(self, x):
        return math.sqrt(x)

    def eye(self, n):
        return np.eye(n)


class MpBackend:
    """Arithmetic in mpmath numbers held in numpy object arrays.

    Use inside ``workdps(...)``; every value is lifted exactly from its
    float64 input.  mpmath is imported here, not at module level, so that
    the benchmark process does not load it.
    """

    def __init__(self):
        import mpmath

        self.mp = mpmath
        self.workdps = mpmath.workdps

    def lift(self, x):
        return self.mp.mpf(float(x))

    def zeros(self, shape):
        return np.full(shape, self.mp.mpf(0), dtype=object)

    def sqrt(self, x):
        return self.mp.sqrt(x)

    def eye(self, n):
        out = self.zeros((n, n))
        for i in range(n):
            out[i, i] = self.mp.mpf(1)
        return out


def gv_to_qs_generators(be, l, v, d, w, u):
    """QS generators of the GV embedding, plus the rotation cosines/sines.

    p_i = c_i (i < n), p_n = 1, a = s, q = v, g = w, b = t, h_i = r_i
    (i < n), h_n = 1, with c = 1/sqrt(1+l²), s = l c and likewise r, t.
    """
    c = [1 / be.sqrt(1 + x * x) for x in l]
    s = [x * ci for x, ci in zip(l, c)]
    r = [1 / be.sqrt(1 + x * x) for x in u]
    t = [x * ri for x, ri in zip(u, r)]
    one = be.lift(1.0)
    qs = dict(p=c + [one], a=s, q=list(v), d=list(d), g=list(w), b=t, h=r + [one])
    return qs, (c, s, r, t)


def _profiles(be, qs):
    """Rank-one factors of the lower and upper parts, one-based index keys.

    Lower entry (r, c), r > c, is p_r a_{r-1}...a_{c+1} q_c.  U[i][r] is
    p_r a_{r-1}...a_{i+1} (rows r > i); W[i][c] is a_{i-1}...a_{c+1} q_c
    (columns c < i).  So row i of the lower part is p_i W[i], and the
    weighted a_i term is a_i U[i] W[i]ᵀ.  Ub, Wb are the upper analogues:
    column j of the upper part is Ub[j] h_j, row i is g_i Wb[i], and the b_i
    term is b_i Ub[i] Wb[i]ᵀ.
    """
    n = len(qs["d"])
    P = lambda i: qs["p"][i - 2]  # noqa: E731  (one-based accessors)
    Aa = lambda i: qs["a"][i - 2]  # noqa: E731
    Q = lambda j: qs["q"][j - 1]  # noqa: E731
    G = lambda i: qs["g"][i - 1]  # noqa: E731
    Bb = lambda i: qs["b"][i - 2]  # noqa: E731
    H = lambda j: qs["h"][j - 2]  # noqa: E731

    U, W, Ub, Wb = {}, {}, {}, {}
    U[n - 1] = be.zeros(n)
    U[n - 1][n - 1] = P(n)
    for i in range(n - 2, 0, -1):
        U[i] = U[i + 1] * Aa(i + 1)
        U[i][i] = P(i + 1)
    W[2] = be.zeros(n)
    W[2][0] = Q(1)
    for i in range(3, n + 1):
        W[i] = W[i - 1] * Aa(i - 1)
        W[i][i - 2] = Q(i - 1)
    Ub[2] = be.zeros(n)
    Ub[2][0] = G(1)
    for i in range(3, n + 1):
        Ub[i] = Ub[i - 1] * Bb(i - 1)
        Ub[i][i - 2] = G(i - 1)
    Wb[n - 1] = be.zeros(n)
    Wb[n - 1][n - 1] = H(n)
    for i in range(n - 2, 0, -1):
        Wb[i] = Wb[i + 1] * Bb(i + 1)
        Wb[i][i] = H(i + 1)
    return U, W, Ub, Wb


def materialize(be, qs, profiles=None):
    """(A, A_L, A_U): the matrix and its strictly lower and upper parts."""
    n = len(qs["d"])
    _, W, _, Wb = profiles or _profiles(be, qs)
    A = be.zeros((n, n))
    AL = be.zeros((n, n))
    AU = be.zeros((n, n))
    for i in range(1, n + 1):
        A[i - 1, i - 1] = qs["d"][i - 1]
        if i >= 2:
            AL[i - 1] = qs["p"][i - 2] * W[i]
        if i <= n - 1:
            AU[i - 1] = qs["g"][i - 1] * Wb[i]
    return A + AL + AU, AL, AU


def _solve(A, RHS):
    """A⁻¹ RHS by Gaussian elimination with partial pivoting (any dtype)."""
    n = A.shape[0]
    M = np.concatenate([A, RHS], axis=1)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(M[k:, k])))
        if M[piv, k] == 0:
            raise ZeroDivisionError("singular matrix in reference solve")
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
        M[k + 1 :] -= np.outer(M[k + 1 :, k] / M[k, k], M[k])
    Y = M[:, n:]
    for k in range(n - 1, -1, -1):
        Y[k] = (Y[k] - M[k, k + 1 : n] @ Y[k + 1 :]) / M[k, k]
    return Y


def _max(M):
    return max(abs(x) for x in M.ravel())


def condition_numbers(be, qs, rhs_terms=None, B=None, gv=None):
    """Natural-weight condition numbers of A X = B for QS generators ``qs``.

    ``qs`` maps "p".."h" to lists of lifted numbers (zero-based, as in
    qscond.qsrep).  The RHS is either ``rhs_terms`` = (n, m, [(i, j, ω)])
    with zero-based single-entry patterns, or a dense ``B``.  With ``gv`` =
    (c, s, r, t) from :func:`gv_to_qs_generators`, k_gv is added.  Returns a
    dict of plain floats; k_unstructured_sparse only for a sparse RHS.
    """
    n = len(qs["d"])
    U, W, Ub, Wb = profiles = _profiles(be, qs)
    A, AL, AU = materialize(be, qs, profiles)

    if rhs_terms is not None:
        _, m, terms = rhs_terms
        B = be.zeros((n, m))
        for i, j, omega in terms:
            B[i, j] = B[i, j] + omega
    m = B.shape[1]
    sol = _solve(A, np.concatenate([be.eye(n), B], axis=1))
    Ainv, X = sol[:, :n], sol[:, n:]
    absAinv, absX = np.abs(Ainv), np.abs(X)
    normX = _max(X)
    if normX == 0:
        raise ZeroDivisionError("zero solution")

    # RHS term: Σ_k |A⁻¹ S_k| |ω_k| for single-entry patterns, |A⁻¹| |B| dense.
    if rhs_terms is not None:
        R = be.zeros((n, m))
        for i, j, omega in rhs_terms[2]:
            R[:, j] = R[:, j] + absAinv[:, i] * abs(omega)
    else:
        R = absAinv @ np.abs(B)

    absd = np.array([abs(x) for x in qs["d"]], dtype=A.dtype)
    diag = absAinv @ (absd[:, None] * absX)
    AinvAL = Ainv @ AL
    AinvAU = Ainv @ AU
    row_l = absAinv @ np.abs(AL @ X)  # p terms
    col_l = np.abs(AinvAL) @ absX  # q terms (v for GV)
    row_u = absAinv @ np.abs(AU @ X)  # g terms (w for GV)
    col_u = np.abs(AinvAU) @ absX  # h terms
    eff = R + diag + row_l + col_l + row_u + col_u

    out = {}
    if n >= 3:
        idx = range(2, n)
        Ya = Ainv @ np.stack([U[i] for i in idx], axis=1)
        Za = np.stack([W[i] for i in idx]) @ X
        Yb = Ainv @ np.stack([Ub[i] for i in idx], axis=1)
        Zb = np.stack([Wb[i] for i in idx]) @ X
        absa = np.array([abs(x) for x in qs["a"]], dtype=A.dtype)
        absb = np.array([abs(x) for x in qs["b"]], dtype=A.dtype)
        transfer = np.abs(Ya) @ (absa[:, None] * np.abs(Za)) + np.abs(Yb) @ (absb[:, None] * np.abs(Zb))
    else:
        transfer = be.zeros((n, m))
    out["k_qs"] = _max(eff + transfer) / normX
    out["k_eff"] = _max(eff) / normX

    AX = np.abs(A) @ absX
    out["k_unstructured"] = _max(absAinv @ AX + absAinv @ np.abs(B)) / normX
    if rhs_terms is not None:
        out["k_unstructured_sparse"] = _max(absAinv @ AX + R) / normX

    if gv is not None:
        c, s, r, t = gv
        # l_i: rows i..n, columns < i form U[i-1] W[i]ᵀ; row i carries
        # -s_i² and the rows below c_i².  u_i: rows < i, columns i..n form
        # Ub[i] Wb[i-1]ᵀ; column i carries -t_i², the columns right r_i².
        Yl, Zl, Yu, Zu = [], [], [], []
        for i in range(2, n):
            y = U[i - 1] * (c[i - 2] * c[i - 2])
            y[i - 1] = -(s[i - 2] * s[i - 2]) * U[i - 1][i - 1]
            Yl.append(y)
            Zl.append(W[i])
            z = Wb[i - 1] * (r[i - 2] * r[i - 2])
            z[i - 1] = -(t[i - 2] * t[i - 2]) * Wb[i - 1][i - 1]
            Yu.append(Ub[i])
            Zu.append(z)
        rot = np.abs(Ainv @ np.stack(Yl, axis=1)) @ np.abs(np.stack(Zl) @ X)
        rot = rot + np.abs(Ainv @ np.stack(Yu, axis=1)) @ np.abs(np.stack(Zu) @ X)
        out["k_gv"] = _max(R + diag + col_l + row_u + rot) / normX
    return {k: float(v) for k, v in out.items()}


def float_reference(params, rhs_terms=None, B=None):
    """float64 values for a GV (keys l..u) or QS (keys p..h) parameter dict.

    Returns the values and κ∞(A) = ‖A‖∞ ‖A⁻¹‖∞, which sets how far any
    float64 evaluation of them may lie from the exact ones.
    """
    be = Float64()
    lifted = {k: [float(x) for x in np.asarray(v, dtype=float)] for k, v in params.items() if k != "n"}
    gv = None
    if "l" in lifted:
        qs, gv = gv_to_qs_generators(be, *(lifted[f] for f in "lvdwu"))
    else:
        qs = lifted
    values = condition_numbers(be, qs, rhs_terms=rhs_terms, B=None if B is None else np.asarray(B, dtype=float), gv=gv)
    A, _, _ = materialize(be, qs)
    return values, float(np.linalg.cond(A, np.inf))


def log10_range(qs_params) -> float:
    """log10 of max|A_ij| / min nonzero |A_ij|, from an exact materialization."""
    be = MpBackend()
    with be.workdps(30):
        A, _, _ = materialize(be, {k: [be.lift(x) for x in qs_params[k]] for k in "paqdgbh"})
        nonzero = [abs(x) for x in A.ravel() if x != 0]
        return float(be.mp.log10(max(nonzero) / min(nonzero)))


def mp_reference(qs_params, rhs_terms, dps):
    be = MpBackend()
    with be.workdps(dps):
        lifted = {k: [be.lift(x) for x in qs_params[k]] for k in "paqdgbh"}
        terms = [(i, j, be.lift(w)) for i, j, w in rhs_terms[2]]
        return condition_numbers(be, lifted, rhs_terms=(rhs_terms[0], rhs_terms[1], terms))


def regenerate(path: Path = REFERENCE_FILE) -> None:
    """Recompute the ill-scaled instances and their high-precision values."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qscond.experiments import gen_illscaled_qs, gen_sparse_rhs

    entries = []
    for n, seed in ILLSCALED_INSTANCES:
        qs = gen_illscaled_qs(n, seed)
        rhs = gen_sparse_rhs(n, ILLSCALED_M, ILLSCALED_RHO, seed)
        params = {"n": n, **{f: getattr(qs, f).tolist() for f in "paqdgbh"}}
        terms = []
        for S, omega in rhs.terms:
            (i,), (j,) = np.nonzero(S)
            terms.append((int(i), int(j), float(omega)))
        rhs_terms = (n, ILLSCALED_M, terms)
        rng = log10_range(params)
        dps = int(math.ceil(rng)) + DPS_MARGIN
        values = mp_reference(params, rhs_terms, dps)
        check = mp_reference(params, rhs_terms, dps + DPS_CHECK)
        for k, v in values.items():
            if abs(v - check[k]) > 1e-15 * abs(check[k]):
                raise RuntimeError(f"n={n} seed={seed}: {k} not converged at {dps} digits")
        entries.append(
            {
                "n": n,
                "seed": seed,
                "log10_range": rng,
                "dps": dps,
                "params": params,
                "rhs": {"n": n, "m": ILLSCALED_M, "terms": [{"i": i + 1, "j": j + 1, "omega": w} for i, j, w in terms]},
                "reference": {k: repr(v) for k, v in values.items()},
            }
        )
        print(f"n={n} seed={seed} range=1e{rng:.1f} dps={dps} " + " ".join(f"{k}={v:.10g}" for k, v in values.items()))
    path.write_text(json.dumps({"m": ILLSCALED_M, "rho": ILLSCALED_RHO, "instances": entries}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
