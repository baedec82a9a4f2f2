"""Quasiseparable matrix representations.

Two parametrizations of {1;1}-quasiseparable matrices are supported: the
general quasiseparable ("QS") generator representation and the
tangent-based Givens-vector ("GV") representation.  Parameter vectors are
stored zero-based; the docstrings note the one-based index ranges used in
the accompanying JSON schema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_vectors(params, fields: str) -> None:
    """Stores each field as a float vector; a scalar is one of length 1."""
    for f in fields:
        v = np.atleast_1d(np.asarray(getattr(params, f), dtype=float))
        if v.ndim != 1:
            raise ValueError(f"parameter vector {f!r} must be one-dimensional, got shape {v.shape}")
        setattr(params, f, v)


@dataclass
class QsParams:
    """Generator representation of an n-by-n {1;1}-quasiseparable matrix.

    Index conventions (one-based, as in the JSON schema):
      p: i = 2..n      lower generators, length n-1
      a: i = 2..n-1    lower transfer coefficients, length n-2
      q: j = 1..n-1    lower generators, length n-1
      d: i = 1..n      diagonal, length n
      g: i = 1..n-1    upper generators, length n-1
      b: i = 2..n-1    upper transfer coefficients, length n-2
      h: j = 2..n      upper generators, length n-1

    Entry (i, j) with i > j is p_i * a_{i-1} * ... * a_{j+1} * q_j, the
    diagonal is d_i, and entry (i, j) with i < j is
    g_i * b_{i+1} * ... * b_{j-1} * h_j.
    """

    p: np.ndarray
    a: np.ndarray
    q: np.ndarray
    d: np.ndarray
    g: np.ndarray
    b: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        _as_vectors(self, "paqdgbh")
        n = self.d.size
        if n < 2:
            raise ValueError("order must be at least 2")
        expected = {
            "p": n - 1,
            "a": n - 2,
            "q": n - 1,
            "g": n - 1,
            "b": n - 2,
            "h": n - 1,
        }
        for name, size in expected.items():
            got = getattr(self, name).size
            if got != size:
                raise ValueError(
                    f"parameter vector {name!r} has length {got}, expected {size} for n={n}"
                )

    @property
    def n(self) -> int:
        return self.d.size

    def copy(self) -> "QsParams":
        return QsParams(*(getattr(self, f).copy() for f in "paqdgbh"))

    def flat(self) -> np.ndarray:
        """All 7n-8 parameters as one vector, in p, a, q, d, g, b, h order."""
        return np.concatenate([getattr(self, f) for f in "paqdgbh"])


@dataclass
class GvTangentParams:
    """Tangent-based Givens-vector representation, 5n-6 parameters.

    One-based index ranges:
      l: i = 2..n-1   lower rotation tangents, length n-2
      v: j = 1..n-1   lower vector, length n-1
      d: i = 1..n     diagonal, length n
      w: j = 1..n-1   upper vector, length n-1
      u: i = 2..n-1   upper rotation tangents, length n-2
    """

    l: np.ndarray
    v: np.ndarray
    d: np.ndarray
    w: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        _as_vectors(self, "lvdwu")
        n = self.d.size
        if n < 3:
            raise ValueError("GV representation requires order at least 3")
        for name, size in (("l", n - 2), ("v", n - 1), ("w", n - 1), ("u", n - 2)):
            got = getattr(self, name).size
            if got != size:
                raise ValueError(
                    f"parameter vector {name!r} has length {got}, expected {size} for n={n}"
                )

    @property
    def n(self) -> int:
        return self.d.size

    def copy(self) -> "GvTangentParams":
        return GvTangentParams(*(getattr(self, f).copy() for f in "lvdwu"))

    def flat(self) -> np.ndarray:
        """All 5n-6 parameters as one vector, in l, v, d, w, u order."""
        return np.concatenate([getattr(self, f) for f in "lvdwu"])


def gv_tangent_to_trig(gv: GvTangentParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cosine/sine pairs (c, s, r, t) of the lower and upper rotations.

    c = 1/sqrt(1+l^2), s = l*c and r = 1/sqrt(1+u^2), t = u*r, each over
    the one-based index range 2..n-1.
    """
    c = 1.0 / np.sqrt(1.0 + gv.l**2)
    r = 1.0 / np.sqrt(1.0 + gv.u**2)
    return c, gv.l * c, r, gv.u * r


def _fill_generators(d, p, a, q, g, b, h) -> np.ndarray:
    """Dense matrix from generator vectors, one sweep per sub/superdiagonal.

    Entry (i, i-k) is ((p_i a_{i-1}) ... a_{i-k+1}) q_{i-k} and entry
    (i, i+k) is g_i (((h_{i+k} b_{i+k-1}) ... b_{i+1}): the running products
    are carried as vectors and multiplied in the order of a walk along the
    row (lower) or column (upper), one factor per step.  Leading axes of the
    vectors are batch axes: the result holds one matrix per batch entry.
    """
    n = d.shape[-1]
    A = np.zeros(d.shape[:-1] + (n, n))
    flat = A.reshape(d.shape[:-1] + (n * n,))
    flat[..., :: n + 1] = d
    lower, upper = p, h
    for k in range(1, n):
        flat[..., k * n :: n + 1] = lower * q[..., : n - k]
        flat[..., k : (n - k) * n : n + 1] = g[..., : n - k] * upper
        lower = lower[..., 1:] * a[..., : n - k - 1]
        upper = upper[..., 1:] * b[..., : n - k - 1]
    return A


def qs_materialize(qs: QsParams) -> np.ndarray:
    """Assemble the dense n-by-n matrix from its generator representation."""
    return _fill_generators(qs.d, qs.p, qs.a, qs.q, qs.g, qs.b, qs.h)


def gv_to_qs(gv: GvTangentParams) -> QsParams:
    """Embed a GV representation into the generator representation.

    The lower generators become p_i = c_i for i = 2..n-1, p_n = 1,
    a_i = s_i, q_j = v_j; the upper part maps symmetrically with
    h_i = r_i for i = 2..n-1, h_n = 1, b_i = t_i, g_j = w_j.
    """
    c, s, r, t = gv_tangent_to_trig(gv)
    return QsParams(
        p=np.append(c, 1.0),
        a=s,
        q=gv.v.copy(),
        d=gv.d.copy(),
        g=gv.w.copy(),
        b=t,
        h=np.append(r, 1.0),
    )


def gv_materialize(gv: GvTangentParams) -> np.ndarray:
    """Assemble the dense matrix of a GV representation through its embedding.

    Row i of the lower part carries the head factor c_i (none for the last
    row), then one sine per step to the left; the upper part likewise with
    r and t.
    """
    return qs_materialize(gv_to_qs(gv))


def _running_sums(qs: QsParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums z, y over the rows of X (n rows or entries), zero-based:
    z[r] = a[r-2] z[r-1] + q[r-1] X[r-1] up from z[1] = q[0] X[0], y[r] =
    b[r] y[r+1] + h[r] X[r+1] down from y[n-2] = h[n-2] X[n-1], z[0] =
    y[n-1] = 0.  Row r of A X is d[r] X[r] + p[r-1] z[r] + g[r] y[r].
    """
    a, b = qs.a.tolist(), qs.b.tolist()
    qX, hX = (qs.q * X[:-1].T).T, (qs.h * X[1:].T).T  # row r times q[r], h[r]
    zero = np.zeros_like(X[0])
    z, y = [zero, qX[0]], [zero, hX[-1]]  # y from its last row up
    for ar, qr in zip(a, qX[1:]):
        z.append(ar * z[-1] + qr)
    for br, hr in zip(b[::-1], hX[-2::-1]):
        y.append(br * y[-1] + hr)
    return np.array(z), np.array(y[::-1])


def qs_matvec(qs: QsParams, x: np.ndarray) -> np.ndarray:
    """Multiply the represented matrix by a vector in O(n) time, by the
    ascending and descending sweeps of :func:`_running_sums`."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != qs.n:
        raise ValueError(f"vector length {x.shape[0]} does not match order {qs.n}")
    z, y = _running_sums(qs, x)
    out = qs.d * x
    out[1:] += qs.p * z[1:]
    out[:-1] += qs.g * y[:-1]
    return out


def qs_from_dense(A: np.ndarray, tol: float = 1e-10) -> QsParams:
    """Recover a generator representation from a dense matrix.

    Uses the normalization p_i = 1, h_j = 1, so q_j = A(j+1, j),
    a_i = A(i+1, i-1) / A(i, i-1), g_i = A(i, i+1) and
    b_i = A(i-1, i+1) / A(i-1, i).  Requires the first sub- and
    superdiagonals to be nonzero; raises if a generator chain is broken or
    the reconstruction residual exceeds ``tol`` relative to the largest
    entry of ``A``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    if n < 2:
        raise ValueError("order must be at least 2")
    if not np.all(np.isfinite(A)):
        raise ValueError("the matrix has non-finite entries")
    sub = np.diag(A, -1)
    sup = np.diag(A, 1)
    if np.any(sub == 0.0) or np.any(sup == 0.0):
        raise ValueError("generator chain broken: zero on a first off-diagonal")
    d = np.diag(A).copy()
    p = np.ones(n - 1)
    q = sub.copy()
    a = A[np.arange(2, n), np.arange(n - 2)] / A[np.arange(1, n - 1), np.arange(n - 2)]
    h = np.ones(n - 1)
    g = sup.copy()
    b = A[np.arange(n - 2), np.arange(2, n)] / A[np.arange(n - 2), np.arange(1, n - 1)]
    qs = QsParams(p=p, a=a, q=q, d=d, g=g, b=b, h=h)
    scale = np.max(np.abs(A))
    resid = np.max(np.abs(qs_materialize(qs) - A))
    if not resid <= tol * max(scale, 1.0):
        raise ValueError(
            "matrix is not {1;1}-quasiseparable: "
            f"reconstruction residual {resid:.3e} exceeds tolerance"
        )
    return qs
