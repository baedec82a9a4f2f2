"""Derivatives of quasiseparable matrices with respect to their parameters.

Every entry of a QS matrix is a monomial in the generators that contains
each generator at most once (see ``qsrep._fill_generators``).  The matrix
is therefore affine in every single generator ω, and

    ∂A/∂ω = A(ω:=1) − A(ω:=0),        ω·∂A/∂ω = A − A(ω:=0).

Both identities hold exactly in floating point for a finite A: a factor 1
changes no product, and an entry off the parameter's support is computed
by the same multiplications in both materializations, so it cancels to 0.
The derivatives stay correct when parameters are zero, and the weighted
form of every generator, d included, is a row, column or block of A
itself, bit for bit.  All 7n−8 substitutions are materialized in one
batched sweep.

The GV terms follow by the chain rule through ``gv_to_qs``: l_i moves
(p_i, a_i) = (c_i, s_i), with dc/dl = −s c² and ds/dl = c³, and u_i moves
(h_i, b_i) = (r_i, t_i) in the same way; v, d and w are q, d and g.
Since l = s/c, the weighted l_i term is −s²·(p_i ∂A/∂p_i) + c²·(a_i ∂A/∂a_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsrep import GvTangentParams, QsParams, _fill_generators, gv_tangent_to_trig, gv_to_qs

# One-based index of the first parameter of each family, in term order.
_QS_FIRST = {"p": 2, "a": 2, "q": 1, "d": 1, "g": 1, "b": 2, "h": 2}
_GV_FIRST = {"l": 2, "v": 1, "d": 1, "w": 1, "u": 2}


@dataclass
class DerivativeTerm:
    """Derivative of the matrix with respect to one parameter.

    family: parameter family name ("p", "a", ..., "l", "u", ...).
    index:  one-based index of the parameter within its family, following
            the same convention as the JSON schema.
    value:  current value of the parameter.
    matrix: n-by-n derivative; the unweighted partial for the
            ``qs_derivatives``/``gv_derivatives`` constructors, the
            parameter-weighted form for the ``*_weighted_*`` constructors.
    """

    family: str
    index: int
    value: float
    matrix: np.ndarray


def _qs_core(qs: QsParams, weighted: bool) -> np.ndarray:
    """Derivative matrices of every QS generator, one (7n-8, n, n) stack in term order.

    Batch row k substitutes generator k once by ``hi`` and once by 0; the
    difference of the two materializations is term k.  ``hi`` is 1, or the
    generator itself in weighted form.
    """
    omega = qs.flat()
    K = omega.size
    hi = omega if weighted else np.ones(K)
    batch = np.tile(omega, (2, K, 1))
    k = np.arange(K)
    batch[0, k, k] = hi
    batch[1, k, k] = 0.0
    span = _spans(qs, _QS_FIRST)
    A = _fill_generators(*(batch[..., span[f]] for f in "dpaqgbh"))
    return A[0] - A[1]


def _gv_core(gv: GvTangentParams, weighted: bool) -> np.ndarray:
    """GV derivative stack by the chain rule through the embedded QS terms."""
    qs = gv_to_qs(gv)
    stack = _qs_core(qs, weighted)
    D = {f: stack[span] for f, span in _spans(qs, _QS_FIRST).items()}
    c, s, r, t = (x[:, None, None] for x in gv_tangent_to_trig(gv))
    m = gv.n - 2
    if weighted:
        (lp, la), (uh, ub) = (-(s**2), c**2), (-(t**2), r**2)
    else:
        (lp, la), (uh, ub) = (-s * c**2, c**3), (-t * r**2, r**3)
    return np.concatenate(
        [lp * D["p"][:m] + la * D["a"], D["q"], D["d"], D["g"], uh * D["h"][:m] + ub * D["b"]]
    )


def _spans(params, first: dict[str, int]) -> dict[str, slice]:
    """Each family's slice of the term order."""
    ends = np.cumsum([getattr(params, f).size for f in first]).tolist()
    return {f: slice(end - getattr(params, f).size, end) for f, end in zip(first, ends)}


def derivative_stack(
    params: QsParams | GvTangentParams, weighted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Every derivative matrix of ``params`` as one (K, n, n) stack, with each row's family.

    Rows follow the term order of ``params.flat()``: p, a, q, d, g, b, h
    for QS parameters, l, v, d, w, u for GV ones.  ``weighted`` gives the
    weighted terms ω·∂A/∂ω = A − A(ω:=0) instead of the partials ∂A/∂ω.
    """
    gv = isinstance(params, GvTangentParams)
    first = _GV_FIRST if gv else _QS_FIRST
    stack = (_gv_core if gv else _qs_core)(params, weighted)
    return stack, np.repeat(list(first), [getattr(params, f).size for f in first])


def _terms(params, weighted: bool) -> list[DerivativeTerm]:
    first = _GV_FIRST if isinstance(params, GvTangentParams) else _QS_FIRST
    stack = derivative_stack(params, weighted)[0]
    return [
        DerivativeTerm(f, first[f] + j, value, M)
        for f, span in _spans(params, first).items()
        for j, (value, M) in enumerate(zip(getattr(params, f), stack[span]))
    ]


def qs_derivatives(qs: QsParams) -> list[DerivativeTerm]:
    """All 7n-8 partial derivatives of the generator representation."""
    return _terms(qs, weighted=False)


def gv_derivatives(gv: GvTangentParams) -> list[DerivativeTerm]:
    """All 5n-6 partial derivatives of the tangent GV representation."""
    return _terms(gv, weighted=False)


def qs_weighted_derivatives(qs: QsParams) -> list[DerivativeTerm]:
    """Weighted derivative terms omega * dA/domega = A - A(omega:=0).

    Every term, d included, absorbs its parameter and equals a row, column
    or contiguous block of the materialized matrix; the d_i term is
    d_i e_i e_i^T.  The natural weight of every term is therefore 1.
    """
    return _terms(qs, weighted=True)


def gv_weighted_derivatives(gv: GvTangentParams) -> list[DerivativeTerm]:
    """Weighted derivative terms for the tangent GV representation.

    The l_i term combines the -s_i^2 row and the c_i^2 block of A, the u_i
    term the -t_i^2 column and the r_i^2 block; d, v, w are the diagonal,
    column and row terms of the QS family.
    """
    return _terms(gv, weighted=True)
