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


def _qs_core(qs: QsParams, weighted: bool) -> dict[str, np.ndarray]:
    """Derivative matrices of every QS family, one (count, n, n) stack each.

    Batch row k substitutes generator k once by ``hi`` and once by 0; the
    difference of the two materializations is term k.  ``hi`` is 1, or the
    generator itself in weighted form.
    """
    omega = qs.flat()
    K = omega.size
    cuts = np.cumsum([getattr(qs, f).size for f in _QS_FIRST])[:-1]
    hi = omega if weighted else np.ones(K)
    batch = np.tile(omega, (2, K, 1))
    k = np.arange(K)
    batch[0, k, k] = hi
    batch[1, k, k] = 0.0
    gen = dict(zip(_QS_FIRST, np.split(batch, cuts, axis=-1)))
    A = _fill_generators(*(gen[f] for f in "dpaqgbh"))
    return dict(zip(_QS_FIRST, np.split(A[0] - A[1], cuts)))


def _gv_core(gv: GvTangentParams, weighted: bool) -> dict[str, np.ndarray]:
    """GV derivative stacks by the chain rule through the embedded QS terms."""
    D = _qs_core(gv_to_qs(gv), weighted)
    c, s, r, t = (x[:, None, None] for x in gv_tangent_to_trig(gv))
    m = gv.n - 2
    if weighted:
        (lp, la), (uh, ub) = (-(s**2), c**2), (-(t**2), r**2)
    else:
        (lp, la), (uh, ub) = (-s * c**2, c**3), (-t * r**2, r**3)
    return {
        "l": lp * D["p"][:m] + la * D["a"],
        "v": D["q"],
        "d": D["d"],
        "w": D["g"],
        "u": uh * D["h"][:m] + ub * D["b"],
    }


def _terms(params, first: dict[str, int], mats: dict[str, np.ndarray]) -> list[DerivativeTerm]:
    return [
        DerivativeTerm(f, first[f] + j, value, M)
        for f in first
        for j, (value, M) in enumerate(zip(getattr(params, f), mats[f]))
    ]


def qs_derivatives(qs: QsParams) -> list[DerivativeTerm]:
    """All 7n-8 partial derivatives of the generator representation."""
    return _terms(qs, _QS_FIRST, _qs_core(qs, weighted=False))


def gv_derivatives(gv: GvTangentParams) -> list[DerivativeTerm]:
    """All 5n-6 partial derivatives of the tangent GV representation."""
    return _terms(gv, _GV_FIRST, _gv_core(gv, weighted=False))


def qs_weighted_derivatives(qs: QsParams) -> list[DerivativeTerm]:
    """Weighted derivative terms omega * dA/domega = A - A(omega:=0).

    Every term, d included, absorbs its parameter and equals a row, column
    or contiguous block of the materialized matrix; the d_i term is
    d_i e_i e_i^T.  The natural weight of every term is therefore 1.
    """
    return _terms(qs, _QS_FIRST, _qs_core(qs, weighted=True))


def gv_weighted_derivatives(gv: GvTangentParams) -> list[DerivativeTerm]:
    """Weighted derivative terms for the tangent GV representation.

    The l_i term combines the -s_i^2 row and the c_i^2 block of A, the u_i
    term the -t_i^2 column and the r_i^2 block; d, v, w are the diagonal,
    column and row terms of the QS family.
    """
    return _terms(gv, _GV_FIRST, _gv_core(gv, weighted=True))
