"""Brute-force validation oracles for the closed-form condition numbers.

The linearized oracle enumerates sign patterns of the first-order solution
perturbation; because the perturbed entries depend linearly on the signs
and the max norm maximizes per entry, the sup over the whole weight box is
attained entrywise, so the enumeration agrees with a per-entry
absolute-value sum.  Both evaluations are computed and cross-checked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ENUMERATION_BUDGET = 22
# "auto" mode only enumerates while the sweep stays effectively free;
# the strict mode accepts anything up to ENUMERATION_BUDGET.
AUTO_ENUMERATION_LIMIT = 14


def _perturbations(A, X, dA_terms, e, dB_terms, f, n_shared) -> np.ndarray:
    """Weighted first-order solution-perturbation matrices, one (K, n, m) stack.

    The derivative terms may be lists of matrices or stacks; the shared
    parameters come first, then the A-only and the B-only ones.
    """
    N, M = len(dA_terms), len(dB_terms)
    if len(e) != N or len(f) != M:
        raise ValueError("weight vector length does not match derivative count")
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float).reshape(len(X), -1)
    for name, value in (("coefficient matrix A", A), ("solution X", X)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"the {name} has non-finite entries")
    Ainv = np.linalg.inv(A)
    n, m = X.shape
    dA = -Ainv @ np.asarray(dA_terms, dtype=float).reshape(N, n, n) @ X
    dB = Ainv @ np.asarray(dB_terms, dtype=float).reshape(M, n, m)
    dA[:n_shared] += dB[:n_shared]
    dA *= np.asarray(e, dtype=float).reshape(N, 1, 1)
    return np.concatenate([dA, dB[n_shared:] * np.asarray(f, dtype=float)[n_shared:, None, None]])


def linearized_sup_oracle(
    A: np.ndarray,
    X: np.ndarray,
    dA_terms: Sequence[np.ndarray] = (),
    e: Sequence[float] = (),
    dB_terms: Sequence[np.ndarray] = (),
    f: Sequence[float] = (),
    n_shared: int = 0,
    enumerate_signs: bool | str = "auto",
) -> float:
    """First-order worst-case perturbation ratio by sign enumeration.

    The first ``n_shared`` parameters perturb A and B together; the
    remaining dA/dB terms are independent.  Weights ``e`` align with
    ``dA_terms`` and ``f`` with ``dB_terms`` (shared entries of ``f``
    are ignored, the shared weight comes from ``e``).

    ``enumerate_signs`` controls the cross-check against full 2^K sign
    enumeration: "auto" enumerates only while the sweep is cheap
    (K <= AUTO_ENUMERATION_LIMIT), True demands it up to the hard budget
    (raising "enumeration budget exceeded" beyond it), False uses the
    entrywise absolute-sum evaluation alone.
    """
    norm = float(np.max(np.abs(np.asarray(X, dtype=float))))
    return _sup(_perturbations(A, X, dA_terms, e, dB_terms, f, n_shared), norm, enumerate_signs)


def linearized_subset_sups(
    A: np.ndarray,
    X: np.ndarray,
    dA_terms: Sequence[np.ndarray],
    dB_terms: Sequence[np.ndarray],
    f: Sequence[float],
    subsets: dict[str, np.ndarray],
) -> dict[str, float]:
    """``linearized_sup_oracle`` over several subsets of the dA terms, from one stack.

    The dA terms are weighted by 1.  Each subset indexes ``dA_terms`` and
    is taken with every dB term (none shared); its sup equals
    ``linearized_sup_oracle`` on the same terms bit for bit, with "auto"
    sign enumeration decided per subset.
    """
    T = _perturbations(A, X, dA_terms, np.ones(len(dA_terms)), dB_terms, f, 0)
    norm = float(np.max(np.abs(np.asarray(X, dtype=float))))
    rhs = np.arange(len(dA_terms), len(T))
    return {name: _sup(T[np.concatenate([rows, rhs])], norm) for name, rows in subsets.items()}


def _sup(T: np.ndarray, norm: float, enumerate_signs: bool | str = "auto") -> float:
    """max_ij Σ_k |T[k, i, j]| / norm over a (K, n, m) perturbation stack,
    cross-checked by sign enumeration as ``linearized_sup_oracle`` describes.
    ``norm`` is max|X|.
    """
    if norm == 0.0:
        raise ValueError("zero solution")
    K = len(T)
    if enumerate_signs == "auto":
        enumerate_signs = K <= AUTO_ENUMERATION_LIMIT
    elif enumerate_signs and K > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {K} > {ENUMERATION_BUDGET}")

    entrywise = float(np.max(np.abs(T).sum(axis=0))) / norm if K else 0.0
    if not enumerate_signs or not K:
        return entrywise

    flat = T.reshape(K, -1)  # (K, n*m)
    best = 0.0
    codes = np.arange(2**K, dtype=np.uint64)
    for chunk in np.array_split(codes, max(1, len(codes) >> 14)):
        bits = (chunk[:, None] >> np.arange(K, dtype=np.uint64)) & 1
        signs = 2.0 * bits.astype(float) - 1.0  # (chunk, K)
        best = max(best, float(np.max(np.abs(signs @ flat))))
    best /= norm
    if not np.isclose(best, entrywise, rtol=1e-12, atol=1e-300):
        raise AssertionError(
            f"sign enumeration ({best}) disagrees with entrywise sum ({entrywise})"
        )
    return best


def worst_sign_pattern(
    A: np.ndarray,
    X: np.ndarray,
    dA_terms: Sequence[np.ndarray] = (),
    e: Sequence[float] = (),
    dB_terms: Sequence[np.ndarray] = (),
    f: Sequence[float] = (),
    n_shared: int = 0,
) -> np.ndarray:
    """Sign vector attaining the linearized sup, for planting into sampling."""
    T = _perturbations(A, X, dA_terms, e, dB_terms, f, n_shared)
    total = np.abs(T).sum(axis=0)
    i, j = np.unravel_index(np.argmax(total), total.shape)
    return np.where(T[:, i, j] >= 0.0, 1.0, -1.0)


def sampled_ratio_lower_bound(
    A_of_omega,
    B_of_omega,
    omega0: np.ndarray,
    weights: np.ndarray,
    eta: float,
    trials: int,
    seed: int | None = None,
    planted_signs: np.ndarray | None = None,
) -> float:
    """Finite-perturbation sampling of the condition-number sup.

    ``A_of_omega``/``B_of_omega`` rebuild the system from the full
    parameter vector; each trial perturbs omega by eta * weights with
    random (or planted) signs and measures the solution change relative
    to eta * max|X|.  Singular perturbed systems are skipped.  The result
    is a lower bound for the sup, approaching it as eta -> 0.
    """
    if not (0.0 < eta <= 1e-4):
        raise ValueError("eta must lie in (0, 1e-4]")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    omega0 = np.asarray(omega0, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rng = np.random.default_rng(seed)
    A0 = np.asarray(A_of_omega(omega0), dtype=float)
    B0 = np.asarray(B_of_omega(omega0), dtype=float)
    X0 = np.linalg.solve(A0, B0)
    norm = float(np.max(np.abs(X0)))
    if norm == 0.0:
        raise ValueError("zero solution")
    best = 0.0
    skipped = 0
    for trial in range(trials):
        if planted_signs is not None and trial == 0:
            signs = np.asarray(planted_signs, dtype=float)
        else:
            signs = rng.choice([-1.0, 1.0], size=omega0.size)
        omega = omega0 + eta * weights * signs
        A1 = np.asarray(A_of_omega(omega), dtype=float)
        B1 = np.asarray(B_of_omega(omega), dtype=float)
        try:
            X1 = np.linalg.solve(A1, B1)
        except np.linalg.LinAlgError:
            skipped += 1
            continue
        best = max(best, float(np.max(np.abs(X1 - X0))) / (eta * norm))
    if skipped == trials:
        raise ValueError("all perturbed systems were singular")
    return best
