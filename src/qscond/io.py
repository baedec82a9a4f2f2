"""File formats: parameter JSON schemas, dense CSV/JSON matrices, weights.

Parameter arrays in JSON are listed in ascending one-based index order
(e.g. "p" runs over i = 2..n), matching the conventions of
:mod:`qscond.qsrep`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .condnum import SparseRhs, WeightSpec
from .qsrep import GvTangentParams, QsParams

QS_KEYS = {"n", "p", "a", "q", "d", "g", "b", "h"}
GV_KEYS = {"n", "l", "v", "d", "w", "u"}


class InputError(ValueError):
    """Malformed input file; maps to CLI exit code 2."""


def params_from_json(text: str):
    """Parse a QS or GV parameter set, autodetected by its keys."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("parameter file must contain a JSON object")
    keys = set(obj)
    if keys == QS_KEYS:
        cls, fields = QsParams, "paqdgbh"
    elif keys == GV_KEYS:
        cls, fields = GvTangentParams, "lvdwu"
    else:
        raise InputError(
            f"unrecognized parameter schema with keys {sorted(keys)}; "
            f"expected {sorted(QS_KEYS)} or {sorted(GV_KEYS)}"
        )
    n = obj["n"]
    if not isinstance(n, int) or n < 2:
        raise InputError("field 'n' must be an integer >= 2")
    arrays = {}
    for f in fields:
        try:
            arrays[f] = np.asarray(obj[f], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"field {f!r} is not a numeric array") from exc
        if not np.all(np.isfinite(arrays[f])):
            raise InputError(f"field {f!r} contains non-finite values")
    try:
        params = cls(**arrays)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if params.n != n:
        raise InputError(f"field 'n' = {n} inconsistent with array lengths (n = {params.n})")
    return params


def params_to_json_dict(params) -> dict:
    if isinstance(params, QsParams):
        fields = "paqdgbh"
    elif isinstance(params, GvTangentParams):
        fields = "lvdwu"
    else:
        raise TypeError(f"unsupported parameter type {type(params).__name__}")
    out = {"n": params.n}
    for f in fields:
        out[f] = getattr(params, f).tolist()
    return out


def load_params(path: str | Path):
    return params_from_json(Path(path).read_text())


def matrix_from_text(text: str) -> np.ndarray:
    """Parse a dense matrix from JSON nested arrays or CSV rows."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            M = np.asarray(json.loads(text), dtype=float)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise InputError(f"invalid JSON matrix: {exc}") from exc
    else:
        try:
            rows = [
                [float(cell) for cell in line.split(",")]
                for line in text.strip().splitlines()
                if line.strip()
            ]
            M = np.asarray(rows, dtype=float)
        except ValueError as exc:
            raise InputError(f"invalid CSV matrix: {exc}") from exc
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2 or M.size == 0:
        raise InputError("matrix must be two-dimensional and nonempty")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix contains non-finite values")
    return M


def matrix_to_csv(M: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(x)) for x in row) for row in np.asarray(M, dtype=float))


def rhs_from_text(text: str):
    """Parse a right-hand side: sparse term list or dense matrix.

    A JSON object of the form
    ``{"n": ..., "m": ..., "terms": [{"i": ..., "j": ..., "omega": ...}]}``
    (one-based indices) yields a SparseRhs; anything else is read as a
    dense matrix.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        for key in ("n", "m", "terms"):
            if key not in obj:
                raise InputError(f"sparse RHS object missing field {key!r}")
        for key in ("n", "m"):
            if not isinstance(obj[key], int) or obj[key] < 1:
                raise InputError(f"sparse RHS field {key!r} must be an integer >= 1")
        n, m = obj["n"], obj["m"]
        if not isinstance(obj["terms"], list):
            raise InputError("sparse RHS field 'terms' must be a list")
        terms = []
        for k, t in enumerate(obj["terms"]):
            try:
                i, j, omega = int(t["i"]), int(t["j"]), float(t["omega"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"sparse RHS term {k} malformed: {exc}") from exc
            if not (1 <= i <= n and 1 <= j <= m):
                raise InputError(f"sparse RHS term {k} index ({i},{j}) out of range")
            if not np.isfinite(omega):
                raise InputError(f"sparse RHS term {k} has non-finite omega {omega}")
            S = np.zeros((n, m))
            S[i - 1, j - 1] = 1.0
            terms.append((S, omega))
        return SparseRhs(n=n, m=m, terms=terms)
    return matrix_from_text(text)


def load_rhs(path: str | Path):
    return rhs_from_text(Path(path).read_text())


def weights_from_text(text: str) -> WeightSpec:
    """Parse an explicit-weight file: {"e": {family: [...]}, "F": ..., "f": ...}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("weight file must contain a JSON object")
    e = obj.get("e", {})
    if not isinstance(e, dict):
        raise InputError("weight file field 'e' must be an object mapping families to weights")
    try:
        return WeightSpec(variant="explicit", e=e, F=obj.get("F"), f=obj.get("f"))
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
