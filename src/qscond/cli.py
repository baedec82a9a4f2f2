"""Command-line frontend.

Subcommands: materialize, cond, verify, reproduce.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage or input errors.  The
QSCOND_THREADS environment variable caps trial parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import experiments, io, oracle
from .condnum import (
    CSV_HEADER,
    SparseRhs,
    WeightSpec,
    cond_eff,
    cond_gv,
    cond_qs,
    cond_report,
    cond_unstructured,
    cond_unstructuredA_sparseB,
)
from .qsrep import (
    GvTangentParams,
    QsParams,
    gv_materialize,
    gv_to_qs,
    qs_materialize,
)
from .sensitivity import (
    gv_weighted_derivatives,
    natural_term_weights,
    qs_weighted_derivatives,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _thread_count() -> int:
    raw = os.environ.get("QSCOND_THREADS", "1")
    try:
        count = int(raw)
    except ValueError as exc:
        raise io.InputError(f"QSCOND_THREADS must be an integer, got {raw!r}") from exc
    return max(1, count)


def cmd_materialize(args) -> int:
    params = io.load_params(args.params)
    if isinstance(params, GvTangentParams):
        A = gv_materialize(params)
    else:
        A = qs_materialize(params)
    if args.json:
        print(json.dumps(A.tolist()))
    else:
        print(io.matrix_to_csv(A))
    return EXIT_OK


def _load_system(matrix_path: str, rhs_path: str):
    """Read the coefficient source (params or dense) and the RHS."""
    text = open(matrix_path).read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        source = io.params_from_json(text)
    else:
        source = io.matrix_from_text(text)
    rhs = io.load_rhs(rhs_path)
    return source, rhs


def cmd_cond(args) -> int:
    source, rhs = _load_system(args.matrix, args.rhs)
    weights = WeightSpec()
    if args.weights != "natural":
        weights = io.weights_from_text(open(args.weights).read())
    values = cond_report(source, rhs, weights=weights).to_json_dict()

    wanted = args.which
    if wanted != "all":
        keymap = {
            "qs": ["k_qs"],
            "gv": ["k_gv"],
            "eff": ["k_eff"],
            "unstructured": ["k_unstructured", "k_unstructured_sparse"],
        }
        keep = {"n", "m", "rhs_mode"} | set(keymap[wanted])
        values = {k: v for k, v in values.items() if k in keep}
        if wanted == "gv" and "k_gv" not in values:
            raise io.InputError("GV condition number requires GV parameter input")
    if args.json:
        print(json.dumps(values))
    else:
        keys = [k for k in values if k.startswith("k_") or k == "ratio"]
        print(",".join(keys))
        print(",".join(repr(float(values[k])) for k in keys))
    return EXIT_OK


def _verify_oracle_instance(seed: int, n: int, m: int) -> dict[str, float]:
    """Max relative deviation of each closed form from the sign oracle."""
    rng = np.random.default_rng(seed)
    devs: dict[str, float] = {}

    def rel(closed: float, brute: float) -> float:
        return abs(closed - brute) / max(abs(brute), 1e-300)

    qs = QsParams(
        p=rng.standard_normal(n - 1),
        a=rng.standard_normal(max(n - 2, 0)),
        q=rng.standard_normal(n - 1),
        d=rng.standard_normal(n),
        g=rng.standard_normal(n - 1),
        b=rng.standard_normal(max(n - 2, 0)),
        h=rng.standard_normal(n - 1),
    )
    A = qs_materialize(qs)
    B = rng.standard_normal((n, m))
    X = np.linalg.solve(A, B)
    terms = qs_weighted_derivatives(qs)
    dA = [t.matrix for t in terms]
    eA = natural_term_weights(terms)
    rhs = SparseRhs.from_dense(B)
    dB = [S for S, _ in rhs.terms]
    fB = [abs(w) for _, w in rhs.terms]
    devs["qs"] = rel(
        cond_qs(qs, rhs, X),
        oracle.linearized_sup_oracle(A, X, dA, eA, dB, fB),
    )
    eff = [t for t in terms if t.family not in ("a", "b")]
    devs["eff"] = rel(
        cond_eff(qs, rhs, X),
        oracle.linearized_sup_oracle(
            A, X, [t.matrix for t in eff], natural_term_weights(eff), dB, fB
        ),
    )
    # unstructured: one derivative per entry of A
    dA_entries, eA_entries = [], []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            dA_entries.append(E)
            eA_entries.append(abs(A[i, j]))
    devs["unstructured"] = rel(
        cond_unstructured(A, B, X),
        oracle.linearized_sup_oracle(A, X, dA_entries, eA_entries, dB, fB),
    )
    devs["unstructured_sparse"] = rel(
        cond_unstructuredA_sparseB(A, X, rhs),
        oracle.linearized_sup_oracle(A, X, dA_entries, eA_entries, dB, fB),
    )
    if n >= 3:
        gv = experiments.gen_random_gv(n, seed + 1)
        Agv = qs_materialize(gv_to_qs(gv))
        Bgv = rng.standard_normal((n, m))
        Xgv = np.linalg.solve(Agv, Bgv)
        gterms = gv_weighted_derivatives(gv)
        rhs_gv = SparseRhs.from_dense(Bgv)
        devs["gv"] = rel(
            cond_gv(gv, rhs_gv, Xgv),
            oracle.linearized_sup_oracle(
                Agv,
                Xgv,
                [t.matrix for t in gterms],
                natural_term_weights(gterms),
                [S for S, _ in rhs_gv.terms],
                [abs(w) for _, w in rhs_gv.terms],
            ),
        )
    return devs


def _verify_inequality_instance(seed: int, n: int, m: int) -> list[str]:
    """Names of any violated inequality chains on one generated instance."""
    cfg = experiments.ExperimentConfig(
        n=max(n, 10), m=m, rho=0.3, seed=seed, trials=1,
        generator="random-gv" if seed % 2 == 0 else "illscaled-qs",
    )
    row = experiments.run_table(cfg)[0]
    bad = []
    nn = row.n
    if not row.k_qs <= nn * row.k_unstructured_sparse:
        bad.append("k_qs <= n*k_unstructured_sparse")
    if row.k_gv is not None:
        if not row.k_gv <= row.k_qs <= (3 * nn - 2) * row.k_gv:
            bad.append("k_gv <= k_qs <= (3n-2)*k_gv")
    if not row.k_eff <= row.k_qs <= (nn - 1) * row.k_eff:
        bad.append("k_eff <= k_qs <= (n-1)*k_eff")
    return bad


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise io.InputError("no trials")
    if args.n > 4:
        raise io.InputError("oracle verification requires n <= 4")
    threads = _thread_count()
    seeds = [args.seed + k for k in range(args.trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        oracle_devs = list(pool.map(lambda s: _verify_oracle_instance(s, args.n, args.m), seeds))
        ineq_bad = list(pool.map(lambda s: _verify_inequality_instance(s, args.n, args.m), seeds))
    worst: dict[str, float] = {}
    for devs in oracle_devs:
        for name, dev in devs.items():
            worst[name] = max(worst.get(name, 0.0), dev)
    ok = True
    for name in sorted(worst):
        status = "ok" if worst[name] <= 1e-10 else "FAIL"
        if status == "FAIL":
            ok = False
        print(f"oracle {name}: max relative deviation {worst[name]:.3e} [{status}]")
    violations = [v for bad in ineq_bad for v in bad]
    if violations:
        ok = False
        for v in violations:
            print(f"inequality violated: {v}")
    else:
        print(f"inequality chains: 0 violations over {args.trials} instances [ok]")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_reproduce(args) -> int:
    if args.example == 1:
        cfg = experiments.ExperimentConfig(
            n=5, m=2, rho=0.5, seed=args.seed, trials=1, generator="example1-fixed"
        )
    elif args.example == 2:
        cfg = experiments.ExperimentConfig(
            n=args.n or 60, m=args.m, rho=args.rho, seed=args.seed,
            trials=args.trials, generator="random-gv",
        )
    else:
        cfg = experiments.ExperimentConfig(
            n=args.n or 40, m=args.m, rho=args.rho, seed=args.seed,
            trials=args.trials, generator="illscaled-qs",
        )
    rows = experiments.run_table(cfg)
    text = experiments.rows_to_markdown(rows) if args.markdown else experiments.rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscond",
        description="Condition numbers for quasiseparable linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materialize", help="print the dense matrix for a parameter file")
    p.add_argument("params", help="JSON parameter file (QS or GV, autodetected)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("cond", help="compute condition numbers for a system")
    p.add_argument("matrix", help="parameter JSON or dense matrix file")
    p.add_argument("rhs", help="dense matrix file or sparse RHS JSON")
    p.add_argument("--which", choices=["all", "qs", "gv", "eff", "unstructured"], default="all")
    p.add_argument("--weights", default="natural", help="'natural' or an explicit weight file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cond)

    p = sub.add_parser("verify", help="run oracle and inequality verification")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="regenerate the experiment tables")
    p.add_argument("--example", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--rho", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the table to a file instead of stdout")
    p.add_argument("--markdown", action="store_true", help="Markdown table instead of CSV")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except io.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
