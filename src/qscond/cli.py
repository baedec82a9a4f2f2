"""Command-line frontend.

Subcommands: materialize, cond, verify, reproduce.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage or input errors, an
unreadable path included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, io, oracle
from .condnum import SparseRhs, WeightSpec, cond_gv, cond_report, unit_patterns
from .qsrep import GvTangentParams, QsParams, gv_materialize, qs_materialize
from .sensitivity import derivative_stack

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


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
    text = Path(matrix_path).read_text()
    if text.lstrip().startswith("{"):
        source = io.params_from_json(text)
    else:
        source = io.matrix_from_text(text)
    return source, io.load_rhs(rhs_path)


def cmd_cond(args) -> int:
    source, rhs = _load_system(args.matrix, args.rhs)
    weights = WeightSpec()
    if args.weights != "natural":
        weights = io.weights_from_text(Path(args.weights).read_text())
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
    """Max relative deviation of each closed form from the sign oracle.

    Every derivative term is in weighted form, A - A(omega:=0), an entry
    a_ij e_i e_j^T of A included, so the oracle weighs each of them by 1.
    """
    rng = np.random.default_rng(seed)

    def rel(closed: float, brute: float) -> float:
        return abs(closed - brute) / max(abs(brute), 1e-300)

    def units(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The oracle's RHS terms: one unit pattern per entry, weighted by |B_ij|."""
        S, omega = unit_patterns(B)
        return S, np.abs(omega)

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
    report = cond_report(qs, SparseRhs.from_dense(B), X=X)
    D, families = derivative_stack(qs, weighted=True)
    K = len(D)
    subsets = {
        "qs": np.arange(K),
        "eff": np.flatnonzero((families != "a") & (families != "b")),
        "unstructured": np.arange(K, K + n * n),
    }
    dA = np.concatenate([D, np.diag(A.ravel()).reshape(-1, n, n)])
    sups = oracle.linearized_subset_sups(A, X, dA, *units(B), subsets)
    devs = {
        "qs": rel(report.k_qs, sups["qs"]),
        "eff": rel(report.k_eff, sups["eff"]),
        "unstructured": rel(report.k_unstructured, sups["unstructured"]),
        "unstructured_sparse": rel(report.k_unstructured_sparse, sups["unstructured"]),
    }
    if n >= 3:
        gv = experiments.gen_random_gv(n, seed + 1)
        Agv = gv_materialize(gv)
        Bgv = rng.standard_normal((n, m))
        Xgv = np.linalg.solve(Agv, Bgv)
        G = derivative_stack(gv, weighted=True)[0]
        brute = oracle.linearized_sup_oracle(Agv, Xgv, G, np.ones(len(G)), *units(Bgv))
        devs["gv"] = rel(cond_gv(gv, Bgv, Xgv), brute)
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
    if args.m < 1:
        raise io.InputError("verify requires --m >= 1")
    if not 2 <= args.n <= 4:
        raise io.InputError("oracle verification requires 2 <= n <= 4")
    seeds = range(args.seed, args.seed + args.trials)
    oracle_devs = [_verify_oracle_instance(s, args.n, args.m) for s in seeds]
    ineq_bad = [_verify_inequality_instance(s, args.n, args.m) for s in seeds]
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
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
