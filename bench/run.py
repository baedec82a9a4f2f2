#!/usr/bin/env python3
"""Benchmark of qscond through its public entry points.

    python3 bench/run.py --workload table2-gv --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  table2-gv         one Table-2 row (experiments.run_table) at n=160, m=20,
                    rho=0.3, plus the same instance seed at n=80
  cond-files-small  one in-process ``qscond cond ... --json`` call on files
                    written during set-up, n = 20..40, m = 3
  verify-n4         one in-process ``qscond verify --n 4 --m 2 --trials 20``

Each run times whole rounds of operations for ``--seconds`` seconds, checks
every output against bench/reference.py (never qscond.condnum) or against a
property the method must have, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.  ``--trace 0`` reports
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced rounds,
reports the per-layer metrics of the traced ones with the tracing overhead,
and writes the spans to .bench_run/.
"""

from __future__ import annotations

import os
import sys

# The thread counts the program sees are fixed before numpy loads: one BLAS
# thread, and QSCOND_THREADS (verify's worker pool) equal to nproc.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))
os.environ["QSCOND_THREADS"] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPEATS = 5
WARMUP_SECONDS = 3.0
# Relative agreement required with the float64 reference (well-scaled
# inputs) and the high-precision reference (ill-scaled inputs).  Two float64
# evaluations of the same condition number may each be off from the exact
# value by a small multiple of κ∞(A)·u, so on an ill-conditioned A the
# float64 tolerance widens to KAPPA_RTOL·κ∞(A)·u (float_rtol).
FLOAT_RTOL = 1e-10
KAPPA_RTOL = 10
MP_RTOL = 1e-6
# The property inequalities compare values summed in different orders;
# k_unstructured_sparse equals k_unstructured in exact arithmetic on
# single-entry patterns, so each bound is allowed this much rounding.
PROPERTY_RTOL = 1e-12
ORACLE_TOL = 1e-10


@dataclass
class Call:
    """One operation (or a counterpart run only to time a smaller size)."""

    key: tuple
    counterpart: bool = False


@dataclass(slots=True)
class Record:
    call: Call
    seconds: float
    result: object
    traced: bool = False
    failure: str | None = None
    expected: bool = True


@dataclass
class Inputs:
    seed: int
    files: dict = field(default_factory=dict)
    reference_cache: dict = field(default_factory=dict)
    # One shared copy of each distinct output, so that the memory the
    # benchmark keeps does not grow with the number of operations run.
    outputs: dict = field(default_factory=dict)


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run_cli(argv: list[str]):
    """qscond's CLI in-process, with its stdout and stderr captured."""
    import qscond.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qscond.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def property_failures(values: dict, n: int) -> list[str]:
    """The method's inequalities and positivity, for the k_* values given."""
    bad = []
    ks = {k: v for k, v in values.items() if k.startswith("k_")}
    for k, v in ks.items():
        if not (math.isfinite(v) and v > 0):
            bad.append(f"{k}={v} not finite and positive")
    if bad:
        return bad

    def le(a, b, label):
        if not a <= b * (1 + PROPERTY_RTOL):
            bad.append(f"{label} fails ({a!r} > {b!r})")

    qs, eff = ks["k_qs"], ks["k_eff"]
    le(eff, qs, "k_eff <= k_qs")
    le(qs, (n - 1) * eff, "k_qs <= (n-1) k_eff")
    if "k_gv" in ks:
        le(ks["k_gv"], qs, "k_gv <= k_qs")
        le(qs, (3 * n - 2) * ks["k_gv"], "k_qs <= (3n-2) k_gv")
    k_us = ks.get("k_unstructured_sparse", ks["k_unstructured"])
    le(qs, n * k_us, "k_qs <= n k_unstructured_sparse")
    le(k_us, ks["k_unstructured"], "k_unstructured_sparse <= k_unstructured")
    return bad


def float_rtol(kappa: float) -> float:
    return max(FLOAT_RTOL, KAPPA_RTOL * kappa * np.finfo(float).eps / 2)


def compare(values: dict, reference: dict, rtol: float) -> list[str]:
    bad = []
    for k, want in reference.items():
        if k not in values:
            bad.append(f"{k} missing")
        elif not rel_err(values[k], want) <= rtol:
            bad.append(f"{k}={values[k]!r} vs reference {want!r}")
    return bad


def gen_gv(rng, n: int) -> dict:
    """Standard-normal tangent GV parameters (the random-gv distribution)."""
    return {
        "n": n,
        "l": rng.standard_normal(n - 2).tolist(),
        "v": rng.standard_normal(n - 1).tolist(),
        "d": rng.standard_normal(n).tolist(),
        "w": rng.standard_normal(n - 1).tolist(),
        "u": rng.standard_normal(n - 2).tolist(),
    }


def gen_sparse_terms(rng, n: int, m: int, rho: float) -> list[tuple[int, int, float]]:
    """Zero-based single-entry RHS terms, drawn like experiments.gen_sparse_rhs."""
    mask = rng.random((n, m)) < rho
    return [(int(i), int(j), float(rng.uniform(0.0, 1.0))) for i, j in zip(*mask.nonzero())]


def counterpart_growth(records: list[Record]) -> float:
    """Median operation time over the median time of its half-size counterparts."""
    main = [r.seconds for r in records if not r.call.counterpart]
    half = [r.seconds for r in records if r.call.counterpart]
    return statistics.median(main) / statistics.median(half)


# --------------------------------------------------------------------------
# table2-gv


class Table2Gv:
    """One Table-2 row at n=160 per operation; its n=80 counterpart times growth_x."""

    name = "table2-gv"
    N, N_HALF, M, RHO = 160, 80, 20, 0.3

    def build(self, seed: int, workdir: Path) -> Inputs:
        return Inputs(seed=seed)

    def round(self, inputs: Inputs, r: int) -> list[Call]:
        cfg_seed = derive_seed(1, inputs.seed, r)
        return [Call(("row", self.N, cfg_seed)), Call(("row", self.N_HALF, cfg_seed), counterpart=True)]

    def run(self, inputs: Inputs, call: Call):
        from qscond import experiments

        _, n, cfg_seed = call.key
        cfg = experiments.ExperimentConfig(n=n, m=self.M, rho=self.RHO, seed=cfg_seed, trials=1, generator="random-gv")
        (row,) = experiments.run_table(cfg)
        values = {
            "k_qs": row.k_qs,
            "k_eff": row.k_eff,
            "k_gv": row.k_gv,
            "k_unstructured": row.k_unstructured,
            "k_unstructured_sparse": row.k_unstructured_sparse,
        }
        return row.seed, values

    def check(self, inputs: Inputs, records: list[Record]) -> None:
        for rec in records:
            if rec.failure is None:
                self._check(rec)

    def _check(self, rec: Record) -> None:
        _, n, cfg_seed = rec.call.key
        # run_table draws an instance seed and an RHS seed from the config seed.
        root = np.random.default_rng(cfg_seed)
        inst_seed = int(root.integers(0, 2**63 - 1))
        rhs_seed = int(root.integers(0, 2**63 - 1))
        gv = gen_gv(np.random.default_rng(inst_seed), n)
        terms = gen_sparse_terms(np.random.default_rng(rhs_seed), n, self.M, self.RHO)
        while not terms:
            rhs_seed += 1
            terms = gen_sparse_terms(np.random.default_rng(rhs_seed), n, self.M, self.RHO)
        row_seed, values = rec.result
        bad = [] if row_seed == inst_seed else [f"row seed {row_seed} != instance seed {inst_seed}"]
        ref, kappa = reference.float_reference(gv, rhs_terms=(n, self.M, terms))
        bad += compare(values, ref, float_rtol(kappa)) + property_failures(values, n)
        if bad:
            rec.failure, rec.expected = "; ".join(bad), False

    def growth(self, records: list[Record]) -> float:
        return counterpart_growth(records)


# --------------------------------------------------------------------------
# cond-files-small


class CondFilesSmall:
    """In-process ``qscond cond ... --json`` calls on files written at set-up.

    Each round runs one variant's 16 seed-dependent calls (8 formats at n=20
    and at n=40) and 7 fixed calls, 6 of which show the known faults.
    """

    name = "cond-files-small"
    SIZES = (20, 40)
    VARIANTS = 3
    M, RHO = 3, 0.3
    # The ill-scaled instances on which `qscond cond` exits with "Singular
    # matrix" (fault a); the others give values off the reference (fault b).
    FAULT_A_TAGS = ("ill-n30s1000", "ill-n40s1019")
    FAULT_B_TAGS = ("ill-n20s5", "ill-n20s6")
    FAULT_C_SEED = 7  # the fixed GV instance given a GV-family weights file
    FAULT_C_N = 20

    def build(self, seed: int, workdir: Path) -> Inputs:
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = Inputs(seed=seed)
        rng = np.random.default_rng(derive_seed(2, seed))
        be = reference.Float64()

        def write(name, text):
            path = workdir / name
            path.write_text(text)
            return str(path)

        for v in range(self.VARIANTS):
            for n in self.SIZES:
                tag = f"v{v}n{n}"
                gv = gen_gv(rng, n)
                qs_gv = gen_gv(rng, n)
                dense_gv = gen_gv(rng, n)
                terms = gen_sparse_terms(rng, n, self.M, self.RHO) or [(0, 0, 0.5)]
                B = rng.standard_normal((n, self.M))
                qs, _ = reference.gv_to_qs_generators(be, *(qs_gv[f] for f in "lvdwu"))
                A, _, _ = reference.materialize(be, reference.gv_to_qs_generators(be, *(dense_gv[f] for f in "lvdwu"))[0])
                natural_e = {f: np.abs(qs[f]).tolist() for f in "paqdgbh"}
                f = inputs.files
                f[tag, "gv"] = (write(f"{tag}-gv.json", json.dumps(gv)), gv)
                f[tag, "qs"] = (write(f"{tag}-qs.json", json.dumps({"n": n, **qs})), {"n": n, **qs})
                f[tag, "csv"] = (write(f"{tag}-A.csv", "\n".join(",".join(map(repr, row)) for row in A.tolist())), dense_gv)
                f[tag, "sparse"] = (write(f"{tag}-rhs.json", sparse_json(n, self.M, terms)), terms)
                f[tag, "dense"] = (write(f"{tag}-B.csv", "\n".join(",".join(map(repr, row)) for row in B.tolist())), B)
                f[tag, "w-sparse"] = (write(f"{tag}-w-sparse.json", json.dumps({"e": natural_e, "f": [abs(w) for _, _, w in terms]})), None)
                f[tag, "w-dense"] = (write(f"{tag}-w-dense.json", json.dumps({"e": natural_e, "F": np.abs(B).tolist()})), None)

        stored = json.loads(reference.REFERENCE_FILE.read_text())
        for inst in stored["instances"]:
            tag = f"ill-n{inst['n']}s{inst['seed']}"
            params = inst["params"]
            terms = [(t["i"] - 1, t["j"] - 1, t["omega"]) for t in inst["rhs"]["terms"]]
            ref = {k: float(v) for k, v in inst["reference"].items()}
            inputs.files[tag, "qs"] = (write(f"{tag}-qs.json", json.dumps(params)), ref)
            inputs.files[tag, "sparse"] = (write(f"{tag}-rhs.json", json.dumps(inst["rhs"])), terms)
            natural_e = {f: np.abs(params[f]).tolist() for f in "paqdgbh"}
            w = {"e": natural_e, "f": [abs(w) for _, _, w in terms]}
            inputs.files[tag, "w-sparse"] = (write(f"{tag}-w-sparse.json", json.dumps(w)), None)

        frng = np.random.default_rng(self.FAULT_C_SEED)
        gv = gen_gv(frng, self.FAULT_C_N)
        terms = gen_sparse_terms(frng, self.FAULT_C_N, self.M, self.RHO)
        w = {"e": {k: np.abs(gv[k]).tolist() for k in "lvdwu"}, "f": [abs(w) for _, _, w in terms]}
        inputs.files["fault-c", "gv"] = (write("fault-c-gv.json", json.dumps(gv)), gv)
        inputs.files["fault-c", "sparse"] = (write("fault-c-rhs.json", sparse_json(self.FAULT_C_N, self.M, terms)), terms)
        inputs.files["fault-c", "w-gv"] = (write("fault-c-w.json", json.dumps(w)), None)
        return inputs

    def round(self, inputs: Inputs, r: int) -> list[Call]:
        return self._round(r % self.VARIANTS)

    @functools.cache
    def _round(self, v: int) -> list[Call]:
        """The calls of variant v, built once so that rounds share them."""
        calls = []
        for n in self.SIZES:
            tag = f"v{v}n{n}"
            for mat in ("gv", "csv"):
                for rhs in ("sparse", "dense"):
                    calls.append(Call((tag, mat, rhs, None)))
            for rhs in ("sparse", "dense"):
                calls.append(Call((tag, "qs", rhs, None)))
                calls.append(Call((tag, "qs", rhs, f"w-{rhs}")))
        for tag in self.FAULT_B_TAGS + self.FAULT_A_TAGS:
            calls.append(Call((tag, "qs", "sparse", None)))
        calls.append(Call(("ill-n20s5", "qs", "sparse", "w-sparse")))
        calls.append(Call(("fault-c", "gv", "sparse", None)))
        calls.append(Call(("fault-c", "gv", "sparse", "w-gv")))
        return calls

    def run(self, inputs: Inputs, call: Call):
        tag, mat, rhs, weights = call.key
        argv = ["cond", inputs.files[tag, mat][0], inputs.files[tag, rhs][0], "--json"]
        if weights:
            argv += ["--weights", inputs.files[tag, weights][0]]
        result = run_cli(argv)
        return inputs.outputs.setdefault(result, result)

    def _reference(self, inputs: Inputs, tag: str, mat: str, rhs: str) -> dict:
        key = (tag, mat, rhs)
        if key not in inputs.reference_cache:
            params = inputs.files[tag, mat][1]
            rhs_data = inputs.files[tag, rhs][1]
            if rhs == "sparse":
                ref, kappa = reference.float_reference(params, rhs_terms=(params["n"], self.M, rhs_data))
            else:
                ref, kappa = reference.float_reference(params, B=rhs_data)
            if mat == "csv":
                ref.pop("k_gv")  # a dense matrix carries no GV parameters
            inputs.reference_cache[key] = ref, float_rtol(kappa)
        return inputs.reference_cache[key]

    def check(self, inputs: Inputs, records: list[Record]) -> None:
        records = [rec for rec in records if rec.failure is None]
        natural = {}
        for rec in records:
            tag, mat, rhs, weights = rec.call.key
            if weights is None and rec.result[0] == 0:
                natural.setdefault((tag, mat, rhs), json.loads(rec.result[1].strip().splitlines()[-1]))
        for rec in records:
            self._check(inputs, rec, natural)

    def _check(self, inputs: Inputs, rec: Record, natural_outputs: dict) -> None:
        tag, mat, rhs, weights = rec.call.key
        rc, out, err = rec.result
        ill = tag.startswith("ill-")
        if rc != 0:
            rec.failure = f"exit {rc}: {err.strip()}"
            if tag in self.FAULT_A_TAGS and not weights:
                rec.expected = "Singular matrix" in err
            elif tag == "fault-c" and weights:
                rec.expected = "explicit weights missing for parameter family 'p'" in err
            else:
                rec.expected = False
            return
        values = json.loads(out.strip().splitlines()[-1])
        broken = property_failures(values, values["n"])
        if weights:
            natural = natural_outputs.get((tag, mat, rhs))
            ks = {k: v for k, v in values.items() if k.startswith("k_")}
            if natural is None or ks != {k: natural[k] for k in ks}:
                broken.append(f"explicit natural-equal weights {ks} differ from natural {natural}")
        if ill:
            reference_values, rtol = inputs.files[tag, mat][1], MP_RTOL
        else:
            reference_values, rtol = self._reference(inputs, tag, mat, rhs)
        mismatch = compare(values, reference_values, rtol)
        if broken or mismatch:
            # Fault (b) is a mismatch with the high-precision reference on an
            # ill-scaled input whose values still have the method's
            # properties; an (a) instance that stops failing falls under it.
            rec.failure = "; ".join(broken + mismatch)
            rec.expected = ill and not broken

    def growth(self, records: list[Record]) -> float:
        def median_at(n):
            return statistics.median(r.seconds for r in records if r.call.key[0] in self._tags(n))

        return median_at(40) / median_at(20)

    def _tags(self, n: int) -> set[str]:
        """Tags of the seed-dependent files of size n."""
        return {f"v{v}n{n}" for v in range(self.VARIANTS)}


def sparse_json(n: int, m: int, terms) -> str:
    return json.dumps({"n": n, "m": m, "terms": [{"i": i + 1, "j": j + 1, "omega": w} for i, j, w in terms]})


# --------------------------------------------------------------------------
# verify-n4


ORACLE_LINE = re.compile(r"^oracle (\w+): max relative deviation (\S+) \[(\w+)\]$")


class VerifyN4:
    """``qscond verify --n 4 --m 2 --trials 20`` in-process; --n 2 counterpart times growth_x."""

    name = "verify-n4"
    TRIALS = 20
    ORACLES = {"qs", "eff", "gv", "unstructured", "unstructured_sparse"}

    def build(self, seed: int, workdir: Path) -> Inputs:
        return Inputs(seed=seed)

    def round(self, inputs: Inputs, r: int) -> list[Call]:
        base = derive_seed(3, inputs.seed) % 2**30 + r * self.TRIALS
        return [Call((4, base)), Call((2, base), counterpart=True)]

    def run(self, inputs: Inputs, call: Call):
        n, seed = call.key
        return run_cli(["verify", "--n", str(n), "--m", "2", "--trials", str(self.TRIALS), "--seed", str(seed)])

    def check(self, inputs: Inputs, records: list[Record]) -> None:
        for rec in records:
            if rec.failure is None:
                self._check(rec)

    def _check(self, rec: Record) -> None:
        n, _ = rec.call.key
        rc, out, err = rec.result
        bad = [] if rc == 0 else [f"exit {rc}: {err.strip()}"]
        seen = set()
        lines = out.strip().splitlines()
        for line in lines:
            m = ORACLE_LINE.match(line)
            if m:
                seen.add(m.group(1))
                if not float(m.group(2)) <= ORACLE_TOL:
                    bad.append(line)
        want = self.ORACLES if n >= 3 else self.ORACLES - {"gv"}
        if seen != want:
            bad.append(f"oracle lines {sorted(seen)}, expected {sorted(want)}")
        summary = f"inequality chains: 0 violations over {self.TRIALS} instances [ok]"
        if summary not in lines or any(line.startswith("inequality violated") for line in lines):
            bad.append("inequality violations reported")
        if bad:
            rec.failure, rec.expected = "; ".join(bad), False

    def growth(self, records: list[Record]) -> float:
        return counterpart_growth(records)


WORKLOADS = {w.name: w for w in (Table2Gv(), CondFilesSmall(), VerifyN4())}


# --------------------------------------------------------------------------
# measurement


def time_import() -> float:
    """Seconds to import qscond in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import qscond; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip())


def calibration_ms() -> float:
    """Median time of a fixed kernel of small numpy calls that never touches qscond.

    It is printed before and after the timed phase, so that a slow period of
    the machine can be told apart from a slower program.
    """
    a = np.arange(64.0).reshape(8, 8) + 8 * np.eye(8)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(2000):
            np.linalg.solve(a, a[0])
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def blas_record() -> list[dict]:
    """Each loaded OpenBLAS library with the thread count it reports."""
    out = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        out.append({"library": Path(path).name, "threads": threads})
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_record(),
        "thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "QSCOND_THREADS": os.environ["QSCOND_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1][:200]


def run_op(wl, inputs: Inputs, call: Call) -> Record:
    """Time one call; an exception escaping qscond is recorded as a failure."""
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs, call)
    except Exception:
        return Record(call, time.perf_counter() - t0, None, failure=traceback.format_exc(limit=-3), expected=False)
    return Record(call, time.perf_counter() - t0, result)


def timed_rounds(wl, inputs: Inputs, seconds: float, tracer=None) -> tuple[list[Record], float]:
    """Run whole rounds for ``seconds``; with a tracer, every other round is traced."""
    records: list[Record] = []
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            for call in wl.round(inputs, r):
                if tracer is not None and call.counterpart:
                    continue
                if traced:
                    tracer.op = len(records)
                records.append(run_op(wl, inputs, call))
                records[-1].traced = traced
        finally:
            if traced:
                tracer.op = None
                tracer.uninstall()
        r += 1
        if time.perf_counter() - start >= seconds and (tracer is None or r % 2 == 0):
            break
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qscond" / "__init__.py").is_file():
        print(f"error: qscond sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        import_s = [time_import() for _ in range(SETUP_REPEATS)]
        import qscond  # noqa: F401

        build_s = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.build(args.seed, workdir / f"setup{k}")
            build_s.append(time.perf_counter() - t0)

        # Untimed rounds let lazy imports, first-call costs and the
        # allocator's adaptation to the workload's array sizes settle.
        warm_start, r = time.perf_counter(), 0
        while r == 0 or time.perf_counter() - warm_start < WARMUP_SECONDS:
            for call in wl.round(inputs, r):
                run_op(wl, inputs, call)
            r += 1

        tracer = Tracer() if args.trace else None
        calibration = [calibration_ms()]
        records, elapsed = timed_rounds(wl, inputs, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration.append(calibration_ms())
        # The machine slows down in episodes of seconds to minutes.  Each
        # import is timed again after the timed phase and the lesser time
        # kept, so that one episode does not set setup_s.
        import_s = [min(t, time_import()) for t in import_s]
        setup_s = [a + b for a, b in zip(import_s, build_s)]
        wl.check(inputs, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [r for r in records if not r.call.counterpart]
    failed = [r for r in ops if r.failure is not None]
    unexpected = [r for r in records if r.failure is not None and not r.expected]
    op_ms = [1e3 * r.seconds for r in ops]

    print("env: " + json.dumps(environment()))
    print(f"workload {wl.name} seed {args.seed}: {len(ops)} operations in {elapsed:.2f} s, {len(failed)} failed")
    print(f"calibration_ms {calibration[0]:.3f} before, {calibration[1]:.3f} after the timed phase")
    kinds = Counter(f"{r.call.key[:2]} {last_line(r.failure)}" for r in failed)
    for kind, count in sorted(kinds.items()):
        print(f"failed x{count}: {kind}")
    for r in unexpected[:10]:
        print(f"UNEXPECTED failure {r.call.key}: {last_line(r.failure)}")
    if len(op_ms) >= 100:
        print(f"op_p90_ms {percentile(op_ms, 90):.4f} over {len(op_ms)} operations")

    if args.trace:
        traced = [1e3 * r.seconds for r in ops if r.traced]
        untraced = [1e3 * r.seconds for r in ops if not r.traced]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        RUN_DIR.mkdir(exist_ok=True)
        spans_path = RUN_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.write(spans_path, workload=wl.name, seed=args.seed, traced_ops=len(traced))
        print(f"traced {len(traced)} of {len(ops)} operations; spans in {spans_path.relative_to(ROOT)}")
    else:
        counterpart_s = sum(r.seconds for r in records if r.call.counterpart)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "ops_per_s": {"value": len(ops) / (elapsed - counterpart_s), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "growth_x": {"value": wl.growth(records), "unit": "ratio"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
