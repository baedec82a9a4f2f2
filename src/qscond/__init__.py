"""Condition numbers for quasiseparable multiple-RHS linear systems."""

from .condnum import (
    CondReport,
    SparseRhs,
    WeightSpec,
    cond_eff,
    cond_gv,
    cond_param_denseB,
    cond_param_general,
    cond_param_sparseB,
    cond_qs,
    cond_report,
    cond_unstructured,
    cond_unstructuredA_sparseB,
)
from .experiments import (
    ExperimentConfig,
    example1_fixture,
    gen_illscaled_qs,
    gen_random_gv,
    gen_sparse_rhs,
    rows_to_csv,
    rows_to_markdown,
    run_table,
)
from .oracle import (
    linearized_sup_oracle,
    sampled_ratio_lower_bound,
    worst_sign_pattern,
)
from .qsrep import (
    GvTangentParams,
    QsParams,
    gv_materialize,
    gv_tangent_to_trig,
    gv_to_qs,
    qs_from_dense,
    qs_materialize,
    qs_matvec,
)
from .sensitivity import (
    DerivativeTerm,
    gv_derivatives,
    gv_weighted_derivatives,
    qs_derivatives,
    qs_weighted_derivatives,
)

__version__ = "0.1.0"

__all__ = [
    "CondReport",
    "DerivativeTerm",
    "ExperimentConfig",
    "GvTangentParams",
    "QsParams",
    "SparseRhs",
    "WeightSpec",
    "cond_eff",
    "cond_gv",
    "cond_param_denseB",
    "cond_param_general",
    "cond_param_sparseB",
    "cond_qs",
    "cond_report",
    "cond_unstructured",
    "cond_unstructuredA_sparseB",
    "example1_fixture",
    "gen_illscaled_qs",
    "gen_random_gv",
    "gen_sparse_rhs",
    "gv_derivatives",
    "gv_materialize",
    "gv_tangent_to_trig",
    "gv_to_qs",
    "gv_weighted_derivatives",
    "linearized_sup_oracle",
    "qs_derivatives",
    "qs_from_dense",
    "qs_materialize",
    "qs_matvec",
    "qs_weighted_derivatives",
    "rows_to_csv",
    "rows_to_markdown",
    "run_table",
    "sampled_ratio_lower_bound",
    "worst_sign_pattern",
]
