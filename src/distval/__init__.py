"""distval: value and compare data distributions from finite samples.

Values a vendor's data as the negated kernel distance (MMD) between its
sample and a reference; builds mixture references when no ground truth is
available; and issues buy/compare decisions whose margins and confidence
levels come from the estimator's uniform-convergence guarantees.
"""
from ._version import __version__
from .data import Dataset, DiscretePmf, mix_pmfs
from .errors import (
    CapacityError,
    InputError,
    PropertyViolation,
    UndefinedCorrelationError,
)
from .kernel import KernelConfig, gram_sum, kernel_eval, median_heuristic
from .mmd import mmd2_unbiased, mmd_biased, mmd_discrete
from .huber import (
    HuberSpec,
    MixtureWeights,
    huber_mix,
    huber_value_exact,
    random_huber_population,
    realized_pmf,
    sample_huber,
)
from .valuation import (
    Reference,
    ReferenceKind,
    approximation_error_bound,
    build_mixture_reference,
    build_uniform_reference,
    mixture_pmf,
    value_dataset,
    value_distribution_exact,
)
from .policy import (
    DecisionReport,
    PolicyParams,
    Verdict,
    compare,
    confidence_delta,
    criterion_margin_gt,
    criterion_margin_mix,
    rank_vendors,
)
from .game import (
    GameInstance,
    MinmaxReport,
    analytic_game_value,
    build_game,
    verify_minmax,
)
from .metrics import ValueVector, inversions, l2_err, l_inf_err, pearson
from .experiments import (
    ExperimentConfig,
    ExperimentName,
    ExperimentReport,
    run,
    run_convergence,
    run_correlation,
    run_game_verify,
    run_incentive,
    run_policy_soundness,
    summarize,
    write_curve_csvs,
    write_rows_csv,
)

__all__ = [
    "__version__",
    "CapacityError",
    "Dataset",
    "DecisionReport",
    "DiscretePmf",
    "ExperimentConfig",
    "ExperimentName",
    "ExperimentReport",
    "GameInstance",
    "HuberSpec",
    "InputError",
    "KernelConfig",
    "MinmaxReport",
    "MixtureWeights",
    "PolicyParams",
    "PropertyViolation",
    "Reference",
    "ReferenceKind",
    "UndefinedCorrelationError",
    "ValueVector",
    "Verdict",
    "analytic_game_value",
    "approximation_error_bound",
    "build_game",
    "build_mixture_reference",
    "build_uniform_reference",
    "compare",
    "confidence_delta",
    "criterion_margin_gt",
    "criterion_margin_mix",
    "gram_sum",
    "huber_mix",
    "huber_value_exact",
    "inversions",
    "kernel_eval",
    "l2_err",
    "l_inf_err",
    "median_heuristic",
    "mix_pmfs",
    "mixture_pmf",
    "mmd2_unbiased",
    "mmd_biased",
    "mmd_discrete",
    "pearson",
    "random_huber_population",
    "rank_vendors",
    "realized_pmf",
    "run",
    "run_convergence",
    "run_correlation",
    "run_game_verify",
    "run_incentive",
    "run_policy_soundness",
    "sample_huber",
    "summarize",
    "value_dataset",
    "value_distribution_exact",
    "verify_minmax",
    "write_curve_csvs",
    "write_rows_csv",
]
