"""Metamodel-assisted Monte Carlo variance reduction for quantile estimation.

Estimate quantiles of an expensive model's output with fewer full-model
evaluations by exploiting a cheap metamodel: control variates, controlled
stratification (fixed and adaptive allocation) and metamodel-selected
importance sampling, plus a replication harness for benchmarks.
"""

from .bench import (
    BootstrapReport,
    ConfigError,
    ExperimentConfig,
    ReplicationReport,
    bootstrap_std,
    emit_report,
    estimate_with_bootstrap,
    ground_truth_quantile,
    preset_configs,
    run_preset,
    run_replications,
)
from .estimators import (
    CorrelationReport,
    EstimatorError,
    PairedSample,
    WeightedCdf,
    correlation_report,
    cv_cdf,
    cv_cdf_general,
    cv_weights,
    draw_paired_sample,
    empirical_quantile,
    indicator_correlation,
    ps_cdf,
    quantile_from_weighted_cdf,
    weighted_cdf,
)
from .importance import (
    BiasedFamily,
    BiasedParams,
    CisNonConvergence,
    ImportanceError,
    WeightedSample,
    draw_weighted_sample,
    fit_biased_member,
    is_cdf,
    is_variance_estimate,
    lognormal_params_from_moments,
    moment_match,
    variance_optimal_params,
)
from .model import (
    InputDistribution,
    Lognormal,
    ModelError,
    ModelPair,
    Normal,
    SubprocessModel,
    builtin_model,
    identity1d,
    standard_normal_input,
    subprocess_pair,
    toy1d,
    toy2d,
)
from .sampling import (
    AllocationPlan,
    RngStream,
    SamplingError,
    StrataSpec,
    StratifiedSample,
    evaluate_full,
    expected_rejection_cost,
    metamodel_quantiles,
    sample_strata,
    strata_from_cutpoints,
)
from .strata import (
    AcsConfig,
    AcsResult,
    ConditionalProbs,
    StrataError,
    acs_quantile,
    cs_cdf,
    cs_quantile,
    cs_variance,
    conditional_probs,
    ocs_variance,
    optimal_allocation,
    ps_form_variance,
    two_strata_acs_factor,
)

__version__ = "0.1.0"
