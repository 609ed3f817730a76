"""Metamodel-assisted Monte Carlo variance reduction for quantile estimation.

Estimate quantiles of an expensive model's output with fewer full-model
evaluations by exploiting a cheap metamodel: control variates, controlled
stratification (fixed and adaptive allocation) and metamodel-selected
importance sampling, plus a replication harness for benchmarks.

This namespace holds the engine's API: runs and reports, models, streams
and error types.  The building blocks live in the modules that define them.
"""

from .bench import (
    ConfigError,
    ExperimentConfig,
    ReplicationReport,
    emit_report,
    estimate_with_bootstrap,
    ground_truth_quantile,
    preset_configs,
    run_preset,
    run_replications,
)
from .estimators import EstimatorError
from .importance import CisNonConvergence, ImportanceError
from .model import (
    InputDistribution,
    Lognormal,
    ModelError,
    ModelPair,
    Normal,
    SubprocessModel,
    builtin_model,
    identity1d,
    subprocess_pair,
    toy1d,
    toy2d,
)
from .sampling import RngStream, SamplingError
from .strata import StrataError

__version__ = "0.1.0"
