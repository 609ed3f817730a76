"""Command-line interface: ground truth, single estimates, benchmark
presets and closed-form diagnostics.

Exit codes, the same for every command: 0 success, 2 configuration error,
3 estimator non-convergence, 4 model or subprocess failure.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from . import bench, designs, estimators, strata
from .bench import ConfigError, ExperimentConfig
from .designs import NON_CONVERGENCE_ERRORS
from .model import ModelError, builtin_model
from .sampling import RngStream, StratifiedSample, expected_rejection_cost

EXIT_CONFIG = 2
EXIT_NON_CONVERGENCE = 3
EXIT_MODEL = 4


@contextlib.contextmanager
def _exit_codes():
    """Print a library failure raised in the block as "error: ..." on
    stderr and exit with its code."""
    try:
        yield
    except NON_CONVERGENCE_ERRORS as e:
        code, message = EXIT_NON_CONVERGENCE, str(e)
    except ModelError as e:
        code, message = EXIT_MODEL, str(e)
    except (ConfigError, ValueError) as e:
        code, message = EXIT_CONFIG, str(e)
    else:
        return
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _load_config(path: str) -> ExperimentConfig:
    """Parse a JSON config file; ``NaN`` and ``±Infinity``, which Python's
    json accepts but JSON does not, are refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_refuse_constant)
    except (OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return ExperimentConfig.from_dict(raw)


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Metamodel-assisted variance reduction for quantile estimation."""


@main.command()
@click.option("--model", required=True, help="Builtin model name.")
@click.option("--alpha", type=float, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def truth(model, alpha, samples, seed):
    """Plain Monte Carlo reference quantile of the full model output."""
    with _exit_codes():
        if not 0 < alpha < 1:
            raise ConfigError("alpha must be in (0, 1)")
        value = bench.ground_truth_quantile(builtin_model(model), alpha,
                                            samples, RngStream(seed))
    _emit({"model": model, "alpha": alpha, "samples": samples,
           "quantile": value}, None)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=False))
@click.option("--bootstrap", "resamples", type=int, default=500,
              show_default=True)
def estimate(config_path, resamples):
    """One estimator run with a bootstrap standard error."""
    with _exit_codes():
        config = _load_config(config_path)
        payload = bench.estimate_with_bootstrap(config, B=resamples)
    _emit(payload, config.output)


@main.command(name="bench")
@click.option("--preset", required=True,
              type=click.Choice(list(bench.PRESETS)))
@click.option("--reps", type=click.IntRange(min=1), default=None,
              help="Override the preset replication count.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
def bench_cmd(preset, reps, seed, out_path, fmt):
    """Run a benchmark preset and emit the replication report."""
    with _exit_codes():
        reports = bench.run_preset(preset, replications=reps, seed=seed)
    text = bench.emit_report(reports, fmt, out_path)
    if not out_path:
        click.echo(text, nl=False)


@main.command()
@click.argument("topic", type=click.Choice(["variance", "allocation", "cost"]))
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--samples", type=click.IntRange(min=10**4), default=10**5,
              show_default=True,
              help="Monte Carlo size for the conditional probabilities.")
def diag(topic, config_path, samples):
    """Closed-form variance, optimal-allocation and rejection-cost
    diagnostics for the configured strata."""
    with _exit_codes():
        config = _load_config(config_path)
        with bench._open_pair(config) as pair:
            spec = designs.spec_for(pair, config)
            # beta_star does not depend on the allocation
            plan = (designs.cs_plan(spec, config) if topic != "allocation"
                    else None)
            stream = RngStream(config.seed, (2**32, 9))
            s = estimators.draw_paired_sample(pair, stream, samples)
            y_alpha = estimators.empirical_quantile(s.y, config.alpha)
            by = [spec.stratum_of(s.z) == j for j in range(spec.m)]
            p = strata.conditional_probs(StratifiedSample(
                x=[s.x[b] for b in by], z=[s.z[b] for b in by],
                y=[s.y[b] for b in by]), spec, y_alpha)
            payload: dict = {
                "model": config.model, "alpha": config.alpha, "n": config.n,
                "cutpoints": [float(c) for c in spec.cutpoints],
                "p_hat": [float(v) for v in p.p_hat],
            }
            if topic == "variance":
                # z_alpha from the strata's own sample when alpha is a
                # cutpoint, not from a second one
                cuts = spec.cutpoints
                z_alpha = (spec.z_values[cuts.index(config.alpha)]
                           if config.alpha in cuts
                           else designs.z_alpha_for(pair, config))
                rho_i = estimators.indicator_correlation(s, y_alpha, z_alpha)
                F = float((s.y <= y_alpha).mean())
                payload.update({
                    "sigma2_ps": strata.ps_form_variance(p, spec) / config.n,
                    "sigma2_cs": strata.cs_variance(p, spec, plan),
                    "sigma2_ocs": strata.ocs_variance(p, spec) / config.n,
                    "rho_indicator": rho_i,
                })
                try:
                    K, ratio = strata.two_strata_acs_factor(config.alpha, F,
                                                            rho_i)
                    payload.update({"two_strata_K": K,
                                    "two_strata_ratio": ratio})
                except strata.StrataError as e:
                    payload["two_strata_K_error"] = str(e)
            elif topic == "allocation":
                beta = strata.optimal_allocation(p, spec)
                payload["beta_star"] = [float(b) for b in beta]
            else:
                expected, bound = expected_rejection_cost(spec, plan)
                payload.update({"expected_draws_naive": expected,
                                "uniform_bound": bound,
                                "allocation": list(plan.counts)})
    _emit(payload, config.output)


if __name__ == "__main__":
    main()
