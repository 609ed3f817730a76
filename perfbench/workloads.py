"""The benchmark's four workloads, expressed as calls into qvr's public API.

A workload is a list of groups; a group is a list of jobs and, for the
replication workloads, one ``emit_report`` of the group's reports, as
``qvr bench`` does for a preset.  One pass over every group is a *round*.
Each job's operation is one public call:

* ``reps`` jobs call ``qvr.bench.run_replications`` on one config with
  ``reps`` replications (the body of ``run_preset``);
* ``boot`` jobs call ``qvr.bench.estimate_with_bootstrap(config, B=500)``
  and deliver one estimate.

Every call goes through the module attribute (``bench.run_replications``),
so the traced run's wrappers see it.

Each call pays qvr's per-call preparation again: building the model pair,
for toy2d cv/cs/cis the 10^6-point Monte Carlo metamodel quantiles, for cis
the Nelder-Mead fit, for external models the simulator start.  ``qvr bench``
amortizes it over 10^4 replications (5000 for fig2), where it is at most 5%
of a config's time except for cis (30%).  ``REPLICATIONS`` is chosen to
match: enough replications per call that the preparation is at most about
5% of the call, capped at the ``qvr bench`` count.  Measured on a 2-core
x86 host, preparation (ms) / per replication (ms): toy1d configs 19 /
0.13-3.4, fig2 ee 38 / 0.17, cv 117 / 0.58, cs 120 / 0.45, cis 650 / 0.30,
external ee 110 / 7.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import qvr.model
from qvr import bench
from qvr.bench import ExperimentConfig

ALPHA = 0.95
BOOT_RESAMPLES = 500
BOOT_N = 2000
EXTERNAL_N = 200

# Replications per run_replications call, per preset and config label.
REPLICATIONS = {
    "fig1": {"ee": 2500, "cv": 1500, "cs": 400},
    "table2": {"ee": 2500, "cv": 1500, "acs3": 200},
    "fig2": {"ee": 4000, "cv": 4000, "cs": 5000, "cis": 5000},
    "table1": {"ee": 1000, "cv": 500, "acs2": 200, "acs3": 100},
    "external": {"ee": 300},
}


@dataclass(frozen=True)
class Job:
    """One estimator config of a workload.

    ``make(seed, reps)`` builds the config; ``reps`` is the replication count
    of one timed operation (1 for a bootstrap call).  ``model`` names the
    builtin model whose reference quantile the estimates must match.
    ``reference(seed, reps)`` builds the in-process config whose long
    replication run gives the expected mean of the estimates
    (``make_reference.py``); it defaults to ``make``.
    """

    label: str
    estimator: str
    n: int
    model: str
    kind: str
    reps: int
    make: Callable[[int, int], ExperimentConfig]
    reference: Callable[[int, int], ExperimentConfig] | None = None

    def reference_config(self, seed: int, reps: int) -> ExperimentConfig:
        return (self.reference or self.make)(seed, reps)


@dataclass(frozen=True)
class Group:
    name: str
    jobs: tuple[Job, ...]

    @property
    def emit(self) -> bool:
        """Replication groups end with an ``emit_report``, as ``qvr bench``."""
        return all(j.kind == "reps" for j in self.jobs)


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    digest_reps: int
    note: str = ""

    @property
    def jobs(self) -> tuple[Job, ...]:
        return tuple(j for g in self.groups for j in g.jobs)


def _preset_group(suite: str) -> Group:
    """Jobs for every config of a ``qvr bench`` preset."""
    configs = bench.preset_configs(suite, replications=1, seed=0)
    jobs = []
    for label, c in configs.items():
        def make(seed, r, suite=suite, label=label):
            return bench.preset_configs(suite, replications=r, seed=seed)[label]
        jobs.append(Job(label=f"{suite}/{label}", estimator=c.estimator,
                        n=c.n, model=c.model, kind="reps",
                        reps=REPLICATIONS[suite][label], make=make))
    return Group(name=suite, jobs=tuple(jobs))


def _boot_job(model: str, estimator: str) -> Job:
    def make(seed, r):
        return ExperimentConfig(model=model, estimator=estimator, alpha=ALPHA,
                                n=BOOT_N, replications=r, seed=seed)
    return Job(label=f"{model}/{estimator}", estimator=estimator, n=BOOT_N,
               model=model, kind="boot", reps=1, make=make)


# The simulator command is a fixed string so the report (which embeds the
# config) stays byte-stable; the interpreter comes from QVR_SIM_PYTHON.
SIM_COMMAND = 'exec "$QVR_SIM_PYTHON" perfbench/qvr_sim.py {role}'


def _external_job() -> Job:
    def make(seed, r):
        return ExperimentConfig.from_dict({
            "model": {
                "command": SIM_COMMAND.format(role="f"),
                "metamodel_command": SIM_COMMAND.format(role="fr"),
                "input": [{"family": "normal", "mean": 0.0, "stddev": 1.0}] * 2,
            },
            "estimator": "ee", "alpha": ALPHA, "n": EXTERNAL_N,
            "replications": r, "seed": seed,
        })
    def reference(seed, r):
        # The simulator computes toy2d's f on the same input law, so the
        # builtin model has the same expected estimate.
        return ExperimentConfig(model="toy2d", estimator="ee", alpha=ALPHA,
                                n=EXTERNAL_N, replications=r, seed=seed)

    return Job(label="external/ee", estimator="ee", n=EXTERNAL_N,
               model="toy2d", kind="reps",
               reps=REPLICATIONS["external"]["ee"], make=make,
               reference=reference)


WORKLOADS = {
    "rep-small": Workload("rep-small", (
        _preset_group("fig1"),
        _preset_group("table2"),
        _preset_group("fig2"),
    ), digest_reps=20),
    "rep-large": Workload("rep-large", (
        _preset_group("table1"),
    ), digest_reps=20),
    "estimate-boot": Workload("estimate-boot", (
        Group("boot", tuple(_boot_job("toy1d", e)
                            for e in ("ee", "cv", "ps", "cs", "acs"))
              + (_boot_job("toy2d", "cis"),)),
    ), digest_reps=1),
    "external-sim": Workload("external-sim", (
        Group("external", (_external_job(),)),
    ), digest_reps=5, note=(
        "designs other than ee are left out: a config-dict external model "
        "evaluates f_r through the pipe too, so their set-up sends 10^6 "
        "metamodel points to the simulator (cs, 10 reps, this simulator: "
        "52 s and 378 MB peak RSS)")),
}


class SimChildren:
    """Tracks every SubprocessModel qvr creates so each child is closed.

    ``run_replications`` builds its model pair internally and never closes
    it, so the benchmark swaps ``qvr.model.SubprocessModel`` for a subclass
    that records its instances.  ``close`` ends and reaps every child and
    returns the simulator counts they wrote on exit.
    """

    def __init__(self, stats_dir: str | None):
        self.stats_dir = stats_dir
        self.models: list = []
        base = qvr.model.SubprocessModel
        registry = self.models

        class Tracked(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                registry.append(self)

        self._base = base
        qvr.model.SubprocessModel = Tracked

    def close(self) -> dict:
        for m in self.models:
            proc = getattr(m, "_proc", None)
            m.close()
            if proc is not None:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
        self.models.clear()
        totals = {"requests": 0, "batches": 0}
        if self.stats_dir is None:
            return totals
        for name in sorted(os.listdir(self.stats_dir)):
            path = os.path.join(self.stats_dir, name)
            with open(path, encoding="utf-8") as fh:
                stats = json.load(fh)
            os.remove(path)
            totals["requests"] += stats["requests"]
            totals["batches"] += stats["batches"]
        return totals

    def uninstall(self):
        self.close()
        qvr.model.SubprocessModel = self._base


def run_job(job: Job, config: ExperimentConfig):
    """One public call; returns (result, estimates, failed replications).

    ``result`` is the ReplicationReport or the bootstrap payload dict; each
    estimate is a pair (value, bootstrap std or None).
    """
    if job.kind == "boot":
        payload = bench.estimate_with_bootstrap(config, B=BOOT_RESAMPLES)
        return payload, [(payload["estimate"], payload["bootstrap_std"])], 0
    report = bench.run_replications(config)
    return report, [(float(e), None) for e in report.estimates], len(report.errors)


def group_text(group: Group, results: dict) -> str:
    """Byte-stable serialization of one group's results.

    Replication groups use ``emit_report`` JSON, as ``qvr bench`` writes
    it; bootstrap payloads use the sorted-key JSON that ``qvr estimate``
    prints.
    """
    if group.emit:
        return bench.emit_report({j.label.split("/", 1)[1]: results[j.label]
                                  for j in group.jobs}, "json")
    return "".join(json.dumps(results[j.label], sort_keys=True, indent=2)
                   + "\n" for j in group.jobs)
