"""Print the sha256 digest of every qvr byte gate, or check them.

The gates are the outputs that a change to qvr's speed or structure must
leave byte-identical:

- ``qvr bench --preset P --reps 200 --seed 0`` stdout, for each preset P
  of ``qvr.bench.PRESETS`` (fig1, table1, table2 and fig2);
- ``qvr estimate --bootstrap 500`` stdout, stderr and exit code for ee, cv,
  ps, cs, acs and cis on toy1d and toy2d at seeds 0-4 (n=2000, alpha 0.95,
  default params, one config file each);
- the JSON reports of 20 ee and 20 cs replications (n=200, alpha 0.95,
  seed 0, default params) on a config-dict external model whose f and f_r
  each run in ``toy1d_sim.py``, a child process behind
  ``qvr.model.SubprocessModel``.  The cs gate takes its metamodel
  quantiles from 10**6 f_r points through that child, as an external
  model has no closed form.  No command runs the replications of a config
  file, so these gates call ``run_replications`` and ``emit_report``, as
  ``qvr bench`` does for a preset.  The cs report's ``estimates`` and
  ``n_r_mean`` must also equal those of in-process toy1d cs on the same
  mc quantiles (toy1d without its closed form, run as a stand-in builtin
  model); the tool names each difference and exits 1.  On this config
  toy1d's closed form gives the same estimates too, so the tool also
  checks that the stand-in's strata edges are not toy1d's closed-form
  ones: at seed 0 the mc pass puts them at 0.45406 / 2.69690 / 3.83882
  against 0.45494 / 2.70554 / 3.84146;
- ``qvr diag variance|allocation|cost`` stdout, stderr and exit code on
  toy1d and toy2d, with a cs config (n=200, alpha 0.95, seed 0, default
  params) and the default ``--samples``;
- the stdout of each demo, ``demos/01_*.py`` to ``demos/04_*.py``.

Every command runs in this process through click's test runner, with qvr
imported from ``src/`` next to this directory; each demo runs as a child
interpreter with ``PYTHONPATH`` set to that ``src/``.  Run from anywhere:

    python tools/gate_digests.py                 # print "<gate> <sha256>"
    python tools/gate_digests.py --check tools/gate_digests.txt

``--check`` exits 1 when any digest differs from the file, a gate is
missing from either side, the external cs report differs from the
in-process one, or the in-process stand-in has toy1d's closed-form
strata.  The digests in ``tools/gate_digests.txt`` were
taken on one host (x86-64 with AVX-512, Python 3.11.7, numpy 2.4.6,
OpenBLAS); another CPU or BLAS build can move last bits, so compare two
commits on the same host.  No gate runs scipy.  The cis gates depend on
numpy's LAPACK ``eigh`` in the joint-Gaussian member and on the BLAS
product ``chol @ buf`` that maps a block's draws of that member (one
product over every stream's columns), and every toy1d gate on the
standard library's normal quantile (``statistics.NormalDist().inv_cdf``);
the Nelder-Mead fit is qvr's own code.
``--check`` took 15-20 s on a shared 2-core x86-64 host (three runs), of
which the four demos took about 4 s, the external cs gate about 8 s and
its in-process twin about 0.06 s;
the toy2d estimate gates of ps, cs and acs at one seed share one mc strata
pass (see ``qvr.sampling.metamodel_quantiles``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from qvr import bench, designs  # noqa: E402
from qvr.cli import main as qvr  # noqa: E402
from qvr.model import BUILTIN_MODELS, toy1d  # noqa: E402

ESTIMATORS = ("ee", "cv", "ps", "cs", "acs", "cis")
MODELS = ("toy1d", "toy2d")
DIAG_TOPICS = ("variance", "allocation", "cost")
SEEDS = range(5)
# Fixed text: the report embeds the config, so the command must not depend
# on where the interpreter or the repository lies.
SIM_COMMAND = 'exec "$QVR_GATE_PYTHON" "$QVR_GATE_SIM" {role}'


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> tuple[dict[str, str], list[str]]:
    """The digest of every gate, and the differences between the external
    cs report and the in-process one."""
    runner = CliRunner()
    out = {}
    for preset in bench.PRESETS:
        res = runner.invoke(qvr, ["bench", "--preset", preset,
                                   "--reps", "200", "--seed", "0"])
        if res.exit_code != 0:
            raise RuntimeError(f"bench {preset} exited {res.exit_code}: "
                               f"{res.stderr}")
        out[f"bench/{preset}"] = _sha(res.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        for model in MODELS:
            for est in ESTIMATORS:
                for seed in SEEDS:
                    path = Path(tmp) / f"{model}-{est}-{seed}.json"
                    path.write_text(json.dumps(dict(
                        model=model, estimator=est, alpha=0.95, n=2000,
                        replications=1, seed=seed)))
                    res = runner.invoke(qvr, ["estimate", "--config",
                                               str(path), "--bootstrap", "500"])
                    out[f"estimate/{model}/{est}/{seed}"] = _sha(
                        f"{res.exit_code}\n{res.stdout}\0{res.stderr}")
        for model in MODELS:
            path = Path(tmp) / f"{model}-diag.json"
            path.write_text(json.dumps(dict(
                model=model, estimator="cs", alpha=0.95, n=200,
                replications=1, seed=0)))
            for topic in DIAG_TOPICS:
                res = runner.invoke(qvr, ["diag", topic, "--config",
                                           str(path)])
                out[f"diag/{model}/{topic}"] = _sha(
                    f"{res.exit_code}\n{res.stdout}\0{res.stderr}")
    reports = {est: external_report(est) for est in ("ee", "cs")}
    for est, report in reports.items():
        out[f"external/toy1d/{est}"] = _sha(report)
    faults = in_process_differences(reports["cs"])
    for demo in sorted((ROOT / "demos").glob("0[1-4]_*.py")):
        out[f"demo/{demo.name[:2]}"] = _sha(demo_stdout(demo))
    return out, faults


def demo_stdout(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{demo.name} exited {res.returncode}: "
                           f"{res.stderr}")
    return res.stdout


def external_report(estimator: str) -> str:
    os.environ["QVR_GATE_PYTHON"] = sys.executable
    os.environ["QVR_GATE_SIM"] = str(Path(__file__).with_name("toy1d_sim.py"))
    config = bench.ExperimentConfig.from_dict({
        "model": {
            "command": SIM_COMMAND.format(role="f"),
            "metamodel_command": SIM_COMMAND.format(role="fr"),
            "input": [{"family": "normal", "mean": 0.0, "stddev": 1.0}],
        },
        "estimator": estimator, "alpha": 0.95, "n": 200, "replications": 20,
        "seed": 0,
    })
    return bench.emit_report(bench.run_replications(config), "json")


def in_process_differences(external_cs: str) -> list[str]:
    """One line for each field of the external cs report (``estimates``,
    ``n_r_mean``) that differs from a run of the same config in process,
    on toy1d with its metamodel quantiles taken by the mc pass, as the
    external model's are; and one if that stand-in's strata are toy1d's
    closed-form ones after all."""
    want = json.loads(external_cs)["cs"]
    BUILTIN_MODELS["toy1d-mc"] = lambda: dataclasses.replace(
        toy1d(), closed_form_z_quantile=None)
    config = bench.ExperimentConfig(model="toy1d-mc", estimator="cs",
                                    alpha=0.95, n=200, replications=20,
                                    seed=0)
    try:
        got = json.loads(bench.emit_report(bench.run_replications(config),
                                           "json"))["cs"]
        # The run has memoized the stand-in's pass: no new pass here.
        edges = designs.spec_for(config.build_pair(), config).z_values
    finally:
        del BUILTIN_MODELS["toy1d-mc"]
    faults = [f"DIFF external/toy1d/cs {key} against in-process toy1d cs: "
              f"{want.get(key)} != {got.get(key)}"
              for key in ("estimates", "n_r_mean")
              if want.get(key) != got.get(key)]
    if edges == designs.spec_for(toy1d(), config).z_values:
        faults.append("DIFF in-process toy1d cs: its strata edges are "
                      "toy1d's closed-form ones, not the mc pass's")
    return faults


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE",
                    help="compare against a digest file; exit 1 on any "
                         "difference")
    args = ap.parse_args()
    got, faults = digests()
    if not args.check:
        for name, digest in got.items():
            print(name, digest)
        for fault in faults:
            print(fault, file=sys.stderr)
        return 1 if faults else 0
    want = dict(line.split() for line in
                Path(args.check).read_text().splitlines() if line.strip())
    bad = 0
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            bad += 1
            print(f"DIFF {name}: want {want.get(name)} got {got.get(name)}")
    print(f"{bad} of {len(want.keys() | got.keys())} gates differ")
    for fault in faults:
        print(fault)
    print("in-process twin check failed" if faults
          else "external cs equals in-process toy1d cs")
    return 1 if bad or faults else 0


if __name__ == "__main__":
    sys.exit(main())
