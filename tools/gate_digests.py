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
  ``qvr bench`` does for a preset;
- ``qvr diag variance|allocation|cost`` stdout, stderr and exit code on
  toy1d and toy2d, with a cs config (n=200, alpha 0.95, seed 0, default
  params) and the default ``--samples``;
- the stdout of each demo, ``demos/01_*.py`` to ``demos/04_*.py``.

Every command runs in this process through click's test runner, with qvr
imported from ``src/`` next to this directory; each demo runs as a child
interpreter with ``PYTHONPATH`` set to that ``src/``.  Run from anywhere:

    python tools/gate_digests.py                 # print "<gate> <sha256>"
    python tools/gate_digests.py --check tools/gate_digests.txt

``--check`` exits 1 when any digest differs from the file, or a gate is
missing from either side.  The digests in ``tools/gate_digests.txt`` were
taken on one host (x86-64 with AVX-512, Python 3.11.7, numpy 2.4.6,
OpenBLAS); another CPU or BLAS build can move last bits, so compare two
commits on the same host.  No gate runs scipy.  The cis gates depend on
numpy's LAPACK ``eigh`` in the joint-Gaussian member and on the BLAS
product ``chol @ buf`` that maps a block's draws of that member (one
product over every stream's columns), and every toy1d gate on the
standard library's normal quantile (``statistics.NormalDist().inv_cdf``);
the Nelder-Mead fit is qvr's own code.
``--check`` took 15-20 s on a shared 2-core x86-64 host (three runs), of
which the four demos took about 4 s and the external cs gate about 8 s;
the toy2d estimate gates of ps, cs and acs at one seed share one mc strata
pass (see ``qvr.sampling.metamodel_quantiles``).
"""

from __future__ import annotations

import argparse
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

from qvr import bench  # noqa: E402
from qvr.cli import main as qvr  # noqa: E402

ESTIMATORS = ("ee", "cv", "ps", "cs", "acs", "cis")
MODELS = ("toy1d", "toy2d")
DIAG_TOPICS = ("variance", "allocation", "cost")
SEEDS = range(5)
# Fixed text: the report embeds the config, so the command must not depend
# on where the interpreter or the repository lies.
SIM_COMMAND = 'exec "$QVR_GATE_PYTHON" "$QVR_GATE_SIM" {role}'


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
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
    for est in ("ee", "cs"):
        out[f"external/toy1d/{est}"] = _sha(external_report(est))
    for demo in sorted((ROOT / "demos").glob("0[1-4]_*.py")):
        out[f"demo/{demo.name[:2]}"] = _sha(demo_stdout(demo))
    return out


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE",
                    help="compare against a digest file; exit 1 on any "
                         "difference")
    args = ap.parse_args()
    got = digests()
    if not args.check:
        for name, digest in got.items():
            print(name, digest)
        return 0
    want = dict(line.split() for line in
                Path(args.check).read_text().splitlines() if line.strip())
    bad = 0
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            bad += 1
            print(f"DIFF {name}: want {want.get(name)} got {got.get(name)}")
    print(f"{bad} of {len(want.keys() | got.keys())} gates differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
