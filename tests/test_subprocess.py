import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import qvr
from qvr.model import ModelError, SubprocessModel

ECHO_CHILD = textwrap.dedent("""
    import json, sys
    log = open(sys.argv[1], "a") if len(sys.argv) > 1 else None
    for line in sys.stdin:
        msg = json.loads(line)
        if log:
            log.write(line)
            log.flush()
        y = sum(v * v for v in msg["x"])
        print(json.dumps({"id": msg["id"], "y": y}), flush=True)
""")

REVERSED_CHILD = textwrap.dedent("""
    import json, sys
    buf = []
    for line in sys.stdin:
        buf.append(json.loads(line))
        if len(buf) == 2:
            for msg in reversed(buf):
                y = sum(v * v for v in msg["x"])
                print(json.dumps({"id": msg["id"], "y": y}), flush=True)
            buf = []
""")

ERROR_CHILD = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        msg = json.loads(line)
        print(json.dumps({"id": msg["id"], "error": "boom"}), flush=True)
""")

MALFORMED_CHILD = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        print("not json", flush=True)
""")


def child(tmp_path, code, name, *args):
    path = tmp_path / name
    path.write_text(code)
    return [sys.executable, str(path), *[str(a) for a in args]]


def test_basic_roundtrip(tmp_path):
    with SubprocessModel(child(tmp_path, ECHO_CHILD, "echo.py")) as m:
        out = m(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert np.allclose(out, [5.0, 9.0])


def test_out_of_order_responses(tmp_path):
    cmd = child(tmp_path, REVERSED_CHILD, "rev.py")
    with SubprocessModel(cmd, batch_size=2) as m:
        out = m(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert np.allclose(out, [1.0, 4.0, 9.0, 16.0])


def test_caching_never_repays_for_a_point(tmp_path):
    log = tmp_path / "log.txt"
    cmd = child(tmp_path, ECHO_CHILD, "echo.py", log)
    with SubprocessModel(cmd) as m:
        m(np.array([[1.5], [2.5]]))
        m(np.array([[1.5], [2.5], [1.5]]))
        m(np.array([[3.5]]))
    # no point is served from memory: every row is sent, in row order
    msgs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(msg["id"], msg["x"]) for msg in msgs] == list(enumerate(
        [[1.5], [2.5], [1.5], [2.5], [1.5], [3.5]]))


def test_empty_batch_starts_no_simulator(tmp_path):
    with SubprocessModel(child(tmp_path, ECHO_CHILD, "echo.py")) as m:
        out = m(np.empty((0, 2)))
        assert out.shape == (0,) and m._proc is None


def test_error_response_is_hard_error(tmp_path):
    with SubprocessModel(child(tmp_path, ERROR_CHILD, "err.py")) as m:
        with pytest.raises(ModelError, match="boom"):
            m(np.array([[1.0]]))


def test_malformed_response_is_hard_error(tmp_path):
    with SubprocessModel(child(tmp_path, MALFORMED_CHILD, "bad.py")) as m:
        with pytest.raises(ModelError, match="malformed"):
            m(np.array([[1.0]]))


TEMPLATE_CHILD = textwrap.dedent("""
    import json, sys
    forms = sys.argv[1:]
    for k, line in enumerate(sys.stdin):
        sys.stdout.write(forms[k % len(forms)] % json.loads(line)["id"] + "\\n")
        sys.stdout.flush()
""")


def test_replies_in_any_json_form(tmp_path):
    forms = ['{"y": 2.5, "id": %d}', '{"id":%d,"y":3}', '{"id": %d, "y": NaN}\r',
             '{"id": %d, "y": -1E+5}', '{"id": %d, "y": 1e400}']
    cmd = child(tmp_path, TEMPLATE_CHILD, "forms.py", *forms)
    with SubprocessModel(cmd, batch_size=5) as m:
        out = m(np.arange(10.0)[:, None])
    assert np.array_equal(out, [2.5, 3.0, np.nan, -1e5, np.inf] * 2,
                          equal_nan=True)


@pytest.mark.parametrize("form, message", [
    ('{"id": 7%d, "y": 1.5}', "never requested"),
    ('{"id": %d, "y": "1.5"}', "without numeric 'y'"),
    ('{"id": %d}', "without numeric 'y'"),
    ('{"id": %d, "y": 1.5', "malformed"),
])
def test_bad_reply_is_hard_error(tmp_path, form, message):
    cmd = child(tmp_path, TEMPLATE_CHILD, "bad.py", form)
    with SubprocessModel(cmd) as m:
        with pytest.raises(ModelError, match=message):
            m(np.array([[1.0]]))


def test_dead_child_reports_model_error(tmp_path):
    cmd = [sys.executable, "-c", "import sys; sys.exit(0)"]
    with SubprocessModel(cmd, timeout=5) as m:
        with pytest.raises(ModelError):
            m(np.array([[1.0]]))


def test_batch_size_validation():
    with pytest.raises(ValueError):
        SubprocessModel(["true"], batch_size=0)


def test_timeout_validation():
    for timeout in (0, -1.0):
        with pytest.raises(ValueError):
            SubprocessModel(["true"], timeout=timeout)


RAW_LOG_CHILD = textwrap.dedent("""
    import json, sys
    with open(sys.argv[1], "ab") as log:
        for line in sys.stdin.buffer:
            log.write(line)
            log.flush()
            msg = json.loads(line)
            print(json.dumps({"id": msg["id"], "y": 0.0}), flush=True)
""")


def test_request_lines_are_json_dumps_bytes(tmp_path):
    log = tmp_path / "log.bin"
    cmd = child(tmp_path, RAW_LOG_CHILD, "raw.py", log)
    values = [-0.0, 5e-324, 1e300, 0.1, 2.0, np.nan, np.inf, -np.inf]
    # batch_size 2 puts the finite pairs and the non-finite ones in
    # separate windows, so both ways of writing a window are checked.
    x = np.array(values).reshape(-1, 2)
    with SubprocessModel(cmd, batch_size=2) as m:
        m(x)
    want = "".join(json.dumps({"id": i, "x": [float(v) for v in row]}) + "\n"
                   for i, row in enumerate(x)).encode()
    assert log.read_bytes() == want


FAIL_THEN_STALE_CHILD = textwrap.dedent("""
    import json, sys, time
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["x"][0] < 0:
            print(json.dumps({"id": msg["id"], "error": "negative"}), flush=True)
            time.sleep(0.2)
        else:
            print(json.dumps({"id": msg["id"], "y": msg["x"][0] ** 2}),
                  flush=True)
""")


def test_model_error_replaces_the_child(tmp_path):
    # The reply to 1.0 arrives after the error; a reused child would hand
    # it to the next call as a reply to an id that call never sent.
    cmd = child(tmp_path, FAIL_THEN_STALE_CHILD, "fail.py")
    with SubprocessModel(cmd, batch_size=2) as m:
        with pytest.raises(ModelError, match="negative"):
            m(np.array([[-1.0], [1.0]]))
        assert m._proc is None
        assert np.allclose(m(np.array([[2.0], [3.0]])), [4.0, 9.0])


def test_close_reaps_the_child(tmp_path):
    m = SubprocessModel(child(tmp_path, ECHO_CHILD, "echo.py"))
    m(np.array([[1.0]]))
    proc = m._proc
    m.close()
    assert proc.returncode is not None and m._proc is None


ORPHANING_CHILD = textwrap.dedent("""
    import os, subprocess, sys
    # A grandchild that holds this child's output open and outlives it.
    keep = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(30)"])
    with open(sys.argv[1] + ".tmp", "w") as fh:
        fh.write(str(keep.pid))
    os.rename(sys.argv[1] + ".tmp", sys.argv[1])
    for line in sys.stdin:
        pass
""")


def test_close_sees_an_exit_while_the_output_stays_open(tmp_path):
    pidfile = tmp_path / "grandchild.pid"
    m = SubprocessModel(child(tmp_path, ORPHANING_CHILD, "orphaning.py",
                              pidfile))
    proc = m._ensure_proc()
    deadline = time.monotonic() + 30
    while not pidfile.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        start = time.monotonic()
        m.close()
        elapsed = time.monotonic() - start
    finally:
        os.kill(int(pidfile.read_text()), signal.SIGKILL)
    assert proc.returncode == 0 and m._proc is None
    assert elapsed < 2  # not the 5 s deadline


SLOW_CHILD = textwrap.dedent("""
    import json, sys, time
    for line in sys.stdin:
        time.sleep(0.2)
        msg = json.loads(line)
        print(json.dumps({"id": msg["id"], "y": msg["x"][0]}), flush=True)
""")


def test_timeout_counts_from_the_last_reply(tmp_path):
    # Five replies 0.2 s apart take longer than the timeout in total.
    cmd = child(tmp_path, SLOW_CHILD, "slow.py")
    with SubprocessModel(cmd, batch_size=1, timeout=0.6) as m:
        assert np.allclose(m(np.arange(5.0)[:, None]), np.arange(5.0))


GUARDED_CALL = textwrap.dedent("""
    import sys, time
    import numpy as np
    from qvr.model import ModelError, SubprocessModel
    # 20000 requests in flight fill both pipes: an echo child blocks on its
    # replies and stops reading while requests are still being written.
    x = np.random.default_rng(0).standard_normal((20000, 8))
    m = SubprocessModel([sys.executable, sys.argv[1]], batch_size=20000,
                        timeout=float(sys.argv[2]))
    proc = m._ensure_proc()
    start = time.perf_counter()
    try:
        y = m(x)
    except ModelError:
        print("ModelError", time.perf_counter() - start,
              proc.returncode is not None and m._proc is None)
    else:
        err = np.max(np.abs(y - (x * x).sum(axis=1)) / (x * x).sum(axis=1))
        print("ok", time.perf_counter() - start, err)
    m.close()
""")


def guarded_call(tmp_path, code, timeout):
    """One 20000-point adapter call in a child interpreter, so that a hang
    fails the test after 30 s instead of stalling the suite."""
    script = tmp_path / "guarded.py"
    script.write_text(GUARDED_CALL)
    env = dict(os.environ,
               PYTHONPATH=str(Path(qvr.__file__).resolve().parents[1]))
    sim = child(tmp_path, code, "sim.py")[1]
    done = subprocess.run(
        [sys.executable, str(script), sim, str(timeout)],
        capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    kind, elapsed, detail = done.stdout.split()
    return kind, float(elapsed), detail


def test_batch_larger_than_the_pipes_completes(tmp_path):
    kind, _, err = guarded_call(tmp_path, ECHO_CHILD, 60.0)
    assert kind == "ok"
    assert float(err) < 1e-12


@pytest.mark.parametrize("code", [
    "import sys\nfor line in sys.stdin:\n    pass\n",
    "import time\ntime.sleep(60)\n",
], ids=["reads-never-answers", "never-reads"])
def test_silent_child_fails_within_timeout(tmp_path, code):
    kind, elapsed, reaped = guarded_call(tmp_path, code, 1.0)
    assert kind == "ModelError"
    assert elapsed < 1.0 + 1.0
    assert reaped == "True"


TOY1D_SIM = Path(__file__).resolve().parents[1] / "tools" / "toy1d_sim.py"

EXTERNAL_CALLS = textwrap.dedent("""
    import sys
    from qvr.bench import (ExperimentConfig, estimate_with_bootstrap,
                           run_replications)
    cmd = f'"{sys.executable}" "{sys.argv[1]}"'
    config = ExperimentConfig.from_dict({
        "model": {"command": cmd + " f", "metamodel_command": cmd + " fr",
                  "input": [{"family": "normal", "mean": 0.0,
                             "stddev": 1.0}]},
        "estimator": "ee", "alpha": 0.95, "n": 50, "replications": 3,
        "seed": 0})
    run_replications(config)
    estimate_with_bootstrap(config, B=100)
""")


def test_external_model_calls_close_their_simulators(tmp_path, monkeypatch):
    models, procs = [], []

    class Tracked(SubprocessModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

        def _ensure_proc(self):
            procs.append(super()._ensure_proc())
            return procs[-1]

    # subprocess_pair builds f's simulator, ExperimentConfig.build_pair f_r's
    for module in (qvr.model, qvr.bench):
        monkeypatch.setattr(module, "SubprocessModel", Tracked)
    script = tmp_path / "calls.py"
    script.write_text(EXTERNAL_CALLS)
    monkeypatch.setattr(sys, "argv", [str(script), str(TOY1D_SIM)])
    exec(compile(EXTERNAL_CALLS, str(script), "exec"), {})
    assert len(models) == 4 and procs  # f and f_r, twice; ee calls no f_r
    assert all(m._proc is None for m in models)
    assert all(p.returncode is not None for p in procs)
    # No simulator outlives its call, so no pipe or child is left for the
    # interpreter to warn about at exit.
    env = dict(os.environ,
               PYTHONPATH=str(Path(qvr.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", str(script),
         str(TOY1D_SIM)], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
