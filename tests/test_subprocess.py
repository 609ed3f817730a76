import json
import os
import subprocess
import sys
import textwrap
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
    lines = log.read_text().strip().splitlines()
    xs = sorted(json.loads(line)["x"][0] for line in lines)
    assert xs == [1.5, 2.5, 3.5]


def test_error_response_is_hard_error(tmp_path):
    with SubprocessModel(child(tmp_path, ERROR_CHILD, "err.py")) as m:
        with pytest.raises(ModelError, match="boom"):
            m(np.array([[1.0]]))


def test_malformed_response_is_hard_error(tmp_path):
    with SubprocessModel(child(tmp_path, MALFORMED_CHILD, "bad.py")) as m:
        with pytest.raises(ModelError, match="malformed"):
            m(np.array([[1.0]]))


def test_dead_child_reports_model_error(tmp_path):
    cmd = [sys.executable, "-c", "import sys; sys.exit(0)"]
    with SubprocessModel(cmd, timeout=5) as m:
        with pytest.raises(ModelError):
            m(np.array([[1.0]]))


def test_batch_size_validation():
    with pytest.raises(ValueError):
        SubprocessModel(["true"], batch_size=0)


BLOCKED_WRITE = textwrap.dedent("""
    import sys, time
    import numpy as np
    from qvr.model import ModelError, SubprocessModel
    x = np.random.default_rng(0).standard_normal((20000, 8))
    start = time.perf_counter()
    try:
        with SubprocessModel([sys.executable, sys.argv[1]], batch_size=20000,
                             timeout=2.0) as m:
            m(x)
    except ModelError:
        print("ModelError", time.perf_counter() - start)
""")


def test_write_blocked_on_full_pipes_times_out(tmp_path):
    # One 20000-point batch fills both pipes: the child blocks on its
    # replies and stops reading while the parent is still writing.  The
    # timeout must fire during that write.  A child interpreter keeps a
    # regression from hanging the suite.
    script = tmp_path / "blocked.py"
    script.write_text(BLOCKED_WRITE)
    env = dict(os.environ,
               PYTHONPATH=str(Path(qvr.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(script), child(tmp_path, ECHO_CHILD, "echo.py")[1]],
        capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    kind, elapsed = done.stdout.split()
    assert kind == "ModelError"
    assert float(elapsed) < 2.0 + 5.0
