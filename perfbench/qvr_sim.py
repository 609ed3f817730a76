"""Stdlib-only NDJSON simulator for the external-sim workload.

Computes the toy2d model (role ``f``) or its metamodel (role ``fr``) for
requests ``{"id": ..., "x": [x1, x2]}`` read from stdin and answers
``{"id": ..., "y": ...}`` on stdout, the wire protocol of
``qvr.model.SubprocessModel``.

Every ``os.read`` that yields at least one complete request line counts as
one batch; all replies to a batch go out in one write.  On end of input the
process writes ``{"role", "requests", "batches"}`` to
``$QVR_SIM_STATS/<role>-<pid>.json`` when that variable is set.

Usage: python3 perfbench/qvr_sim.py f|fr
"""

import json
import math
import os
import sys


def toy2d_f(x1, x2):
    return (0.95 * abs(x1) * x1
            * (1 + 0.5 * math.cos(10 * x1) + 0.5 * math.cos(20 * x1))
            + 0.7 * x2 * (1 + 0.4 * math.cos(x2) + 0.3 * math.cos(14 * x2)))


def toy2d_fr(x1, x2):
    return abs(x1) * x1 + x2


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in ("f", "fr"):
        sys.exit("usage: qvr_sim.py f|fr")
    role = sys.argv[1]
    model = toy2d_f if role == "f" else toy2d_fr
    requests = batches = 0
    pending = b""
    out = sys.stdout.buffer
    while True:
        chunk = os.read(0, 1 << 16)
        if not chunk:
            break
        lines = (pending + chunk).split(b"\n")
        pending = lines.pop()
        replies = []
        for line in lines:
            if not line.strip():
                continue
            msg = json.loads(line)
            x1, x2 = msg["x"]
            replies.append(json.dumps({"id": msg["id"], "y": model(x1, x2)}))
        if replies:
            requests += len(replies)
            batches += 1
            out.write(("\n".join(replies) + "\n").encode())
            out.flush()
    stats_dir = os.environ.get("QVR_SIM_STATS")
    if stats_dir:
        path = os.path.join(stats_dir, f"{role}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"role": role, "requests": requests,
                       "batches": batches}, fh)


if __name__ == "__main__":
    main()
