"""Stdlib-only NDJSON simulator of the toy1d model, for the external gate of
``tools/gate_digests.py``.

Answers each request ``{"id": ..., "x": [t]}`` on stdin with
``{"id": ..., "y": ...}`` on stdout, the wire protocol of
``qvr.model.SubprocessModel``: role ``f`` computes toy1d's f, role ``fr``
its metamodel t**2.

Usage: python tools/toy1d_sim.py f|fr
"""

import json
import math
import sys


def toy1d_f(t):
    return 0.95 * t**2 * (1 + 0.5 * math.cos(10 * t) + 0.5 * math.cos(20 * t))


def toy1d_fr(t):
    return t**2


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in ("f", "fr"):
        sys.exit("usage: toy1d_sim.py f|fr")
    model = toy1d_f if sys.argv[1] == "f" else toy1d_fr
    for line in sys.stdin:
        msg = json.loads(line)
        sys.stdout.write(json.dumps({"id": msg["id"], "y": model(msg["x"][0])})
                         + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
