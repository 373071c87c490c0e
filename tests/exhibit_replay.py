"""Seeded sessions shaped like the benchmark's ``exhibit`` operation, with
every float written by ``float.hex``, and the fixture that pins them.

A session builds variant L at I = J = 4, N = 8 on the README headline's
phi (sparse, bursts=12, ratio=2), runs ``gap_exhibit`` on three targets,
computes ``rho_c(-c X_2)`` and decides eight memberships ``-c X_2 + m``
on alternating sides of ``m = c t_2``.  The fixture was written by the
library before its decision path moved to Python floats; running

    PYTHONPATH=src python tests/exhibit_replay.py

rewrites it from the library on the path.
"""

import json
import pathlib

import numpy as np

import orlicz_lab.counterexample as cex
from orlicz_lab.errors import NotAMember
from orlicz_lab.orlicz_functions import build_sparse_pair, sparse_schedule

FIXTURE = pathlib.Path(__file__).with_name("exhibit_replay.json")
SEEDS = range(16)
EPS = 1e-2


def hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def session(phi, seed: int) -> dict:
    rng = np.random.default_rng([2027, seed])
    a, b, c, d, e = rng.uniform(0.8, 1.25, 5).tolist()
    scale = float(rng.uniform(1.35, 2.6))
    ins = cex.build_instance(phi, 4, 4, 8)
    targets = [cex.Combo(ins, {("Z0",): a}),
               cex.Combo(ins, {("Y", 1): 0.5 * b, ("one",): 0.02 * e}),
               cex.Combo(ins, {("Y", 2): c, ("Z", 1, 1): 0.0004 * d})]
    report = cex.gap_exhibit(ins, targets, EPS)
    x = cex.Combo(ins, {("X", 2): -scale})
    t2 = ins.x_seq.blocks[1].height
    decisions = []
    for k in range(8):
        m = float(rng.uniform(1.1, 1.5) if k % 2 else rng.uniform(0.5, 0.9))
        m *= scale * t2
        try:
            cert = cex.membership(ins, cex.t_operator(ins, x + m))
            decisions.append([m, cert.lam, [[list(p), y] for p, y in cert.y]])
        except NotAMember as exc:
            decisions.append([m, exc.certificate])
    return hexed({"gap_exhibit": json.loads(json.dumps(report)),
                  "rho_c": [report["rho_minus_w0"],
                            report["approximants"][0]["rho"],
                            cex.rho_c(ins, x)],
                  "decisions": decisions})


def replay() -> list:
    phi = build_sparse_pair(sparse_schedule(bursts=12, ratio=2.0))
    return [session(phi, seed) for seed in SEEDS]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(replay(), sort_keys=True) + "\n")
