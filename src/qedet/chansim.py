"""Seeded Monte Carlo simulation of the detection protocol.

Per trial: draw a uniform state v of the stabilized subspace, hit it with an
i.i.d. depolarizing error (w = E v), Born-measure against (P, I - P), and
classify the outcome.  Both protocols read one overlap, |<v, post>|^2 =
|<v, w>|^2 / <w|P|w> for post = Pw / |Pw| (P v = v and P is Hermitian): the
stabilizer protocol checks it for collinearity, and the "nonstabilizer"
protocol's second measurement, against (vv*, P - vv*), is the Born draw
whose first outcome has that overlap as its probability.

Randomness comes from numpy's PCG64; shard s of a run draws from
SeedSequence(seed, spawn_key=(s,)).  Reports are bit-for-bit reproducible
for a fixed (seed, trials, shard count), whether or not shards are ever run
in parallel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gf4 import AdditiveCode
from .oracle import (DEFAULT_ORACLE_CAP, _check_p, _hadamard, _sample_errors,
                     _shard_rng, _split, code_projector, uniform_state)

PROTOCOLS = ("stabilizer", "nonstabilizer")

# |<z, v>|^2 above this counts as "the same state"; collinearity is exact in
# theory and only float noise away from it in practice.
_COLLINEAR = 1 - 1e-9

_BORN_TOL = 1e-9


@dataclass(frozen=True)
class SimReport:
    protocol: str
    p: float
    trials: int
    seed: int
    shards: int
    estimate: float
    stderr: float
    undetected_count: int
    detected_count: int
    trivial_count: int

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "shards": self.shards,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "counts": {
                "undetected": self.undetected_count,
                "detected": self.detected_count,
                "trivial": self.trivial_count,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _born_index(probs, u: float) -> int:
    """The first outcome whose cumulative probability exceeds the uniform
    draw u; the most likely outcome if float slack leaves u above them all."""
    acc = 0.0
    for i, pr in enumerate(probs):
        acc += pr
        if u < acc:
            return i
    return max(range(len(probs)), key=probs.__getitem__)


def simulate(code: AdditiveCode, p: float, trials: int,
             protocol: str = "stabilizer", seed: int = 0, shards: int = 1,
             cap: int = DEFAULT_ORACLE_CAP) -> SimReport:
    """Run the full transmission-and-measurement protocol and count outcomes."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if shards < 1:
        raise ValueError("shards must be positive")
    _check_p(p)

    p_op = code_projector(code, cap)
    hadamard = _hadamard(code.n)
    k = np.arange(len(p_op))

    undetected = detected = trivial = 0
    for shard, m in enumerate(_split(trials, shards)):
        if m == 0:
            continue
        rng = _shard_rng(seed, shard)
        for _ in range(m):
            v = uniform_state(p_op, rng)
            (x,), (z,) = _sample_errors(code.n, p, rng, 1)
            # E|k> = i^|x&z| (-1)^|k&z| |k^x>, as in oracle._pauli_action;
            # the global phase cancels in both overlaps below and is dropped.
            w = (hadamard[z] * v)[k ^ x]

            # For a stabilizer code the first measurement never splits.
            prob_code = float(np.real(np.vdot(w, p_op @ w)))
            if min(prob_code, 1 - prob_code) > _BORN_TOL:
                raise ValueError(
                    f"first measurement is not deterministic "
                    f"(probability {prob_code}); not a stabilizer setup")

            # The Born draw against (P, I - P), from <w|P|w>.
            if _born_index((prob_code, 1 - prob_code), rng.random()) == 1:
                detected += 1
                continue
            # |<v, post>|^2 for post = Pw / sqrt(<w|P|w>).
            overlap = abs(np.vdot(v, w)) ** 2 / prob_code
            if protocol == "stabilizer":
                same = overlap > _COLLINEAR
            else:
                # The Born draw of post against (vv*, P - vv*).
                same = _born_index((overlap, 1 - overlap), rng.random()) == 0
            if same:
                trivial += 1
            else:
                undetected += 1

    estimate = undetected / trials
    stderr = math.sqrt(estimate * (1 - estimate) / trials)
    return SimReport(protocol, p, trials, seed, shards, estimate, stderr,
                     undetected, detected, trivial)
