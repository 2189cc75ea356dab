"""Seeded Monte Carlo simulation of the detection protocol.

A trial sends a uniform state v of the stabilized subspace, hits it with an
i.i.d. depolarizing error (w = E v), Born-measures against (P, I - P), and
classifies the outcome.  Both protocols read one overlap, |<v, post>|^2 =
|<v, w>|^2 / <w|P|w> for post = Pw / |Pw| (P v = v and P is Hermitian): the
stabilizer protocol checks it for collinearity, and the "nonstabilizer"
protocol's second measurement, against (vv*, P - vv*), is the Born draw
whose first outcome has that overlap as its probability.

Trials run in chunks of `_CHUNK`.  A chunk draws, in this order, a block of
states (2K consecutive normals each, read as K complex coordinates against
the range basis L of P from `oracle._range_basis`, as every subspace state
of the oracle is drawn), a block of one error per state, a block of
uniforms u1 for the first measurement and, for the nonstabilizer protocol
only, a block of uniforms u2 for the second (one per trial, used or not),
and decides every trial of the chunk from K code-space coordinates: for
v = L u and a = L^dag w (`oracle._error_images`), <w|P|w> = ||a||^2 and,
as L^dag L = I, <v, w> = <u, a>; the overlap is |<u, a>|^2/||a||^2.

Randomness comes from numpy's PCG64; a run draws from
SeedSequence(seed, spawn_key=(0,)) (`oracle._seeded_rng`).  Reports are
bit-for-bit reproducible for a fixed (seed, trials).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .gf4 import AdditiveCode
from .oracle import (_CHUNK, DEFAULT_ORACLE_CAP, _check_p, _error_images,
                     _hadamard, _range_basis, _sample_errors, _seeded_rng,
                     _sphere_batch, code_projector)

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


def _born_first(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether each Born draw between two outcomes of probabilities
    (pr, 1 - pr) takes the first: the uniform u lies below pr, or float slack
    leaves u above pr + (1 - pr) and the first outcome is the more likely."""
    return (u < probs) | ((u >= probs + (1 - probs)) & (probs >= 1 - probs))


def simulate(code: AdditiveCode, p: float, trials: int,
             protocol: str = "stabilizer", seed: int = 0,
             cap: int = DEFAULT_ORACLE_CAP) -> SimReport:
    """Run the full transmission-and-measurement protocol and count outcomes."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_p(p)
    # Plain Python numbers, so that the report serializes.
    p, trials, seed = float(p), operator.index(trials), operator.index(seed)

    basis = _range_basis(code_projector(code, cap))

    undetected = detected = trivial = 0
    rng = _seeded_rng(seed)
    for done in range(0, trials, _CHUNK):
        c = min(_CHUNK, trials - done)
        u = _sphere_batch(c, basis.shape[1], rng)
        x, z = _sample_errors(code.n, p, rng, c)
        u1 = rng.random(c)
        u2 = rng.random(c) if protocol == "nonstabilizer" else None
        # a = L^dag w for w = E L u (E's global phase cancels below), and
        # <w|P|w> = ||a||^2; for a stabilizer code it is 0 or 1.
        a = _error_images(basis, _hadamard(code.n), u, x, z)
        prob_code = np.sum(np.abs(a) ** 2, axis=1)
        mixed = np.flatnonzero(np.minimum(prob_code, 1 - prob_code) > _BORN_TOL)
        if len(mixed):
            raise ValueError(
                f"first measurement is not deterministic "
                f"(probability {prob_code[mixed[0]]}); "
                f"not a stabilizer setup")

        # The Born draw against (P, I - P), from <w|P|w>.
        kept = _born_first(prob_code, u1)
        detected += c - int(np.count_nonzero(kept))
        # |<v, post>|^2 for post = Pw / sqrt(<w|P|w>), with <v, w> = <u, a>.
        overlap = (np.abs(np.sum(u[kept].conj() * a[kept], axis=1)) ** 2
                   / prob_code[kept])
        if protocol == "stabilizer":
            same = overlap > _COLLINEAR
        else:
            # The Born draw of post against (vv*, P - vv*).
            same = _born_first(overlap, u2[kept])
        hits = int(np.count_nonzero(same))
        trivial += hits
        undetected += len(same) - hits

    estimate = undetected / trials
    stderr = math.sqrt(estimate * (1 - estimate) / trials)
    return SimReport(protocol, p, trials, seed, estimate, stderr,
                     undetected, detected, trivial)
