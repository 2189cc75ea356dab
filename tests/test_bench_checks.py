"""The benchmark's own job checks, run in-process on the library.

qedbench checks every job of its first round (for closed-form jobs: the
float sweep against the exact rationals to a relative 1e-9, and the moment
form against the polynomial).  Running those checks here makes a library
change that breaks them fail the test suite, not only a benchmark run.
The round-0 output digests at seeds 1 and 31 are pinned as well, so a
change that moves any job's output fails here too; those rounds run every
job's check first.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "qedbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload, tiny", [("combinatorial", False),
                                            ("dense", True)])
def test_benchmark_job_checks_pass(workload, tiny):
    jobs, _ = workloads.build(workload, 1, tiny=tiny)
    tracer = spans.NullTracer()
    for job in jobs:
        assert job.check(job.run(tracer)) == [], (job.kind, job.label)


# sha256 of the first round's job digests at seed 1, as qedbench/run.py
# prints them.  The dense digests date from the draw order in which each
# subspace state is 2K consecutive normals (real, imaginary pairs): the
# simulate jobs and the verify jobs' sampled checks read those states.
# Every dense verify job's `mc=` value is the closed form of the uniform
# functional, with stderr 0.
ROUND0_DIGESTS = {
    "combinatorial": "610f24ce09d7390c3b38498189258cf7615d11ff28423088c60da1404fe3b8c2",
    "dense": "987f48cd92989c3bbac4e633f8d239927da7c12fb932a2f976b9c47bb235951d",
}


def _round0_digest(workload: str, seed: int) -> str:
    """sha256 of the first round's job digests, after checking that every
    job passes its own check, so a pinned digest is never that of a
    failing output."""
    jobs, _ = workloads.build(workload, seed)
    tracer = spans.NullTracer()
    digests = []
    for job in jobs:
        out = job.run(tracer)
        assert job.check(out) == [], (job.kind, job.label)
        digests.append(job.digest(out))
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("workload", ROUND0_DIGESTS)
def test_round0_digest_at_seed_1(workload):
    assert _round0_digest(workload, 1) == ROUND0_DIGESTS[workload]


# The same at seed 31, the held-out seed of paired benchmark runs.
ROUND0_DIGESTS_SEED_31 = {
    "combinatorial": "d78f81c16537fcf473668861bcf50c366760fbdda726078f173dc63494e09529",
    "dense": "ca90f7d98745b44ce089f3013580bc4072b6f58e76c0e1833b994d11bbc1a58d",
}


@pytest.mark.parametrize("workload", ROUND0_DIGESTS_SEED_31)
def test_round0_digest_at_seed_31(workload):
    assert _round0_digest(workload, 31) == ROUND0_DIGESTS_SEED_31[workload]
