"""The benchmark's own job checks, run in-process on the library.

qedbench checks every job of its first round (for closed-form jobs: the
float sweep against the exact rationals to a relative 1e-9, and the moment
form against the polynomial).  Running those checks here makes a library
change that breaks them fail the test suite, not only a benchmark run.
The round-0 output digests at seeds 1 and 31 are pinned as well, so a
change that moves any job's output fails here too.
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
# prints them.
ROUND0_DIGESTS = {
    "combinatorial": "610f24ce09d7390c3b38498189258cf7615d11ff28423088c60da1404fe3b8c2",
    "dense": "184aac66be2b4c68ac6576d36ea1bc05b88641079aae8593ce6a48fdeb675d12",
}


@pytest.mark.parametrize("workload", ROUND0_DIGESTS)
def test_round0_digest_at_seed_1(workload):
    jobs, _ = workloads.build(workload, 1)
    tracer = spans.NullTracer()
    text = "\n".join(job.digest(job.run(tracer)) for job in jobs)
    assert hashlib.sha256(text.encode()).hexdigest() == ROUND0_DIGESTS[workload]


# The same at seed 31, the held-out seed of paired benchmark runs.
ROUND0_DIGESTS_SEED_31 = {
    "combinatorial": "d78f81c16537fcf473668861bcf50c366760fbdda726078f173dc63494e09529",
    "dense": "af2655219e1ec1b5daac0c71fb115350cbb709ce395af7a49026dc530f27284e",
}


@pytest.mark.parametrize("workload", ROUND0_DIGESTS_SEED_31)
def test_round0_digest_at_seed_31(workload):
    jobs, _ = workloads.build(workload, 31)
    tracer = spans.NullTracer()
    text = "\n".join(job.digest(job.run(tracer)) for job in jobs)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == ROUND0_DIGESTS_SEED_31[workload])
