"""The benchmark's own job checks, run in-process on the library.

qedbench checks every job of its first round (for closed-form jobs: the
float sweep against the exact rationals to a relative 1e-9, and the moment
form against the polynomial).  Running those checks here makes a library
change that breaks them fail the test suite, not only a benchmark run.
"""

from __future__ import annotations

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
