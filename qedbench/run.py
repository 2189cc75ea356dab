"""qedet benchmark: one workload, one seed, one process.

    python3 qedbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Load model: closed loop, one client, one job in flight.
The workload's job list (a round) is generated from the seed and run round
after round while the timed job time stays within S seconds.  The first
round's outputs are checked outside the timed interval; every later round
must reproduce the first round's output digest.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced rounds, prints the per-layer metrics derived from the spans, and
writes the spans to qedbench/out/.  The last stdout line is the result
object; the line before it records the run environment and output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("combinatorial", "dense")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Times the imports in a fresh interpreter: argv is (src dir, benchmark dir).
IMPORT_PROBE = """import sys, time
t = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import numpy, qedet, spans, workloads
print(time.perf_counter() - t)
"""

# (name, unit) of every end-to-end metric, in output order.
E2E = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("success_share", "share"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    return ap.parse_args(argv)


def pin_blas_threads() -> dict:
    """One BLAS thread: one job is in flight and no matrix is larger than
    64 x 64, so a second thread only spins on another core.  Returns the
    record of CPUs and settings."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {"nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ[var] for var in BLAS_VARS}}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_import_s(src: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Batch:
    """Runs rounds of jobs and keeps latencies, failures and digests.

    Before each job the process moves to the next CPU it may use, and every
    job visits each CPU in turn over the rounds.  On a shared host each
    CPU's speed drifts between a fast and a slow state (up to 1.4x apart)
    for seconds at a time, independently of the other CPUs; a process that
    stays on one CPU measures that CPU's state.  On a 2-CPU VM rotating cut
    the spread of repeated 4-5 s spin-loop means by about half.  One job is
    still in flight at a time.
    """

    def __init__(self, jobs, cpus: list[int]) -> None:
        self.jobs = jobs
        self.cpus = cpus
        self.reference: list[str] | None = None  # first round's job digests
        self.bad: list[bool] = []                # first round's check result
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def run_round(self, tracer, round_index: int) -> list[float]:
        latencies = []
        digests, bad = [], []
        for j, job in enumerate(self.jobs):
            if len(self.cpus) > 1:
                cpu = self.cpus[(j + round_index) % len(self.cpus)]
                os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            try:
                with tracer.job(round_index * len(self.jobs) + j):
                    out = job.run(tracer)
                error = None
            except Exception as exc:  # a failed job is counted; the run goes on
                error = f"{job.label}: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)

            self.attempted += 1
            if error is not None:
                digests.append("error")
                problems = [error]
            else:
                digests.append(job.digest(out))
                if self.reference is None:
                    problems = [f"{job.label}: {p}" for p in job.check(out)]
                elif digests[-1] != self.reference[j]:
                    problems = [f"{job.label}: output differs from round 0"]
                else:
                    problems = []
            self.problems.extend(problems)
            bad.append(bool(problems))
            # A later round that reproduces a failed first round fails too.
            if problems or (self.reference is not None and self.bad[j]):
                self.failed += 1
        if self.reference is None:
            self.reference, self.bad = digests, bad
        return latencies

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.reference).encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_blas_threads()

    src = ROOT / "src"
    if not (src / "qedet" / "__init__.py").is_file():
        print(f"error: no qedet sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy as np
    import qedet
    import spans
    import workloads
    imports = [time.perf_counter() - t_import]
    if Path(qedet.__file__).resolve().parent != src / "qedet":
        print(f"error: imported qedet from {qedet.__file__}, not {src}",
              file=sys.stderr)
        return 2

    # Set-up is measured SETUP_REPEATS times and reported as a median; the
    # import is repeated in fresh interpreters.
    imports += [child_import_s(src) for _ in range(SETUP_REPEATS - 1)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs, warmups = workloads.build(args.workload, args.seed, args.tiny)
        for job in warmups:
            job.run(spans.NullTracer())
        setups.append(time.perf_counter() - t0)

    cpus = sorted(os.sched_getaffinity(0))
    batch = Batch(jobs, cpus)
    untraced: list[list[float]] = []   # job latencies of each untraced round
    traced: list[float] = []           # job time of each traced round
    tracer = spans.Tracer()
    busy = last = 0.0
    r = 0
    # Stop before a round that would end past the time budget, but finish
    # any untraced/traced pair.
    while r == 0 or busy + last <= args.seconds \
            or (args.trace and len(untraced) != len(traced)):
        # With tracing, rounds alternate untraced/traced, and the order
        # within a pair alternates so neither side always runs warmer.
        use_trace = bool(args.trace) and (r % 2) != ((r // 2) % 2)
        lat = batch.run_round(tracer if use_trace else spans.NullTracer(), r)
        if use_trace:
            traced.append(sum(lat))
        else:
            untraced.append(lat)
        last = sum(lat)
        busy += last
        r += 1
    os.sched_setaffinity(0, cpus)

    latencies = [x for lat in untraced for x in lat]
    # Percentiles are taken within each round, over its fixed job mix, and
    # averaged over rounds: a given rank is then always a job of about the
    # same cost, where a pooled percentile would land on the fast or slow
    # edge of one shape's group and move with the round count.
    p50s = [percentile(lat, 0.5) for lat in untraced]
    p90s = [percentile(lat, 0.9) for lat in untraced]
    by_label: dict[str, list[float]] = {}
    for lat in untraced:
        for job, x in zip(jobs, lat):
            by_label.setdefault(job.label, []).append(x)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": batch.digest, "jobs_per_round": len(jobs), "rounds": r,
        "round_s": [round(sum(lat), 4) for lat in untraced],
        "jobs_timed": len(latencies),
        "jobs_beyond_p90": sum(x > p90 for lat, p90 in zip(untraced, p90s)
                               for x in lat),
        "job_ms_by_label": {label: round(1e3 * statistics.median(xs), 3)
                            for label, xs in sorted(by_label.items())},
        "problems": batch.problems[:20],
        "env": {**env, "python": platform.python_version(),
                "numpy": np.__version__, "machine": platform.machine(),
                "cpu_rotation": cpus,
                "git_commit": git_commit()},
    }
    if args.trace:
        base = sum(sum(lat) for lat in untraced)
        metrics = spans.layer_metrics(tracer.spans, len(traced),
                                      (sum(traced) - base) / base)
        info["layer_share"] = spans.layer_shares(
            tracer.spans, lambda job_id: jobs[job_id % len(jobs)].kind)
        info["computed_metrics"] = spans.COMPUTED
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, info)
        info["spans_file"] = str(out.relative_to(ROOT))
        units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_ms": 1e3 * statistics.fmean(p50s),
            "job_p90_ms": 1e3 * statistics.fmean(p90s),
            "success_share": 1 - batch.failed / batch.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(E2E)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
