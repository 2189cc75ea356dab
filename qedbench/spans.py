"""Spans around the benchmark's calls into each qedet layer, and the
per-layer metrics derived from them.

A span is (name, start, end, parent, job, counts, error).  Names are
`<layer>.<function>`, plus one root span named `job` per job; spans are
kept in memory and written out once, after the run.  A layer's self time is
the duration of its spans minus the duration of their child spans.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

LAYERS = ("gf4", "enumerators", "pue", "oracle", "chansim")

# (name, unit) of every per-layer metric, in output order.  Counts and times
# are per round of the workload's job list, so counts repeat exactly for a
# seed; the *_us and *_per_s rates are taken over all traced rounds.
PER_LAYER = (
    ("gf4.parse_calls", "count"),
    ("gf4.parse_busy_s", "s"),
    ("gf4.words_enumerated", "count"),
    ("enumerators.calls", "count"),
    ("enumerators.busy_s", "s"),
    ("enumerators.words_per_s", "1/s"),
    ("enumerators.direct_dual_share", "share"),
    ("enumerators.macwilliams_calls", "count"),
    ("enumerators.macwilliams_busy_s", "s"),
    ("pue.float_evals", "count"),
    ("pue.exact_evals", "count"),
    ("pue.busy_s", "s"),
    ("pue.float_eval_us", "us"),
    ("pue.exact_eval_us", "us"),
    ("oracle.projector_busy_s", "s"),
    ("oracle.bruteforce_busy_s", "s"),
    ("oracle.bruteforce_errors", "count"),
    ("oracle.classify_calls", "count"),
    ("oracle.classify_busy_s", "s"),
    ("oracle.mc_samples", "count"),
    ("oracle.mc_busy_s", "s"),
    ("oracle.mc_sample_us", "us"),
    ("oracle.composite_busy_s", "s"),
    ("oracle.moment_busy_s", "s"),
    ("chansim.trials", "count"),
    ("chansim.busy_s", "s"),
    ("chansim.trial_us", "us"),
    ("chansim.undetected", "count"),
    ("chansim.detected", "count"),
    ("chansim.trivial", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.overhead_share", "share"),
)

# Metrics computed from the code's shape rather than observed in the call:
# words enumerated (code size, plus dual size when under ENUMERATION_CAP),
# errors summed over (4^n), and which dual path stabilizer_enumerators took.
COMPUTED = ("gf4.words_enumerated", "enumerators.direct_dual_share",
            "enumerators.macwilliams_calls", "enumerators.macwilliams_busy_s",
            "oracle.bruteforce_errors")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: int = -1
    counts: dict = field(default_factory=dict)
    error: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one recorded span."""

    __slots__ = ("tracer", "index", "span")

    def __init__(self, tracer: Tracer, index: int, span: Span) -> None:
        self.tracer, self.index, self.span = tracer, index, span

    @property
    def counts(self) -> dict:
        return self.span.counts

    def __enter__(self) -> _Open:
        self.tracer._stack.append(self.index)
        self.span.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.span.error = exc_type.__name__
        return False


class Tracer:
    """Records spans in memory; `span(name, **counts)` opens one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = -1

    def job(self, job_id: int) -> _Open:
        self._job = job_id
        return self.span("job")

    def span(self, name: str, **counts) -> _Open:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, job=self._job,
                               counts=counts))
        return _Open(self, len(self.spans) - 1, self.spans[-1])

    def dump(self, path, header: dict) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "job": s.job, "counts": s.counts,
                 "error": s.error} for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": header, "spans": rows}) + "\n")


class _Null:
    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict = {}

    def __enter__(self) -> _Null:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """Same interface as Tracer, records nothing (the untraced runs)."""

    def __init__(self) -> None:
        self._null = _Null()

    def job(self, job_id: int) -> _Null:
        return self._null

    def span(self, name: str, **counts) -> _Null:
        return self._null


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], rounds: int, overhead_share: float) -> dict:
    """Every PER_LAYER metric from the spans of `rounds` traced rounds."""
    self_s = _self_times(spans)

    def pick(*names):
        return [s for s in spans if s.name in names]

    def busy(group) -> float:
        return sum(s.duration for s in group)

    def count(group, key) -> int:
        return sum(s.counts.get(key, 0) for s in group)

    def per(total):
        # Counts repeat exactly from round to round, so they stay integers.
        if isinstance(total, int) and total % rounds == 0:
            return total // rounds
        return total / rounds

    enum_spans = [s for s in spans if s.layer == "enumerators"]
    stab = pick("enumerators.stabilizer_enumerators")
    direct = [s for s in stab if s.counts.get("direct_dual")]
    transform = [s for s in stab if not s.counts.get("direct_dual")]
    mw = pick("enumerators.macwilliams") + transform
    pue_spans = [s for s in spans if s.layer == "pue"]
    fl = [s for s in pue_spans if "float_evals" in s.counts]
    ex = [s for s in pue_spans if "exact_evals" in s.counts]
    classify = pick("oracle.classify_error", "oracle.classify_error_dense")
    mc = pick("oracle.pue_nonstab_mc")
    sim = pick("chansim.simulate")
    words = [s for s in spans if "words" in s.counts]

    m = {
        "gf4.parse_calls": per(len(pick("gf4.parse_code"))),
        "gf4.parse_busy_s": per(busy(pick("gf4.parse_code"))),
        "gf4.words_enumerated": per(count(words, "words")),
        "enumerators.calls": per(len(enum_spans)),
        "enumerators.busy_s": per(busy(enum_spans)),
        "enumerators.words_per_s": _ratio(count(stab, "words"), busy(stab)),
        "enumerators.direct_dual_share": _ratio(len(direct), len(stab)),
        "enumerators.macwilliams_calls": per(len(mw)),
        "enumerators.macwilliams_busy_s": per(busy(mw)),
        "pue.float_evals": per(count(fl, "float_evals")),
        "pue.exact_evals": per(count(ex, "exact_evals")),
        "pue.busy_s": per(busy(pue_spans)),
        "pue.float_eval_us": 1e6 * _ratio(busy(fl), count(fl, "float_evals")),
        "pue.exact_eval_us": 1e6 * _ratio(busy(ex), count(ex, "exact_evals")),
        "oracle.projector_busy_s": per(busy(pick("oracle.code_projector"))),
        "oracle.bruteforce_busy_s":
            per(busy(pick("oracle.enumerators_bruteforce"))),
        "oracle.bruteforce_errors":
            per(count(pick("oracle.enumerators_bruteforce"), "errors")),
        "oracle.classify_calls": per(len(classify)),
        "oracle.classify_busy_s": per(busy(classify)),
        "oracle.mc_samples": per(count(mc, "samples")),
        "oracle.mc_busy_s": per(busy(mc)),
        "oracle.mc_sample_us": 1e6 * _ratio(busy(mc), count(mc, "samples")),
        "oracle.composite_busy_s":
            per(busy(pick("oracle.pue_composite_exact"))),
        "oracle.moment_busy_s": per(busy(pick("oracle.verify_mean_projector",
                                          "oracle.verify_fourth_moment"))),
        "chansim.trials": per(count(sim, "trials")),
        "chansim.busy_s": per(busy(sim)),
        "chansim.trial_us": 1e6 * _ratio(busy(sim), count(sim, "trials")),
        "chansim.undetected": per(count(sim, "undetected")),
        "chansim.detected": per(count(sim, "detected")),
        "chansim.trivial": per(count(sim, "trivial")),
    }
    for layer in LAYERS:
        own = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.self_s"] = per(sum(self_s[i] for i in own))
        m[f"{layer}.errors"] = per(sum(1 for i in own if spans[i].error))
    m["trace.overhead_share"] = overhead_share
    return m


def layer_shares(spans: list[Span], kind_of) -> dict:
    """Each layer's self time as a share of job time (base: jobs), over all
    jobs and per job kind; `kind_of` maps a job id to its kind.

    `glue` is the job spans' own self time: benchmark code between calls.
    """
    kinds = {s.job: kind_of(s.job) for s in spans if s.name == "job"}
    self_s = _self_times(spans)
    shares = {}
    for kind in ("all", *sorted(set(kinds.values()))):
        mine = [(s, t) for s, t in zip(spans, self_s)
                if kind == "all" or kinds.get(s.job) == kind]
        jobs = sum(s.duration for s, _ in mine if s.name == "job")
        shares[kind] = {"glue" if layer == "job" else layer:
                        _ratio(sum(t for s, t in mine if s.layer == layer), jobs)
                        for layer in LAYERS + ("job",)}
    return shares
