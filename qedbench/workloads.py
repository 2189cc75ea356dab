"""The benchmark's four job kinds, as calls into qedet's public functions.

Every call into the library sits inside a span named after its layer and
function, so the traced run can attribute time; the untraced run passes a
tracer that records nothing.  Each job has a correctness check that runs
outside its timed interval (in `verify` the checks are the job) and a
canonical text of its outputs, hashed into the run's digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import numpy as np
from qedet import (GF4Vector, all_vectors, check_enum_properties, chansim,
                   macwilliams, min_distance, oracle, parse_code, pue,
                   stabilizer_enumerators)
from qedet.gf4 import ENUMERATION_CAP

import gen

MODES = ("stabilizer", "nonstabilizer", "composite", "moments")
GRID20 = [i * 0.75 / 19 for i in range(20)]
GRID751 = [i / 1000 for i in range(751)]
# Rational probabilities evaluated exactly; each is a point of GRID751.
EXACT_MILLI = tuple(15 + 30 * j for j in range(24))
# Float sweep values must match the exact value at the same rational p to
# this relative error; all terms are nonnegative, so fsum is far tighter.
FLOAT_REL_TOL = 1e-9
# Two-sided normal tail beyond 5 sigma: the simulate check's false-alarm rate.
FIVE_SIGMA_TAIL = math.erfc(5 / math.sqrt(2))
ORACLE_CAP = oracle.DEFAULT_ORACLE_CAP
VERIFY_TOL = 1e-10


@dataclass
class Job:
    kind: str                          # enumerate, closed-form, simulate, verify
    label: str
    run: Callable[[Any], Any]          # tracer -> output; the timed part
    check: Callable[[Any], list[str]]  # output -> problems, empty if correct
    digest: Callable[[Any], str]       # output -> canonical text


def _g(x: float) -> str:
    return format(x, ".12g")


def _parse(tr, text: str):
    with tr.span("gf4.parse_code"):
        return parse_code(text)


def _enumerate(tr, code):
    dual_size = 1 << (2 * code.n - code.rank)
    direct = dual_size <= ENUMERATION_CAP
    # words is computed from the code's rank, not observed: the code is
    # enumerated, and so is the dual when it fits under the cap.
    with tr.span("enumerators.stabilizer_enumerators", direct_dual=direct,
                 words=code.size + (dual_size if direct else 0)):
        return stabilizer_enumerators(code)


def _pair_text(pair) -> str:
    return f"K={pair.dim} B={list(pair.weights)} Bp={list(pair.dual_weights)}"


# ---------------------------------------------------------------------------
# enumerate

def enumerate_job(text: str, tr):
    code = _parse(tr, text)
    pair = _enumerate(tr, code)
    with tr.span("enumerators.check_enum_properties"):
        report = check_enum_properties(pair)
    with tr.span("enumerators.min_distance"):
        d = min_distance(pair)
    with tr.span("pue.sweep", float_evals=len(GRID20) * len(MODES)):
        rows = pue.sweep(pair, GRID20, MODES)
    return pair, report.failures, d, [r.value for r in rows]


def enumerate_check(out) -> list[str]:
    pair, failures, _, _ = out
    problems = [f"property {f}" for f in failures]
    forward = macwilliams(pair.weights, pair.n, pair.dim, "code_to_dual")
    if forward != pair.dual_weights:
        problems.append("MacWilliams of B differs from the enumerated dual")
    if macwilliams(forward, pair.n, pair.dim, "dual_to_code") != pair.weights:
        problems.append("MacWilliams round trip does not return B")
    return problems


def enumerate_digest(out) -> str:
    pair, failures, d, values = out
    return f"{_pair_text(pair)} d={d} {failures} " + ",".join(map(_g, values))


# ---------------------------------------------------------------------------
# closed-form

def closed_form_job(text: str, tr):
    code = _parse(tr, text)
    pair = _enumerate(tr, code)
    with tr.span("pue.sweep", float_evals=len(GRID751) * len(MODES)):
        rows = pue.sweep(pair, GRID751, MODES)
    exact = []
    for milli in EXACT_MILLI:
        p = Fraction(milli, 1000)
        with tr.span("pue.pue_stabilizer", exact_evals=1):
            poly = pue.pue_stabilizer(pair, p, exact=True)
        with tr.span("pue.pue_via_moments", exact_evals=1):
            moments = pue.pue_via_moments(pair, p, exact=True)
        exact.append((poly, moments))
    return pair, [r.value for r in rows], exact


def closed_form_check(out) -> list[str]:
    pair, values, exact = out
    problems = []
    ratio = Fraction(pair.dim, pair.dim + 1)
    for milli, (poly, moments) in zip(EXACT_MILLI, exact):
        p = Fraction(milli, 1000)
        if moments != poly:
            problems.append(f"p={p}: moment form differs from the polynomial")
        if pue.pue_nonstabilizer(pair, p, exact=True) != ratio * poly:
            problems.append(f"p={p}: nonstabilizer is not K/(K+1) x stabilizer")
        expected = {"stabilizer": poly, "nonstabilizer": ratio * poly,
                    "composite": poly, "moments": poly}
        for m, mode in enumerate(MODES):
            got = values[milli * len(MODES) + m]
            want = float(expected[mode])
            if abs(got - want) > FLOAT_REL_TOL * abs(want):
                problems.append(f"p={p} {mode}: float {got!r} vs exact {want!r}")
    return problems


def closed_form_digest(out) -> str:
    pair, values, exact = out
    return (_pair_text(pair) + " " + ",".join(map(_g, values)) + " "
            + ",".join(f"{a}|{b}" for a, b in exact))


# ---------------------------------------------------------------------------
# simulate

def simulate_job(spec: gen.Spec, tr):
    code = _parse(tr, spec.text)
    with tr.span("chansim.simulate", trials=spec.count) as sp:
        rep = chansim.simulate(code, spec.p, spec.count,
                               protocol=spec.protocol, seed=spec.seed)
        sp.counts.update(undetected=rep.undetected_count,
                         detected=rep.detected_count,
                         trivial=rep.trivial_count)
    return rep


def _binomial_tail(k: int, trials: int, q: float) -> float:
    """P(|X - trials q| >= |k - trials q|) for X ~ Binomial(trials, q)."""
    mean = trials * q
    dist = abs(k - mean)
    if q <= 0.0 or q >= 1.0:
        return 1.0 if dist == 0 else 0.0

    def logpmf(j: int) -> float:
        return (math.lgamma(trials + 1) - math.lgamma(j + 1)
                - math.lgamma(trials - j + 1)
                + j * math.log(q) + (trials - j) * math.log1p(-q))

    return math.fsum(math.exp(logpmf(j)) for j in range(trials + 1)
                     if abs(j - mean) >= dist - 1e-9)


def simulate_check(q: float, rep) -> list[str]:
    """Estimate within 5 sigma of the closed form q (sigma from q itself).

    When trials * q is small the normal band is not a 5-sigma band at all,
    so a count outside it passes if its exact binomial two-sided tail is
    still above the 5-sigma normal tail.
    """
    problems = []
    if rep.undetected_count + rep.detected_count + rep.trivial_count != rep.trials:
        problems.append("outcome counts do not sum to the trial count")
    band = 5 * math.sqrt(q * (1 - q) / rep.trials)
    if abs(rep.estimate - q) > band and \
            _binomial_tail(rep.undetected_count, rep.trials, q) < FIVE_SIGMA_TAIL:
        problems.append(f"estimate {rep.estimate!r} is beyond 5 sigma of {q!r}")
    return problems


def simulate_digest(rep) -> str:
    return (f"{rep.protocol} p={rep.p} seed={rep.seed} u={rep.undetected_count} "
            f"d={rep.detected_count} t={rep.trivial_count}")


def analytic_q(spec: gen.Spec) -> float:
    pair = stabilizer_enumerators(parse_code(spec.text))
    q = pue.pue_stabilizer(pair, spec.p)
    if spec.protocol == "nonstabilizer":
        q *= pair.dim / (pair.dim + 1)
    return q


# ---------------------------------------------------------------------------
# verify: the `qed verify` battery, call for call and in the same order.

def verify_job(spec: gen.Spec, tr):
    """Rows (check, status, detail); status None means skipped."""
    rows = []
    values = []   # numbers that go into the digest
    code = _parse(tr, spec.text)
    samples, seed, cap, tol = spec.count, spec.seed, ORACLE_CAP, VERIFY_TOL
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    rows.append(("self_orthogonal", code.is_self_orthogonal, ""))
    if not code.is_self_orthogonal:
        return rows, values
    pair = _enumerate(tr, code)
    values.append(_pair_text(pair))

    with tr.span("enumerators.check_enum_properties"):
        report = check_enum_properties(pair)
    rows.append(("enum_properties", report.ok, ",".join(report.failures)))
    with tr.span("enumerators.min_distance"):
        d = min_distance(pair)
    rows.append(("min_distance", True, f"d={d}"))

    with tr.span("enumerators.macwilliams"):
        forward = macwilliams(pair.weights, pair.n, pair.dim, "code_to_dual")
    rows.append(("macwilliams_forward", forward == pair.dual_weights, ""))
    with tr.span("enumerators.macwilliams"):
        back = macwilliams(forward, pair.n, pair.dim, "dual_to_code")
    rows.append(("macwilliams_roundtrip", back == pair.weights, ""))

    def rel_err(a: float, b: float) -> float:
        return abs(a - b) / max(abs(b), 1e-300) if (a or b) else 0.0

    dual_size = 1 << (2 * code.n - code.rank)
    worst = 0.0
    for p in GRID20:
        with tr.span("pue.pue_stabilizer_direct", float_evals=1, words=dual_size):
            direct = pue.pue_stabilizer_direct(code, p)
        with tr.span("pue.pue_stabilizer", float_evals=1):
            poly = pue.pue_stabilizer(pair, p)
        worst = max(worst, rel_err(direct, poly))
    rows.append(("coset_sum_vs_polynomial", worst <= max(tol, 1e-12),
                 f"rel_err={worst:.2e}"))

    worst = 0.0
    for p in GRID20:
        with tr.span("pue.pue_via_moments", float_evals=1):
            moments = pue.pue_via_moments(pair, p)
        with tr.span("pue.pue_stabilizer", float_evals=1):
            poly = pue.pue_stabilizer(pair, p)
        worst = max(worst, rel_err(moments, poly))
    rows.append(("moments_form", worst <= max(tol, 1e-12), f"rel_err={worst:.2e}"))

    with tr.span("oracle.code_projector"):
        p_op = oracle.code_projector(code, cap)
    rows.append(("projector_valid", True, f"trace={np.trace(p_op).real:.6g}"))

    with tr.span("oracle.enumerators_bruteforce", errors=4 ** code.n):
        brute = oracle.enumerators_bruteforce(p_op, pair.dim, cap)
    rows.append(("oracle_enumerators",
                 brute.weights == pair.weights
                 and brute.dual_weights == pair.dual_weights, ""))

    if code.n <= 4:
        errors = list(all_vectors(code.n))
    else:
        picks = rng.integers(0, 1 << code.n, size=(256, 2))
        errors = [GF4Vector(code.n, int(a), int(b)) for a, b in picks]
    agree = True
    for e in errors:
        with tr.span("oracle.classify_error"):
            algebraic = oracle.classify_error(code, e)
        with tr.span("oracle.classify_error_dense"):
            dense = oracle.classify_error_dense(p_op, e, cap=cap)
        agree = agree and algebraic == dense
    rows.append(("classification_agreement", agree, f"errors={len(errors)}"))

    with tr.span("oracle.pue_nonstab_mc", samples=samples):
        mc = oracle.pue_nonstab_mc(p_op, pair.dim, 0.1, samples, seed=seed, cap=cap)
    with tr.span("pue.pue_nonstabilizer", float_evals=1):
        target = pue.pue_nonstabilizer(pair, 0.1)
    values.append(f"mc={_g(mc.estimate)}±{_g(mc.stderr)}")
    diff = abs(mc.estimate - target)
    if diff <= 1e-10:
        rows.append(("uniform_functional_mc", True, f"abs_err={diff:.2e}"))
    else:
        # `qed verify` compares diff with 4 x the sample's own stderr.  For a
        # code with rare undetected errors (five13 at p = 0.1: about a dozen
        # nonzero samples in 20000) that stderr shrinks when few occur, so a
        # low estimate fails: five13 with seed 563333863 is 4.79 sample
        # stderrs low.  Each sample lies in [0, 1], so its variance is at
        # most target (1 - target); the band below uses that bound (2.27 for
        # that seed), as the simulate check uses the analytic q.
        sigmas = diff / mc.stderr if mc.stderr else float("inf")
        bound = math.sqrt(target * (1 - target) / samples)
        rows.append(("uniform_functional_mc", diff <= 4 * bound,
                     f"{diff / bound:.2f} x stderr bound; "
                     f"{sigmas:.2f} sample stderr"))

    if code.n <= oracle.COMPOSITE_CAP:
        worst_abs = 0.0
        for p in (0.05, 0.3):
            with tr.span("oracle.pue_composite_exact"):
                dense_value = oracle.pue_composite_exact(p_op, pair.dim, p)
            with tr.span("pue.pue_composite", float_evals=1):
                closed = pue.pue_composite(pair, p)
            values.append(f"composite={_g(dense_value)}")
            worst_abs = max(worst_abs, abs(dense_value - closed))
        rows.append(("composite_functional", worst_abs <= 1e-10,
                     f"abs_err={worst_abs:.2e}"))
    else:
        rows.append(("composite_functional", None, "skipped (beyond composite cap)"))

    with tr.span("oracle.verify_mean_projector"):
        lem5 = oracle.verify_mean_projector(p_op, pair.dim, samples, rng)
    rows.append(("mean_projector_identity", lem5.within(4.0),
                 f"dev={lem5.deviation:.2e} sigma={lem5.sigma:.2e}"))
    if pair.dim == 1:
        with tr.span("oracle.verify_fourth_moment"):
            lem6 = oracle.verify_fourth_moment(1, min(samples, 1000), rng)
        rows.append(("fourth_moment_identity", lem6.deviation <= 1e-10,
                     f"dev={lem6.deviation:.2e}"))
    else:
        with tr.span("oracle.verify_fourth_moment"):
            lem6 = oracle.verify_fourth_moment(pair.dim, samples, rng)
        rows.append(("fourth_moment_identity", lem6.within(4.0),
                     f"dev={lem6.deviation:.2e} sigma={lem6.sigma:.2e}"))
    values.append(f"moments={_g(lem5.deviation)},{_g(lem6.deviation)}")
    return rows, values


def verify_check(out) -> list[str]:
    rows, _ = out
    return [f"{name} FAIL {detail}" for name, status, detail in rows
            if status is False]


def verify_digest(out) -> str:
    rows, values = out
    return " ".join(values) + " " + ",".join(
        f"{name}={status}" for name, status, _ in rows)


# ---------------------------------------------------------------------------

def _job(spec: gen.Spec) -> Job:
    if spec.kind == "enumerate":
        return Job(spec.kind, spec.label, partial(enumerate_job, spec.text),
                   enumerate_check, enumerate_digest)
    if spec.kind == "closed-form":
        return Job(spec.kind, spec.label, partial(closed_form_job, spec.text),
                   closed_form_check, closed_form_digest)
    if spec.kind == "simulate":
        return Job(spec.kind, spec.label, partial(simulate_job, spec),
                   partial(simulate_check, analytic_q(spec)), simulate_digest)
    return Job(spec.kind, spec.label, partial(verify_job, spec), verify_check,
               verify_digest)


def build(workload: str, seed: int,
          tiny: bool = False) -> tuple[list[Job], list[Job]]:
    """Set-up: generate the inputs, parse them once, return (round, warm-ups).

    Parsing here validates every generated file before anything is timed;
    the jobs parse their text again, as `qed <cmd> <file>` would.
    """
    specs, warmups = gen.workload_inputs(workload, seed, tiny)
    for spec in specs + warmups:
        parse_code(spec.text)
    return [_job(s) for s in specs], [_job(s) for s in warmups]
