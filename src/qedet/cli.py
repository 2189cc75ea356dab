"""Command-line front end.

    qed enum <code> [--json]
    qed pue <code> (--p P | --sweep a:b:step) [--mode s|n|c]
    qed verify <code> [--samples N] [--seed S]
    qed simulate <code> --p P [--trials N] [--seed S] [--protocol ...]

<code> is a catalog name (see qedet.catalog) or a path to a code file.
Exit codes: 0 success, 1 validation or check failure, 2 input error.
All stdout output is CSV or JSON; diagnostics go to stderr.
The environment variable QED_ORACLE_CAP, an integer >= 0, sets the
dense-oracle cap of `verify` and `simulate` (default 6 qubits); any other
value is an input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import chansim, oracle, pue
from .catalog import CATALOG
from .enumerators import (check_enum_properties, hamming_weights, macwilliams,
                          min_distance, stabilizer_enumerators)
from .gf4 import (AdditiveCode, CodeFormatError, GF4Vector, all_vectors, dual,
                  parse_code)

_MODE_NAMES = {"s": "stabilizer", "n": "nonstabilizer", "c": "composite"}
_MAX_SWEEP_POINTS = 10**6
# Relative error allowed between two float forms of P_ue in `qed verify`.
_REL_TOL = 1e-10


def _oracle_cap() -> int:
    """The dense-oracle cap from QED_ORACLE_CAP, or the default when unset."""
    text = os.environ.get("QED_ORACLE_CAP", str(oracle.DEFAULT_ORACLE_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise CodeFormatError(
            f"QED_ORACLE_CAP must be an integer >= 0, not {text!r}")
    return cap


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _load_code(ref: str) -> AdditiveCode:
    if ref in CATALOG:
        return parse_code(CATALOG[ref])
    path = Path(ref)
    if not path.exists():
        raise CodeFormatError(f"no catalog entry or file named {ref!r}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CodeFormatError(f"cannot read {ref!r}: {exc}") from None
    return parse_code(text)


def _parse_sweep(text: str) -> list[float]:
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise CodeFormatError(f"malformed sweep {text!r}; expected a:b:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise CodeFormatError(f"sweep {text!r} is not finite")
    if step <= 0:
        raise CodeFormatError("sweep step must be positive")
    if start > stop:
        raise CodeFormatError(f"sweep {text!r} starts after it stops")
    # The loop below runs about (stop - start + 1e-12) / step times; a step
    # below one ulp of x would leave x where it is.
    if ((stop - start + 1e-12) / step >= _MAX_SWEEP_POINTS
            or step < math.ulp(max(abs(start), abs(stop) + 1e-12))):
        raise CodeFormatError(
            f"sweep {text!r} has more than {_MAX_SWEEP_POINTS} points")
    grid = []
    x = start
    while x <= stop + 1e-12:
        grid.append(round(x, 12))
        x += step
    return grid


def cmd_enum(args) -> int:
    code = _load_code(args.code)
    pair = stabilizer_enumerators(code)
    report = check_enum_properties(pair)
    if not report.ok:
        print("enumerator property violation: " + ", ".join(report.failures),
              file=sys.stderr)
        return 1
    doc = pair.to_json_dict()
    print(json.dumps(doc) if args.json else json.dumps(doc, indent=2))
    return 0


def cmd_pue(args) -> int:
    code = _load_code(args.code)
    pair = stabilizer_enumerators(code)
    grid = _parse_sweep(args.sweep) if args.sweep else [args.p]
    mode = _MODE_NAMES[args.mode]
    rows = pue.sweep(pair, grid, [mode])
    sys.stdout.write(pue.sweep_csv(rows))
    return 0


def cmd_simulate(args) -> int:
    code = _load_code(args.code)
    report = chansim.simulate(code, args.p, args.trials, protocol=args.protocol,
                              seed=args.seed, cap=_oracle_cap())
    print(report.to_json())
    closed_form = (pue.pue_nonstabilizer if args.protocol == "nonstabilizer"
                   else pue.pue_stabilizer)
    analytic = closed_form(stabilizer_enumerators(code), args.p)
    # The binomial stderr at the analytic value, not the sample's own,
    # which collapses when no trial ends undetected.
    bound = math.sqrt(analytic * (1 - analytic) / report.trials)
    diff = abs(report.estimate - analytic)
    sigmas = diff / bound if bound else (0.0 if diff == 0 else float("inf"))
    print(f"analytic {analytic!r}, distance {sigmas:.2f} x stderr bound",
          file=sys.stderr)
    return 0


def _verify_checks(code: AdditiveCode, cap: int, samples: int, seed: int):
    """Yield (name, status, detail) rows for the verification battery."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    grid = [i * 0.75 / 19 for i in range(20)]

    yield ("self_orthogonal", code.is_self_orthogonal, "")
    if not code.is_self_orthogonal:
        return
    pair = stabilizer_enumerators(code)

    report = check_enum_properties(pair)
    yield ("enum_properties", report.ok, ",".join(report.failures))
    yield ("min_distance", True, f"d={min_distance(pair)}")

    # pair.dual_weights is itself the transform of B; the dual is small
    # enough here (n <= cap) to enumerate as an independent reference.
    forward = macwilliams(pair.weights, pair.n, pair.dim, "code_to_dual")
    yield ("macwilliams_forward",
           forward == hamming_weights(dual(code)).counts, "")
    back = macwilliams(forward, pair.n, pair.dim, "dual_to_code")
    yield ("macwilliams_roundtrip", back == pair.weights, "")

    def rel_err(a: float, b: float) -> float:
        return abs(a - b) / max(abs(b), 1e-300) if (a or b) else 0.0

    worst = max(rel_err(pue.pue_stabilizer_direct(code, p),
                        pue.pue_stabilizer(pair, p)) for p in grid)
    yield ("coset_sum_vs_polynomial", worst <= _REL_TOL,
           f"rel_err={worst:.2e}")

    worst = max(rel_err(pue.pue_via_moments(pair, p),
                        pue.pue_stabilizer(pair, p)) for p in grid)
    yield ("moments_form", worst <= _REL_TOL, f"rel_err={worst:.2e}")

    p_op = oracle.code_projector(code, cap)
    yield ("projector_valid", True, f"trace={np.trace(p_op).real:.6g}")

    brute = oracle.enumerators_bruteforce(p_op, pair.dim, cap)
    yield ("oracle_enumerators",
           brute.weights == pair.weights and brute.dual_weights == pair.dual_weights,
           "")

    if code.n <= 4:
        errors = list(all_vectors(code.n))
    else:
        picks = rng.integers(0, 1 << code.n, size=(256, 2))
        errors = [GF4Vector(code.n, int(a), int(b)) for a, b in picks]
    agree = all(oracle.classify_error(code, e)
                == oracle.classify_error_dense(p_op, e, cap=cap) for e in errors)
    yield ("classification_agreement", agree, f"errors={len(errors)}")

    # Both functionals are closed forms in the oracle's trace tables, equal
    # to the polynomials up to rounding.
    mc = oracle.pue_nonstab_mc(p_op, pair.dim, 0.1, samples, seed=seed, cap=cap)
    diff = abs(mc.estimate - pue.pue_nonstabilizer(pair, 0.1))
    yield ("uniform_functional_mc", diff <= 1e-10, f"abs_err={diff:.2e}")

    worst_abs = max(abs(oracle.pue_composite_exact(p_op, pair.dim, p)
                        - pue.pue_composite(pair, p)) for p in (0.05, 0.3))
    yield ("composite_functional", worst_abs <= 1e-10, f"abs_err={worst_abs:.2e}")

    lem5 = oracle.verify_mean_projector(p_op, pair.dim, samples, rng)
    yield ("mean_projector_identity", lem5.within(4.0),
           f"dev={lem5.deviation:.2e} sigma={lem5.sigma:.2e}")
    lem6 = oracle.verify_fourth_moment(pair.dim, samples, rng)
    yield ("fourth_moment_identity", lem6.within(4.0),
           f"dev={lem6.deviation:.2e} sigma={lem6.sigma:.2e}")


def cmd_verify(args) -> int:
    code = _load_code(args.code)
    cap = _oracle_cap()
    if code.n > cap:
        print(f"error: code length n={code.n} exceeds the oracle cap of "
              f"{cap} qubits (raise with QED_ORACLE_CAP)", file=sys.stderr)
        return 1
    print("check,status,detail")
    failed = 0
    start = time.perf_counter()
    for name, status, detail in _verify_checks(code, cap, args.samples,
                                               args.seed):
        # Each check is computed when the generator is resumed for it.
        elapsed = time.perf_counter() - start
        failed += not status
        print(f"{name},{'PASS' if status else 'FAIL'},{detail}")
        print(f"time {name} {elapsed * 1e3:.1f} ms", file=sys.stderr)
        start = time.perf_counter()
    print(f"{failed} failing check(s)" if failed else "all checks passed",
          file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="weight enumerators and min distance")
    p_enum.add_argument("code")
    p_enum.add_argument("--json", action="store_true", help="compact JSON")
    p_enum.set_defaults(func=cmd_enum)

    p_pue = sub.add_parser("pue", help="undetected-error probability")
    p_pue.add_argument("code")
    group = p_pue.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--sweep", metavar="a:b:step")
    p_pue.add_argument("--mode", choices=sorted(_MODE_NAMES), default="s")
    p_pue.set_defaults(func=cmd_pue)

    p_ver = sub.add_parser("verify", help="cross-check against the dense oracle")
    p_ver.add_argument("code")
    # Every check needs one sample; the moment checks' bands are analytic.
    p_ver.add_argument("--samples", type=_int_at_least(1), default=20000)
    p_ver.add_argument("--seed", type=_int_at_least(0), default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol simulation")
    p_sim.add_argument("code")
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--trials", type=_int_at_least(1), default=100000)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sim.add_argument("--protocol", choices=chansim.PROTOCOLS,
                       default="stabilizer")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CodeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
