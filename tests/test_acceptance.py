"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (run pytest with
-s to see them on success) and enforces its runtime budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from qedet.catalog import get_code, names
from qedet.chansim import simulate
from qedet.enumerators import (check_enum_properties, macwilliams,
                               min_distance, stabilizer_enumerators)
from qedet.gf4 import all_vectors, parse_code, trace_inner
from qedet.oracle import (code_projector, deviation_curve,
                          enumerators_bruteforce, pauli_matrix,
                          pue_composite_exact, pue_nonstab_mc, uniform_state,
                          verify_mean_projector, verify_fourth_moment)
from qedet.pue import (pue_nonstabilizer, pue_stabilizer,
                       pue_stabilizer_direct, pue_via_moments)

from oracle_reference import sample_errors_loop

GRID20 = [i * 0.75 / 19 for i in range(20)]


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, \
            f"{name}: runtime {elapsed:.1f}s exceeds budget {budget_s}s"
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def catalog():
    codes = {name: get_code(name) for name in names()}
    pairs = {name: stabilizer_enumerators(code) for name, code in codes.items()}
    return codes, pairs


def test_01_enumerator_oracle_equivalence(catalog):
    codes, pairs = catalog
    with criterion("01 enumerator-oracle-equivalence", 30):
        for name, code in codes.items():
            assert code.n <= 6
            brute = enumerators_bruteforce(code_projector(code), code.dim)
            assert brute.weights == pairs[name].weights, name
            assert brute.dual_weights == pairs[name].dual_weights, name


def test_02_macwilliams_exactness(catalog):
    _, pairs = catalog
    with criterion("02 macwilliams-transform", 1):
        for name, pair in pairs.items():
            forward = macwilliams(pair.weights, pair.n, pair.dim, "code_to_dual")
            assert forward == pair.dual_weights, name
            back = macwilliams(forward, pair.n, pair.dim, "dual_to_code")
            assert back == pair.weights, name


def test_03_enumerator_properties_and_distance(catalog):
    _, pairs = catalog
    with criterion("03 enumerator-properties", 1):
        for name, pair in pairs.items():
            assert pair.weights[0] == 1 and pair.dual_weights[0] == 1
            assert all(0 <= b <= bp for b, bp in
                       zip(pair.weights, pair.dual_weights))
            assert check_enum_properties(pair).ok, name
        assert min_distance(pairs["five13"]) == 3
        assert min_distance(pairs["c422"]) == 2


def test_04_coset_sum_equals_polynomial_form(catalog):
    codes, pairs = catalog
    with criterion("04 coset-sum-vs-polynomial", 5):
        for name, code in codes.items():
            pair = pairs[name]
            for p in GRID20:
                direct = pue_stabilizer_direct(code, p)
                poly = pue_stabilizer(pair, p)
                if direct == poly == 0.0:
                    continue
                assert abs(direct - poly) <= 1e-12 * abs(poly), (name, p)
        # the code that detects nothing has undetected probability exactly p
        for p in GRID20:
            pf = Fraction(p)
            assert pue_stabilizer(pairs["trivial-n1"], pf, exact=True) == pf


def test_05_uniform_functional_mc_19_of_20_seeds(catalog):
    codes, pairs = catalog
    with criterion("05 uniform-functional-mc", 120):
        # The state average is a closed form, so every one of the 20 seeds
        # meets the criterion, with stderr 0: on c422 and on a [[6, 3]] code
        # (4^n K^2 = 2^18, the size of its table of code-space errors).
        cases = [(code_projector(codes["c422"]), pairs["c422"])]
        code = parse_code("ZZYXZX\nZZXZIX\nIZIIII")
        cases.append((code_projector(code), stabilizer_enumerators(code)))
        for p_op, pair in cases:
            for p in (0.05, 0.1, 0.3):
                target = pue_nonstabilizer(pair, p)
                for seed in range(20):
                    est = pue_nonstab_mc(p_op, pair.dim, p, 10000, seed=seed)
                    assert est.stderr == 0.0, (pair.n, p, seed)
                    assert abs(est.estimate - target) <= 1e-12, (pair.n, p, seed)


def test_06_composite_functional_exact(catalog):
    codes, pairs = catalog
    with criterion("06 composite-functional", 60):
        for name in ("bell", "c422", "five13"):
            p_op = code_projector(codes[name])
            for p in (0.05, 0.3, 0.74):
                got = pue_composite_exact(p_op, codes[name].dim, p)
                want = pue_stabilizer(pairs[name], p)
                assert abs(got - want) <= 1e-10, (name, p)


def test_07_binomial_moment_identities(catalog):
    _, pairs = catalog
    with criterion("07 binomial-moments", 1):
        for name, pair in pairs.items():
            n = pair.n
            assert pair.moments[0] == 1
            assert pair.moments[n] == sum(pair.weights)
            # generating identity at n + 1 integer points
            for x in range(2, n + 3):
                lhs = sum(b * x ** (n - i) for i, b in enumerate(pair.weights))
                rhs = sum(m * (x - 1) ** (n - w)
                          for w, m in enumerate(pair.moments))
                assert lhs == rhs, name
            for p in GRID20:
                a = pue_via_moments(pair, p)
                b = pue_stabilizer(pair, p)
                if a == b == 0.0:
                    continue
                assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300), (name, p)


def test_08_subspace_moment_identities(catalog):
    codes, _ = catalog
    with criterion("08 subspace-moment-identities", 120):
        # dimension-2 and dimension-4 subspaces from real projectors
        for name, dim in (("five13", 2), ("c422", 4)):
            rng = np.random.default_rng(2024)
            report = verify_mean_projector(code_projector(codes[name]), dim,
                                      100000, rng)
            assert report.within(4.0), (name, report)
        for dim in (2, 4):
            rng = np.random.default_rng(2025 + dim)
            report = verify_fourth_moment(dim, 100000, rng)
            assert report.within(4.0), (dim, report)
        # 1/sqrt(N) decay, replicate-averaged to make the band meaningful
        sizes = (10000, 40000, 160000)
        for kind in ("mean_projector", "fourth_moment"):
            devs = deviation_curve(kind, 2, sizes, replicates=96, seed=0)
            assert devs[0] > devs[1] > devs[2], (kind, devs)
            for a, b in zip(devs, devs[1:]):
                assert 1.7 <= a / b <= 2.3, (kind, devs)


def test_09_channel_simulator(catalog):
    codes, pairs = catalog
    with criterion("09 channel-simulator", 60):
        code, pair = codes["c422"], pairs["c422"]
        report = simulate(code, 0.1, 100000, seed=11)
        target = pue_stabilizer(pair, 0.1)
        assert abs(report.estimate - target) <= 4 * report.stderr
        # Born probabilities of the first measurement are always 0/1
        p_op = code_projector(code)
        rng = np.random.default_rng(17)
        for _ in range(500):
            v = uniform_state(p_op, rng)
            e, = sample_errors_loop(4, 0.25, rng, 1)
            w = pauli_matrix(e) @ v
            prob = float(np.real(np.vdot(w, p_op @ w)))
            assert min(prob, 1 - prob) <= 1e-9
        # bit-for-bit reproducibility for a seed
        a = simulate(code, 0.1, 3000, seed=33)
        b = simulate(code, 0.1, 3000, seed=33)
        assert a == b and a.to_json() == b.to_json()


def test_10_identity_suite():
    with criterion("10 identity-suite", 30):
        for n in (1, 2, 3):
            mats = [(v, pauli_matrix(v)) for v in all_vectors(n)]
            scale = 2**n
            for v1, m1 in mats:
                prod_with_self = m1 @ m1
                assert np.allclose(prod_with_self, np.eye(scale), atol=1e-12)
                for v2, m2 in mats:
                    prod = m1 @ m2
                    tr = np.trace(prod)
                    assert abs(tr - (scale if v1 == v2 else 0.0)) < 1e-10
                    sign = (-1) ** trace_inner(v1, v2)
                    assert abs(np.sum(prod * prod.T) - sign * scale) < 1e-10
                    assert np.allclose(prod, sign * (m2 @ m1), atol=1e-12)
