"""Protocol simulator: channel statistics, Born measurements, reproducibility."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qedet.catalog import get_code
from qedet import chansim
from qedet.chansim import _CHUNK, _born_first, simulate
from qedet.enumerators import stabilizer_enumerators
from qedet.gf4 import GF4Vector
from qedet.oracle import (_error_images, _hadamard, _range_basis,
                          _reverse_bits, _sample_errors, _seeded_rng,
                          _sphere_batch, _uniform_batch, code_projector,
                          pauli_matrix, pue_nonstab_mc)
from qedet.pue import pue_nonstabilizer, pue_stabilizer

from oracle_reference import (_born_index, measure, sample_errors_loop,
                              simulate_loop)
from test_gf4 import _random_code


def _rng(seed=0):
    return np.random.default_rng(seed)


# --- error sampling ------------------------------------------------------------


def test_sample_error_p_zero():
    x, z = _sample_errors(6, 0.0, _rng(0), 200)
    assert not (x | z).any()


def test_sample_error_range_check():
    with pytest.raises(ValueError):
        _sample_errors(3, 0.8, _rng(0), 1)


def test_sample_error_weight_is_binomial():
    # chi-squared against Binomial(n, p) over 10^5 draws, alpha = 0.001.
    n, p, draws = 5, 0.3, 100000
    x, z = _sample_errors(n, p, _rng(42), draws)
    observed = np.bincount(np.bitwise_count(x | z), minlength=n + 1)
    expected = np.array([math.comb(n, w) * p**w * (1 - p) ** (n - w)
                         for w in range(n + 1)]) * draws
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001


def test_sample_error_uniform_symbols_at_three_quarters():
    # At p = 3/4 every one of the four symbols is equally likely per position.
    x, z = _sample_errors(1, 0.75, _rng(1), 40000)
    counts = np.bincount(x | (z << 1), minlength=4)
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.001


@pytest.mark.parametrize("n", [0, 1, 4, 5, 6])
@pytest.mark.parametrize("p", [0.1, 0.75])
def test_sample_error_consumes_stream_like_loop(n, p):
    # The bit-packed block sampler must give the errors the bit-by-bit
    # reference builds from the same draws, and use the stream as it does.
    a, b = _rng(n), _rng(n)
    for count in (1, 7, 50):
        x, z = _sample_errors(n, p, a, count)
        got = [GF4Vector(n, _reverse_bits(int(xi), n), _reverse_bits(int(zi), n))
               for xi, zi in zip(x, z)]
        assert got == sample_errors_loop(n, p, b, count)
    assert a.bit_generator.state == b.bit_generator.state


def test_sample_error_beyond_int64():
    (x,), (z,) = _sample_errors(100, 0.75, _rng(6), 1)
    assert (x | z).bit_count() > 64 and (x | z) >> 100 == 0


# --- Born measurement ----------------------------------------------------------


def test_measure_eigenstate_is_deterministic():
    p = code_projector(get_code("c422"))
    rng = _rng(2)
    v = np.zeros(16, dtype=complex)
    v[0] = 1.0
    v = p @ v
    v /= np.linalg.norm(v)
    for _ in range(20):
        idx, post = measure(v, (p, np.eye(16) - p), rng.random())
        assert idx == 0
        assert np.allclose(post, v)


def test_measure_unit_norm_output():
    rng = _rng(3)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    v = np.array([0.6, 0.8], dtype=complex)
    for _ in range(50):
        _, post = measure(v, (p0, p1), rng.random())
        assert abs(np.linalg.norm(post) - 1) < 1e-12


def test_measure_fifty_fifty_statistics():
    rng = _rng(4)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    v = np.array([1, 1], dtype=complex) / math.sqrt(2)
    draws = 10000
    ones = sum(measure(v, (p0, p1), rng.random())[0] for _ in range(draws))
    sigma = math.sqrt(0.25 / draws)
    assert abs(ones / draws - 0.5) <= 4 * sigma


def test_measure_rejects_incomplete_projectors():
    rng = _rng(5)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([0.6, 0.8], dtype=complex)
    with pytest.raises(ValueError):
        measure(v, (p0,), rng.random())


def test_born_index_cumulative_and_fallback():
    assert _born_index((0.25, 0.75), 0.2) == 0
    assert _born_index((0.25, 0.75), 0.25) == 1
    # Probabilities a little short of 1 leave the draw above every outcome;
    # the most likely one is taken, not the last.
    assert _born_index((0.7, 0.3 - 1e-12), 1 - 1e-13) == 0
    assert _born_index((0.3 - 1e-12, 0.7), 1 - 1e-13) == 1
    # The simulator's row-wise draw agrees with it on (pr, 1 - pr): at the
    # cut points, at and just past the ends of [0, 1], at a tie, and at
    # random points.
    eps = np.finfo(float).eps
    probs = np.array([0.25, 0.25, 0.25, 0.0, 1.0, 1 - eps, 0.5, 0.5, 1e-17,
                      1 + 2 * eps, -1e-17])
    u = np.array([0.2, 0.25, 0.9, 0.0, 1 - eps, 1 - eps, 0.5, 1 - eps, 0.0,
                  1 - eps, 0.0])
    probs = np.concatenate([probs, _rng(6).random(200) ** 3])
    u = np.concatenate([u, _rng(7).random(200)])
    want = [_born_index((pr, 1 - pr), x) == 0 for pr, x in zip(probs, u)]
    assert _born_first(probs, u).tolist() == want


# --- full protocol -------------------------------------------------------------


def test_simulate_zero_noise_counts():
    report = simulate(get_code("c422"), 0.0, 300, seed=0)
    assert report.undetected_count == 0
    assert report.detected_count == 0
    assert report.trivial_count == 300


def test_simulate_validation():
    code = get_code("c422")
    with pytest.raises(ValueError):
        simulate(code, 0.1, 0)
    with pytest.raises(ValueError):
        simulate(code, 0.9, 100)
    with pytest.raises(ValueError):
        simulate(code, 0.1, 100, protocol="bogus")


def test_simulate_reports_are_bit_identical():
    code = get_code("c422")
    a = simulate(code, 0.1, 2000, seed=12345)
    b = simulate(code, 0.1, 2000, seed=12345)
    assert a == b and a.to_json() == b.to_json()


def test_simulate_is_deterministic_with_a_short_last_chunk():
    # 1001 trials: three full chunks and a short one.
    code = get_code("c422")
    a = simulate(code, 0.1, 1001, seed=7)
    b = simulate(code, 0.1, 1001, seed=7)
    assert a == b
    assert a.trials == 1001
    c = simulate(code, 0.1, 1001, seed=8)
    assert (c.undetected_count, c.detected_count) != \
        (a.undetected_count, a.detected_count)


def test_simulate_counts_sum_and_stderr():
    report = simulate(get_code("c422"), 0.2, 5000, seed=9)
    total = (report.undetected_count + report.detected_count
             + report.trivial_count)
    assert total == report.trials
    est = report.undetected_count / report.trials
    assert report.estimate == est
    assert report.stderr == pytest.approx(math.sqrt(est * (1 - est) / 5000))


def test_simulate_stabilizer_matches_analytic():
    code = get_code("c422")
    pair = stabilizer_enumerators(code)
    report = simulate(code, 0.1, 20000, seed=21)
    target = pue_stabilizer(pair, 0.1)
    assert abs(report.estimate - target) <= 4 * report.stderr


def test_simulate_nonstabilizer_matches_analytic():
    code = get_code("c422")
    pair = stabilizer_enumerators(code)
    report = simulate(code, 0.1, 20000, protocol="nonstabilizer", seed=22)
    target = pue_nonstabilizer(pair, 0.1)
    assert abs(report.estimate - target) <= 4 * report.stderr


def test_simulate_undetectable_errors_always_undetected():
    # Deep in the undetectable coset the stabilizer protocol cannot miss:
    # with p = 3/4 on the trivial-n1 code every nonzero error is undetectable
    # and collinearity hits have measure zero.
    code = get_code("trivial-n1")
    report = simulate(code, 0.75, 4000, seed=30)
    # nonzero errors occur w.p. 3/4 and all land in the dual minus the code
    expected = 0.75
    assert abs(report.estimate - expected) <= 4 * report.stderr
    assert report.detected_count == 0


# Seeded random self-orthogonal codes: rank 4 at n = 6 is the benchmark's
# g62 shape; rank n gives an [[n, 0]] code, whose one state is fixed by
# every undetected error.
SIM_CODES = {name: get_code(name)
             for name in ("trivial-n1", "bell", "c422", "five13")}
SIM_CODES |= {f"random-n6-{s}": _random_code(6, 4, random.Random(s))
              for s in (1, 2)}
K0_CODES = {"bell": get_code("bell")}
K0_CODES |= {f"random-k0-n{n}": _random_code(n, n, random.Random(n))
             for n in (1, 3, 4, 5, 6)}


@pytest.mark.parametrize("name", list(SIM_CODES))
def test_error_images_equal_dense_pauli(name):
    # The chunk kernel's a = L^dag E L u against the dense Pauli matrix, up
    # to the phase i^|x&z| it leaves out: every word for n <= 4, 300
    # uniform words (the first five the identity) above, where the
    # identity rows must give u back.
    code = SIM_CODES[name]
    n = code.n
    basis = _range_basis(code_projector(code))
    rng = _rng(40)
    if n <= 4:
        x, z = (a.ravel() for a in np.indices((1 << n, 1 << n)))
    else:
        x, z = rng.integers(0, 1 << n, (2, 300))
        x[:5] = z[:5] = 0
    u = _sphere_batch(len(x), code.dim, rng)
    got = _error_images(basis, _hadamard(n), u, x, z)
    assert got.shape == u.shape
    for xi, zi, ui, ai in zip(x, z, u, got):
        e = GF4Vector(n, _reverse_bits(int(xi), n), _reverse_bits(int(zi), n))
        want = basis.conj().T @ pauli_matrix(e) @ (basis @ ui)
        phase = 1j ** (int(xi) & int(zi)).bit_count()
        assert np.max(np.abs(phase * ai - want)) < 1e-12
    identity = (x | z) == 0
    assert np.count_nonzero(identity) == (1 if n <= 4 else 5)
    assert np.max(np.abs(got[identity] - u[identity])) < 1e-12


@pytest.mark.parametrize("name", list(SIM_CODES))
@pytest.mark.parametrize("protocol", ["stabilizer", "nonstabilizer"])
def test_simulate_counts_equal_measure_loop(name, protocol):
    # Same counts as drawing each error as a GF4Vector and making both
    # measurements with measure: (P, I - P), then (vv*, P - vv*) for the
    # nonstabilizer protocol.
    code = SIM_CODES[name]
    p_op = code_projector(code)
    for p in (0.0, 0.1, 0.5, 0.75):
        report = simulate(code, p, 600, protocol=protocol, seed=5)
        counts = (report.undetected_count, report.detected_count,
                  report.trivial_count)
        assert counts == simulate_loop(code, p_op, p, 600, protocol, 5)


@pytest.mark.parametrize("trials", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                    2 * _CHUNK + 1])
@pytest.mark.parametrize("protocol", ["stabilizer", "nonstabilizer"])
def test_simulate_counts_equal_measure_loop_at_chunk_edges(trials, protocol):
    # One trial, a chunk short by one, full, one over, and two full chunks
    # plus a one-trial remainder: every trial is played and drawn in order.
    code = get_code("c422")
    p_op = code_projector(code)
    report = simulate(code, 0.5, trials, protocol=protocol, seed=6)
    counts = (report.undetected_count, report.detected_count,
              report.trivial_count)
    assert sum(counts) == trials
    assert counts == simulate_loop(code, p_op, 0.5, trials, protocol, 6)


def test_simulate_rejects_a_split_first_measurement(monkeypatch):
    # A generic rank-1 projector at n = 1 is no stabilizer projector: every
    # non-identity error splits the first measurement.  At this seed the
    # first trial's error is the identity and a later one's is not, so the
    # check must look past the chunk's first row.
    a = np.array([math.cos(0.3), np.exp(0.7j) * math.sin(0.3)])
    p_op = np.outer(a, a.conj())
    monkeypatch.setattr(chansim, "code_projector", lambda code, cap: p_op)
    rng = _seeded_rng(4)
    _uniform_batch(_range_basis(p_op), 40, rng)
    x, z = _sample_errors(1, 0.1, rng, 40)
    assert x[0] == z[0] == 0 and (x | z).any()
    with pytest.raises(ValueError, match="not deterministic"):
        simulate(get_code("trivial-n1"), 0.1, 40, seed=4)


@pytest.mark.parametrize("name", list(K0_CODES))
def test_k0_code_has_no_undetected_errors(name):
    # B = B-perp, so P_ue is 0 exactly; the uniform functional (exact error
    # sum for n <= 4, sampled errors above) and both protocols agree.
    code = K0_CODES[name]
    assert code.dim == 1
    pair = stabilizer_enumerators(code)
    assert pair.weights == pair.dual_weights
    p_op = code_projector(code)
    for p in (0.3, 0.75):
        assert pue_stabilizer(pair, Fraction(p), exact=True) == 0
        assert pue_stabilizer(pair, p) == 0.0
        assert abs(pue_nonstab_mc(p_op, 1, p, 400, seed=3).estimate) < 1e-10
        for protocol in ("stabilizer", "nonstabilizer"):
            report = simulate(code, p, 500, protocol=protocol, seed=8)
            assert report.undetected_count == 0
            assert report.detected_count > 0 and report.trivial_count > 0


def test_simulate_json_schema():
    report = simulate(get_code("bell"), 0.3, 100, seed=1)
    doc = json.loads(report.to_json())
    assert set(doc) == {"protocol", "p", "trials", "seed", "estimate",
                        "stderr", "counts"}
    assert set(doc["counts"]) == {"undetected", "detected", "trivial"}
    assert doc["counts"]["undetected"] + doc["counts"]["detected"] + \
        doc["counts"]["trivial"] == 100


@pytest.mark.parametrize("p", [Fraction(1, 10), np.float32(0.1),
                               np.float64(0.1)])
def test_simulate_and_mc_take_p_as_float(p):
    # Any p that _check_p accepts runs as float(p), and the reports hold
    # that float, so they serialize; Fraction(1, 10) runs exactly as 0.1.
    code = get_code("c422")
    report = simulate(code, p, 300, seed=1)
    assert type(report.p) is float and report.p == float(p)
    assert json.loads(report.to_json())["p"] == float(p)
    assert report == simulate(code, float(p), 300, seed=1)
    p_op = code_projector(code)
    est = pue_nonstab_mc(p_op, code.dim, p, 300, seed=1)
    assert type(est.p) is float
    assert est == pue_nonstab_mc(p_op, code.dim, float(p), 300, seed=1)


@pytest.mark.parametrize("trials,seed", [
    (np.int64(300), 1), (300, np.int64(1)), (np.int32(300), np.uint64(1)),
], ids=["int64-trials", "int64-seed", "int32-uint64"])
def test_simulate_takes_numpy_integer_trials_and_seed(trials, seed):
    # The report holds Python ints, so it serializes, and the counts are
    # those of the same Python ints.
    report = simulate(get_code("c422"), 0.1, trials, seed=seed)
    assert type(report.trials) is int and type(report.seed) is int
    assert json.loads(report.to_json())["trials"] == 300
    assert report == simulate(get_code("c422"), 0.1, 300, seed=1)
