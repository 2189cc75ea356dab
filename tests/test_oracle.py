"""Dense-matrix oracle: Pauli algebra, projectors, trace enumerators,
classification, subspace sampling, and the MC functionals."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings

from qedet import cli, oracle
from qedet.catalog import get_code
from qedet.enumerators import stabilizer_enumerators
from qedet.gf4 import (AdditiveCode, GF4Vector, all_vectors, parse_code,
                       trace_inner)
from qedet.oracle import (_CHUNK, _CHUNK_CELLS, DETECTED,
                          TRIVIAL, UNDETECTABLE, MomentReport,
                          _error_sums, _error_table, _gaussian_groups,
                          _hadamard, _hermitian_coordinates,
                          _pauli_action, _range_basis, _seeded_rng, _sphere_batch, _uniform_batch,
                          classify_error,
                          classify_error_dense, code_projector,
                          enumerators_bruteforce, pauli_matrix,
                          pue_composite_exact, pue_nonstab_mc,
                          uniform_state, verify_mean_projector, verify_fourth_moment)
from qedet.pue import pue_composite, pue_nonstabilizer, pue_stabilizer

from oracle_reference import (classify_error_dense_loop, classify_error_loop,
                              code_space_errors, composite_loop,
                              dense_traces, enumerators_loop,
                              fourth_moment_complex, mean_projector_complex,
                              nonstab_mc_exact_loop, nonstab_trace_reference,
                              pauli_action_gather, trace_tables_loop, twirl)
from test_gf4 import _random_code, label_to_vector, self_orthogonal_codes

CATALOG_NAMES = ("trivial-n1", "bell", "c422", "five13")

# Reference single-qubit matrices, keyed by the (x, z) bits of a position.
_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def kron_pauli(v: GF4Vector) -> np.ndarray:
    """Reference Pauli matrix: Kronecker product of the single-qubit factors."""
    m = np.ones((1, 1), dtype=complex)
    for q in range(v.n):
        m = np.kron(m, _SINGLE[v.symbol(q)])
    return m


def subset_sum_projector(code: AdditiveCode) -> np.ndarray:
    """Reference projector (1/2^r) sum over generator subsets of their products."""
    dim, r = 1 << code.n, code.rank
    gens = [kron_pauli(g) for g in code.generators]
    total = np.zeros((dim, dim), dtype=complex)
    for mask in range(1 << r):
        prod = np.eye(dim, dtype=complex)
        for i, g in enumerate(gens):
            if mask >> i & 1:
                prod = prod @ g
        total += prod
    return total / (1 << r)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_n6_code(seed: int) -> AdditiveCode:
    """A seeded random self-orthogonal [[6, 6 - r]] code with r in 2..5."""
    rng = random.Random(seed)
    return _random_code(6, rng.randint(2, 5), rng)


# Codes with a large code-space error table, 4^n K^2 > 2^16: n = 5 with
# K = 16 (rank 1) and n = 6 with K >= 8 (random_n6_code seeds 1-4 have rank
# 3, 2, 3, 3).  The closed forms read only the 4^n trace tables, so these
# check them where the per-state references are costliest.
LARGE_CODES = {
    "n5-r1-0": _random_code(5, 1, random.Random(0)),
    "n5-r1-1": _random_code(5, 1, random.Random(1)),
    **{f"random-n6-{s}": _random_n6_code(s) for s in range(1, 5)},
}


def _variance_band(target: float, samples: int) -> float:
    """4 x sqrt(t (1 - t) / N): each sample lies in [0, 1], so its variance
    is at most t (1 - t), whatever the sample's own spread."""
    return 4 * np.sqrt(target * (1 - target) / samples)


# --- Pauli tensor algebra -------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_pauli_matrix_equals_kron_exhaustive(n):
    for v in all_vectors(n):
        assert np.array_equal(pauli_matrix(v), kron_pauli(v)), str(v)


def test_pauli_matrix_equals_kron_sampled_n6():
    rng = _rng(12)
    for x, z in rng.integers(0, 64, size=(300, 2)):
        v = GF4Vector(6, int(x), int(z))
        assert np.array_equal(pauli_matrix(v), kron_pauli(v)), str(v)


@pytest.mark.parametrize("n", range(7))
def test_pauli_action_phases_equal_the_gather(n):
    # One Hadamard row scaled by H[z, x] against the signs gathered at
    # j = rows, bit for bit (the sign of every zero part included): every
    # word for n <= 4, 300 sampled words at n = 5 and n = 6.
    if n <= 4:
        words = list(all_vectors(n))
    else:
        words = [GF4Vector(n, int(x), int(z))
                 for x, z in _rng(n).integers(0, 1 << n, size=(300, 2))]
    for v in words:
        rows, phases = _pauli_action(v)
        want_rows, want = pauli_action_gather(v)
        assert np.array_equal(rows, want_rows), str(v)
        assert np.array_equal(phases.view(np.uint64), want.view(np.uint64)), str(v)


def test_identity_matrix():
    assert np.array_equal(pauli_matrix(GF4Vector.zero(2)), np.eye(4))


def test_single_qubit_matrices_are_hermitian_and_unitary():
    for v in all_vectors(1):
        m = pauli_matrix(v)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m.conj().T, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_orthogonality_exhaustive(n):
    mats = [(v, pauli_matrix(v)) for v in all_vectors(n)]
    for v1, m1 in mats:
        for v2, m2 in mats:
            expected = 2**n if v1 == v2 else 0.0
            assert abs(np.trace(m1 @ m2) - expected) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutation_matches_trace_inner_exhaustive(n):
    mats = [(v, pauli_matrix(v)) for v in all_vectors(n)]
    for v1, m1 in mats:
        for v2, m2 in mats:
            sign = -1 if trace_inner(v1, v2) else 1
            assert np.allclose(m1 @ m2, sign * (m2 @ m1), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_trace_identity_exhaustive(n):
    # Tr(E1 E2 E1 E2) = (-1)^(e1*e2) 2^n
    mats = [(v, pauli_matrix(v)) for v in all_vectors(n)]
    for v1, m1 in mats:
        for v2, m2 in mats:
            expected = (-1) ** trace_inner(v1, v2) * 2**n
            prod = m1 @ m2
            assert abs(np.sum(prod * prod.T) - expected) < 1e-10


def test_oracle_cap():
    with pytest.raises(ValueError):
        pauli_matrix(GF4Vector.zero(7))
    assert pauli_matrix(GF4Vector.zero(7), cap=7).shape == (128, 128)


# --- projectors ------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_code_projector_equals_subset_sum(name):
    code = get_code(name)
    assert np.array_equal(code_projector(code), subset_sum_projector(code))


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=5))
def test_code_projector_equals_subset_sum_random(code):
    assert np.array_equal(code_projector(code), subset_sum_projector(code))


def _code_state(name):
    return uniform_state(code_projector(get_code(name)), _rng(13))


def test_c422_group_signs():
    # (XXXX)(ZZZZ) picks up (-i)^4 = +1, so code states are fixed by YYYY.
    v = _code_state("c422")
    assert np.allclose(pauli_matrix(label_to_vector("YYYY")) @ v, v, atol=1e-12)


def test_bell_group_has_a_negative_sign():
    # (XX)(ZZ) = -YY, so the Bell state is a -1 eigenvector of bare YY.
    v = _code_state("bell")
    assert np.allclose(pauli_matrix(label_to_vector("YY")) @ v, -v, atol=1e-12)


def test_single_generator_projector():
    p = code_projector(AdditiveCode(1, (label_to_vector("X"),)))
    assert np.array_equal(p, np.full((2, 2), 0.5))


def test_projector_rejects_non_commuting():
    code = AdditiveCode(1, (label_to_vector("X"), label_to_vector("Z")))
    with pytest.raises(ValueError):
        code_projector(code)


def test_projector_of_trivial_group_is_identity():
    assert np.array_equal(code_projector(AdditiveCode(2, ())), np.eye(4))


def test_projector_cap():
    with pytest.raises(ValueError):
        code_projector(AdditiveCode(7, ()))
    assert code_projector(AdditiveCode(7, ()), cap=7).shape == (128, 128)


@pytest.mark.parametrize("name,trace", [
    ("trivial-n1", 2), ("bell", 1), ("c422", 4), ("five13", 2),
])
def test_projector_assertions_and_trace(name, trace):
    p = code_projector(get_code(name))
    assert abs(np.trace(p).real - trace) < 1e-10
    assert np.allclose(p, p.conj().T)
    assert np.allclose(p @ p, p, atol=1e-12)


def test_projector_five13_eigentest():
    code = get_code("five13")
    p = code_projector(code)
    rng = _rng(3)
    v = uniform_state(p, rng)
    for g in code.generators:
        assert np.allclose(pauli_matrix(g) @ v, v, atol=1e-10)


def test_adjoin_error_halves_projector_trace():
    code = get_code("c422")
    bigger = AdditiveCode(4, code.generators + (label_to_vector("XXII"),))
    assert abs(np.trace(code_projector(bigger)).real - 2) < 1e-10


# --- trace-formula enumerators ---------------------------------------------


def test_bruteforce_whole_space_n1():
    pair = enumerators_bruteforce(np.eye(2, dtype=complex), 2)
    assert pair.weights == (1, 0)
    assert pair.dual_weights == (1, 3)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_bruteforce_matches_combinatorial_path(name):
    code = get_code(name)
    pair = stabilizer_enumerators(code)
    brute = enumerators_bruteforce(code_projector(code), code.dim)
    assert brute.weights == pair.weights
    assert brute.dual_weights == pair.dual_weights


def test_bruteforce_rejects_non_projector_input():
    m = np.diag([0.5, 0.25]).astype(complex)
    with pytest.raises(ValueError):
        enumerators_bruteforce(m, 2)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_bruteforce_equals_error_loop(name):
    code = get_code(name)
    p_op = code_projector(code)
    assert enumerators_bruteforce(p_op, code.dim) == enumerators_loop(p_op, code.dim)


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=5))
def test_bruteforce_equals_error_loop_random(code):
    p_op = code_projector(code)
    assert enumerators_bruteforce(p_op, code.dim) == enumerators_loop(p_op, code.dim)


@pytest.mark.parametrize("rank", range(7))
def test_bruteforce_equals_error_loop_random_n6(rank):
    code = _random_code(6, rank, random.Random(rank))
    p_op = code_projector(code)
    assert enumerators_bruteforce(p_op, code.dim) == enumerators_loop(p_op, code.dim)


# Gottesman's [[8,3,3]] code, past the default cap of 6 qubits.
C833 = parse_code("XXXXXXXX\nZZZZZZZZ\nIXIXYZYZ\nIXZYIXZY\nIYXZXZIY\n")


def test_bruteforce_pins_the_833_code_at_cap_8():
    # The stabilizer has 2^(n-k) = 32 elements and the normalizer
    # 4^n/32 = 2^n K = 2048, which the coefficients must sum to.
    pair = enumerators_bruteforce(code_projector(C833, cap=8), 8, cap=8)
    assert pair.weights == (1, 0, 0, 0, 0, 0, 28, 0, 3)
    assert pair.dual_weights == (1, 0, 0, 56, 210, 336, 728, 504, 213)
    assert (sum(pair.weights), sum(pair.dual_weights)) == (32, 2048)
    assert pair == stabilizer_enumerators(C833)


# --- error classification ---------------------------------------------------


def test_classify_examples():
    code = get_code("c422")
    assert classify_error(code, GF4Vector.zero(4)) == TRIVIAL
    assert classify_error(code, label_to_vector("XIII")) == DETECTED
    assert classify_error(code, label_to_vector("XXII")) == UNDETECTABLE


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_classify_error_equals_trace_inner_loop(name):
    # The syndrome as parities against precomputed keys, against one
    # trace_inner call per generator, on every word.
    code = get_code(name)
    for e in all_vectors(code.n):
        assert classify_error(code, e) == classify_error_loop(code, e), str(e)


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=5))
def test_classify_error_equals_trace_inner_loop_random(code):
    for e in all_vectors(code.n):
        assert classify_error(code, e) == classify_error_loop(code, e), str(e)


def test_classify_dense_predicates():
    code = get_code("c422")
    p = code_projector(code)
    e_det = pauli_matrix(label_to_vector("XIII"))
    assert np.max(np.abs(p @ e_det @ p)) < 1e-12
    e_und = pauli_matrix(label_to_vector("XXII"))
    assert np.max(np.abs((np.eye(16) - p) @ e_und @ p)) < 1e-12


def test_classify_dense_cap():
    with pytest.raises(ValueError):
        classify_error_dense(np.eye(128, dtype=complex), GF4Vector.zero(7))


def test_classify_dense_rejects_partial_overlap():
    # P projects onto cos(pi/8)|0> + sin(pi/8)|1>: Tr(ZPZP) = <Z>^2 =
    # cos(pi/4)^2 = 1/2, neither 0 nor K = 1.
    psi = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=complex)
    p_op = np.outer(psi, psi.conj())
    with pytest.raises(ValueError, match="neither preserves"):
        classify_error_dense(p_op, label_to_vector("Z"))


# A random [[6, 6 - r]] code, r = 2..5: all 4^6 errors are classified.
RANDOM_N6 = _random_n6_code(0)


@pytest.mark.parametrize("code", [get_code("trivial-n1"), get_code("bell"),
                                  get_code("c422"), RANDOM_N6],
                         ids=["trivial-n1", "bell", "c422", "random-n6"])
def test_classification_agreement_exhaustive(code):
    p = code_projector(code)
    for e in all_vectors(code.n):
        assert classify_error(code, e) == classify_error_dense(p, e)


def test_classification_agreement_five13_sampled():
    code = get_code("five13")
    p = code_projector(code)
    rng = _rng(7)
    for _ in range(128):
        e = GF4Vector(5, int(rng.integers(32)), int(rng.integers(32)))
        assert classify_error(code, e) == classify_error_dense(p, e)


# --- the trace tables, and what is kept with a projector ---------------------


def _assert_tables_equal_row_gather(code, words):
    # Each word's table entries against one row gather, and its label
    # against the per-error formula.
    p_op = code_projector(code)
    for e in words:
        k, tr_ep, tr_epep = oracle._error_traces(p_op, e)
        want_ep, want_epep = dense_traces(p_op, e)
        assert k == code.dim
        assert abs(tr_ep - want_ep) <= 1e-12, str(e)
        assert abs(tr_epep - want_epep) <= 1e-12, str(e)
        assert (classify_error_dense(p_op, e)
                == classify_error_dense_loop(p_op, e)), str(e)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_trace_tables_equal_row_gather(name):
    code = get_code(name)
    _assert_tables_equal_row_gather(code, all_vectors(code.n))


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=5))
def test_trace_tables_equal_row_gather_random(code):
    _assert_tables_equal_row_gather(code, all_vectors(code.n))


def test_trace_tables_equal_row_gather_random_n6():
    _assert_tables_equal_row_gather(RANDOM_N6, all_vectors(6))


def _assert_tables_equal_shift_loop(p_op, tol=0.0):
    # Both tables against the per-shift loop: equal arrays for a stabilizer
    # projector, whose entries are dyadic, so that every sum is exact.
    k, t_ep, t_epep = oracle._trace_tables(p_op)
    want_k, want_ep, want_epep = trace_tables_loop(p_op)
    assert k == want_k
    if tol == 0.0:
        assert np.array_equal(t_ep, want_ep)
        assert np.array_equal(t_epep, want_epep)
    else:
        assert np.max(np.abs(t_ep - want_ep)) <= tol
        assert np.max(np.abs(t_epep - want_epep)) <= tol


@pytest.mark.parametrize("code", [*map(get_code, CATALOG_NAMES), RANDOM_N6,
                                  _random_code(7, 3, random.Random(7))],
                         ids=[*CATALOG_NAMES, "random-n6", "random-n7"])
def test_trace_tables_equal_shift_loop(code):
    _assert_tables_equal_shift_loop(code_projector(code, cap=7))


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=5))
def test_trace_tables_equal_shift_loop_random(code):
    _assert_tables_equal_shift_loop(code_projector(code))


@pytest.mark.parametrize("n,k,seed", [(1, 1, 3), (3, 3, 21), (4, 2, 5),
                                      (5, 7, 8)])
def test_trace_tables_equal_shift_loop_generic_projector(n, k, seed):
    # Entries of a random complex subspace's projector are not dyadic, so
    # the two builds round differently.
    _assert_tables_equal_shift_loop(_generic_projector(n, k, seed), 1e-12)


def test_classify_dense_rejects_a_word_of_another_length():
    # A table lookup would read another error's entry for a shorter word.
    p_op = code_projector(get_code("c422"))
    for e in (GF4Vector.zero(3), label_to_vector("XIZ"),
              label_to_vector("XXIIZ"), GF4Vector.zero(0)):
        with pytest.raises(ValueError, match="error word on a 4-qubit"):
            classify_error_dense(p_op, e)
    empty = code_projector(AdditiveCode(0, ()))
    assert classify_error_dense(empty, GF4Vector.zero(0)) == TRIVIAL
    with pytest.raises(ValueError, match="1-qubit error word on a 0-qubit"):
        classify_error_dense(empty, label_to_vector("X"))


def test_code_projector_is_read_only():
    p_op = code_projector(get_code("c422"))
    assert not p_op.flags.writeable and p_op.flags.owndata
    with pytest.raises(ValueError):
        p_op[0, 0] = 0


def _count_builds(monkeypatch) -> dict:
    """Count the calls of the oracle's table and basis builders."""
    counts = {"_trace_tables": 0, "_range_basis": 0}
    for name in counts:
        def counted(p_op, build=getattr(oracle, name), name=name):
            counts[name] += 1
            return build(p_op)
        monkeypatch.setattr(oracle, name, counted)
    return counts


@pytest.mark.parametrize("name", ["c422", "five13"])
def test_verify_battery_derives_each_projector_once(name, monkeypatch):
    # 256 classifications (every word for c422), the enumerators, the
    # Monte Carlo functional, the composite (c422 only) and the mean
    # projector check share one set of tables and one range basis.
    counts = _count_builds(monkeypatch)
    rows = dict((row[0], row[1]) for row in
                cli._verify_checks(get_code(name), 6, 2000, 5))
    assert rows["oracle_enumerators"] and rows["classification_agreement"]
    assert rows["composite_functional"] is not None
    assert counts == {"_trace_tables": 1, "_range_basis": 1}


def test_uniform_state_derives_the_basis_once(monkeypatch):
    counts = _count_builds(monkeypatch)
    p_op = code_projector(get_code("c422"))
    rng = _rng(3)
    for _ in range(20):
        uniform_state(p_op, rng)
    assert counts["_range_basis"] == 1
    for _ in range(20):
        uniform_state(p_op.copy(), rng)  # writeable: nothing is kept
    assert counts["_range_basis"] == 21


def test_kept_record_dies_with_the_projector():
    before = set(oracle._KEPT)
    p_op = code_projector(get_code("five13"))
    key = id(p_op)
    classify_error_dense(p_op, GF4Vector.zero(5))
    uniform_state(p_op, _rng(0))
    assert set(oracle._KEPT) - before == {key}
    assert len(oracle._KEPT[key]) == 2  # the tables and the basis
    del p_op
    gc.collect()
    assert key not in oracle._KEPT and set(oracle._KEPT) <= before


def test_writeable_projector_gets_its_new_contents():
    code = get_code("c422")
    xx = label_to_vector("XXII")
    bigger = AdditiveCode(4, code.generators + (xx,))  # K = 2
    before = set(oracle._KEPT)
    p_op = code_projector(code).copy()
    assert classify_error_dense(p_op, xx) == UNDETECTABLE
    assert enumerators_bruteforce(p_op, 4) == stabilizer_enumerators(code)
    p_op[:] = code_projector(bigger)
    assert classify_error_dense(p_op, xx) == TRIVIAL
    assert enumerators_bruteforce(p_op, 2) == stabilizer_enumerators(bigger)
    v = uniform_state(p_op, _rng(1))
    assert np.linalg.norm(p_op @ v - v) < 1e-12
    assert set(oracle._KEPT) <= before


# --- uniform subspace sampling ------------------------------------------------


def _check_range_basis(p_op, dim):
    basis = _range_basis(p_op)
    assert basis.shape == (len(p_op), dim)
    assert np.max(np.abs(basis @ basis.conj().T - p_op)) < 1e-12
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) < 1e-12
    assert np.array_equal(_range_basis(p_op), basis)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_range_basis_catalog(name):
    code = get_code(name)
    _check_range_basis(code_projector(code), code.dim)


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=5))
def test_range_basis_random(code):
    _check_range_basis(code_projector(code), code.dim)


@pytest.mark.parametrize("rank", range(7))
def test_range_basis_random_n6(rank):
    code = _random_code(6, rank, random.Random(rank))
    _check_range_basis(code_projector(code), code.dim)


def test_range_basis_rejects_zero_and_non_projectors():
    with pytest.raises(RuntimeError):
        _range_basis(np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError, match="not a projector"):
        _range_basis(0.5 * np.eye(4, dtype=complex))


@pytest.mark.parametrize("code", [get_code("c422"), get_code("five13"),
                                  _random_n6_code(2)],
                         ids=["c422", "five13", "random-n6"])
def test_uniform_batch_fourth_moment(code):
    # For uniform v on the K-sphere of range(P), E|<a, v>|^4 =
    # 2 ||P a||^4 / (K (K + 1)).  Each sample lies in [0, ||P a||^4], so its
    # variance is at most mu (||P a||^4 - mu).
    p_op = code_projector(code)
    a = _rng(21).standard_normal((len(p_op), 2)) @ [1, 1j]
    top = np.linalg.norm(p_op @ a) ** 4
    mu = 2 * top / (code.dim * (code.dim + 1))
    samples = 20000
    v = _uniform_batch(_range_basis(p_op), samples, _rng(22))
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1)) < 1e-12
    mean = np.mean(np.abs(v.conj() @ a) ** 4)
    assert abs(mean - mu) <= 4 * np.sqrt(mu * (top - mu) / samples)


def test_uniform_state_unit_norm():
    p = code_projector(get_code("c422"))
    rng = _rng(4)
    for _ in range(50):
        assert abs(np.linalg.norm(uniform_state(p, rng)) - 1) < 1e-12


def test_uniform_state_rank_one_is_fixed_up_to_phase():
    p = code_projector(get_code("bell"))
    rng = _rng(5)
    v1 = uniform_state(p, rng)
    v2 = uniform_state(p, rng)
    assert abs(abs(np.vdot(v1, v2)) - 1) < 1e-12


def test_uniform_state_zero_projector_fails():
    with pytest.raises(RuntimeError):
        uniform_state(np.zeros((4, 4)), _rng(0))


def test_uniform_state_mean_outer_product():
    code = get_code("trivial-n1")
    p = code_projector(code)
    rng = _rng(6)
    acc = np.zeros((2, 2), dtype=complex)
    n = 20000
    for _ in range(n):
        v = uniform_state(p, rng)
        acc += np.outer(v, v.conj())
    assert np.linalg.norm(acc / n - p / 2) < 4 * np.sqrt(0.5 / n)


# --- moment-identity reports -------------------------------------------------------------


def test_mean_projector_within_band():
    p = code_projector(get_code("five13"))
    report = verify_mean_projector(p, 2, 20000, _rng(8))
    assert report.samples == 20000
    assert report.within(4.0)


def test_moment_sigma_is_the_predicted_rms():
    # One state lies sqrt(1 - 1/K) from P/K and one fourth-moment sample
    # sqrt(1 - 2/(K (K + 1))) from its target; N samples shrink that by
    # sqrt(N).
    for name, n in (("five13", 2000), ("c422", 333)):
        code = get_code(name)
        k = code.dim
        report = verify_mean_projector(code_projector(code), k, n, _rng(8))
        assert report.sigma == math.sqrt((1 - 1 / k) / n)
    for k, n in ((2, 2000), (4, 333), (8, 7)):
        report = verify_fourth_moment(k, n, _rng(8))
        assert report.sigma == math.sqrt((1 - 2 / (k * (k + 1))) / n)


@pytest.mark.parametrize("check", [
    partial(verify_mean_projector, code_projector(get_code("five13")), 2),
    partial(verify_mean_projector, code_projector(get_code("c422")), 4),
    partial(verify_fourth_moment, 2), partial(verify_fourth_moment, 4),
    partial(verify_fourth_moment, 8), partial(verify_fourth_moment, 64)],
    ids=["five13", "c422", "fourth-K2", "fourth-K4", "fourth-K8",
         "fourth-K64"])
def test_one_sample_lies_exactly_sigma_away(check):
    # ||X - target||_F^2 is the same for every pure-state sample X, so one
    # sample's deviation is the predicted rms itself.
    for seed in range(5):
        report = check(1, _rng(seed))
        assert abs(report.deviation - report.sigma) <= 1e-12
        assert report.within(4.0)


def test_mean_projector_rank_one_is_deterministic():
    p = code_projector(get_code("bell"))
    report = verify_mean_projector(p, 1, 500, _rng(9))
    assert report.deviation < 1e-12
    assert report.sigma == 0 and report.within(4.0)


def test_within_is_deterministic_without_sampling_spread():
    # sigma == 0 (K = 1): a zero-width band would fail a rounding-level
    # deviation, so it gives way to 1e-10.
    assert MomentReport(1.1e-16, 0.0, 500).within(4.0)
    assert not MomentReport(2e-10, 0.0, 500).within(4.0)
    assert MomentReport(3.9e-3, 1e-3, 500).within(4.0)
    assert not MomentReport(4.1e-3, 1e-3, 500).within(4.0)


@pytest.mark.parametrize("code", [get_code("bell"), get_code("c422"),
                                  get_code("five13"), _random_code(6, 4, random.Random(4))],
                         ids=["bell", "c422", "five13", "random-n6-r4"])
def test_mean_projector_block_equals_dense_outer_products(code):
    # The library sums u u^dag in K code-space coordinates and maps the
    # mean through L; the reference draws the same states in full space,
    # v = L u, in one call, and sums v v^dag.
    p_op = code_projector(code)
    report = verify_mean_projector(p_op, code.dim, 200, _rng(15))
    w = _uniform_batch(_range_basis(p_op), 200, _rng(15))
    want = np.linalg.norm(w.T @ w.conj() / 200 - p_op / code.dim)
    assert report.deviation == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_fourth_moment_within_band():
    report = verify_fourth_moment(2, 20000, _rng(10))
    assert report.within(4.0)


def test_fourth_moment_rank_one_exact():
    report = verify_fourth_moment(1, 200, _rng(11))
    assert report.deviation < 1e-12


def test_moment_checks_need_one_sample():
    p = code_projector(get_code("five13"))
    with pytest.raises(ValueError, match="at least 1 sample"):
        verify_mean_projector(p, 2, 0, _rng(12))
    with pytest.raises(ValueError, match="at least 1 sample"):
        verify_fourth_moment(2, 0, _rng(12))
    assert verify_mean_projector(p, 2, 1, _rng(12)).samples == 1
    assert verify_fourth_moment(2, 1, _rng(12)).sigma > 0


def _generic_projector(n: int, k: int, seed: int) -> np.ndarray:
    """Projector onto a random k-dimensional complex subspace of C^(2^n);
    unlike a stabilizer code's, its code-space forms are complex."""
    rng = _rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((1 << n, k))
                        + 1j * rng.standard_normal((1 << n, k)))
    return q @ q.conj().T


# Projectors with their rank K in {1, 2, 3, 4, 8, 16}, small enough for the
# complex-coordinate moment references.
DIFFERENTIAL = {
    "bell": (code_projector(get_code("bell")), 1),
    "trivial-n1": (code_projector(get_code("trivial-n1")), 2),
    "five13": (code_projector(get_code("five13")), 2),
    "c422": (code_projector(get_code("c422")), 4),
    "random-n5-r3": (code_projector(_random_code(5, 3, random.Random(3))), 4),
    "random-n5-r2": (code_projector(_random_code(5, 2, random.Random(5))), 8),
    "random-n4-r0": (code_projector(_random_code(4, 0, random.Random(0))), 16),
    "generic-n3-k3": (_generic_projector(3, 3, 21), 3),
}
TOTALS = (1, 2, 255, 256, 257, 511, 513, 2047, 2049, 20000)


def _affordable(k: int, total: int) -> bool:
    # The complex-coordinate references cost K^4 per state; 20000 states
    # at K >= 8 would take seconds.
    return k <= 4 or total < 20000


def _same_report(got: MomentReport, want: MomentReport) -> None:
    """Deviations within 1e-12 relative (1e-14 absolute where the target is
    met exactly, as for K = 1), the same sigma and the same verdict."""
    assert got.deviation == pytest.approx(want.deviation, rel=1e-12, abs=1e-14)
    assert (got.sigma, got.samples) == (want.sigma, want.samples)
    assert got.within(4.0) == want.within(4.0)


@pytest.mark.parametrize("total", sorted({2, 3, 99, 100, 101, 150, 1234,
                                           20000, *TOTALS}))
def test_streaming_jackknife_equals_block_list(total):
    # The library draws runs of states, column by column, and sums the
    # runs; the references draw every state in one call, row by row.
    # verify_mean_projector then verify_fourth_moment run on one generator,
    # as in the verify battery, which must end in the references' state.
    for p_op, k in DIFFERENTIAL.values():
        if not _affordable(k, total):
            continue
        got_rng, want_rng = _rng(total), _rng(total)
        _same_report(verify_mean_projector(p_op, k, total, got_rng),
                     mean_projector_complex(p_op, k, total, want_rng))
        _same_report(verify_fourth_moment(k, total, got_rng),
                     fourth_moment_complex(k, total, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
def test_gaussian_groups_follow_the_block_stream(dim):
    # A state is 2K consecutive normals, so a stream's states do not depend
    # on how they are split into calls: runs of any width and _sphere_batch
    # calls of any sizes give the same states, and a run's columns are
    # _sphere_batch's states before normalisation.
    for total in TOTALS:
        want_rng = _rng(total)
        want = _sphere_batch(total, dim, want_rng)
        cuts = sorted(random.Random(total).choices(range(total + 1), k=3))
        rng = _rng(total)
        parts = [_sphere_batch(b - a, dim, rng)
                 for a, b in zip([0, *cuts], [*cuts, total])]
        assert np.array_equal(np.concatenate(parts), want)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        for width in (1, dim * dim, _CHUNK_CELLS + 1):
            rng = _rng(total)
            groups = list(_gaussian_groups(total, dim, width, rng))
            step = max(_CHUNK_CELLS // max(width, 2 * dim), _CHUNK)
            assert [g.shape for g in groups] == [
                (2, dim, min(step, total - d)) for d in range(0, total, step)]
            assert all(g.flags.c_contiguous for g in groups)
            g = np.concatenate(groups, axis=2)
            u = np.ascontiguousarray((g[0] + 1j * g[1]).T)
            assert np.array_equal(u / np.linalg.norm(u, axis=1)[:, None], want)
            assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
def test_hermitian_coordinates_give_the_outer_products(dim):
    # The coordinates q_i of H_i = conj(u_i) u_i^T are an isometric image of
    # vec(H_i): q_i . q_j = Tr(H_i H_j) = |<u_i, u_j>|^2.  Their K diagonal
    # entries |u_a|^2 sum to 1.  A missing sqrt2 breaks the first identity.
    g = _rng(dim).standard_normal((2, dim, 300))
    u = g[0] + 1j * g[1]
    u /= np.linalg.norm(u, axis=0)
    q = _hermitian_coordinates(g)
    assert q.shape == (dim * dim, 300)
    assert np.max(np.abs(q.T @ q - np.abs(u.conj().T @ u) ** 2)) < 1e-14
    assert np.max(np.abs(q[:dim].sum(axis=0) - 1)) < 1e-14


def _traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs; numpy reports its buffers
    to tracemalloc.  One untraced call first leaves out what only a first
    call in the process allocates (numpy's lazily imported modules, the
    per-n index tables)."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 1 << 20


def test_mean_projector_memory_is_bounded():
    code = _random_code(6, 4, random.Random(4))
    p_op = code_projector(code)
    assert _traced_peak(verify_mean_projector, p_op, code.dim, 20000,
                        _rng(13)) < 2 * MiB


def test_fourth_moment_memory_is_bounded():
    assert _traced_peak(verify_fourth_moment, 16, 2000, _rng(14)) < 16 * MiB
    # K = 64, the k = n edge of the default cap: the K^4 float64 accumulator
    # and one run's product, with no complex K^4 temporary.
    k = 64
    assert _traced_peak(verify_fourth_moment, k, 1, _rng(14)) < 2.5 * k**4 * 8


def test_nonstab_mc_memory_is_bounded():
    # The closed form sums the projector's kept 4^n trace tables against
    # one 4^n error table; no state and no code-space table is formed.
    code = _random_code(6, 4, random.Random(4))
    assert _traced_peak(pue_nonstab_mc, code_projector(code), code.dim, 0.1,
                        20000) < MiB // 2


def test_bruteforce_memory_is_bounded():
    code = _random_code(6, 2, random.Random(2))
    assert _traced_peak(enumerators_bruteforce, code_projector(code),
                        code.dim) < MiB


def test_fourth_moment_target_trace():
    # The analytic fourth-moment target is Hermitian with unit trace.
    for dim in (2, 3, 4):
        swap = np.zeros((dim * dim, dim * dim))
        for i in range(dim):
            for j in range(dim):
                swap[i * dim + j, j * dim + i] = 1
        target = (np.eye(dim * dim) + swap) / (dim * (dim + 1))
        assert np.allclose(target, target.conj().T)
        assert abs(np.trace(target) - 1) < 1e-12


# --- Monte Carlo of the uniform functional ------------------------------------


def test_pue_nonstab_mc_zero_noise_is_exact_zero():
    p = code_projector(get_code("c422"))
    est = pue_nonstab_mc(p, 4, 0.0, 500, seed=0)
    assert est.estimate == 0.0 and est.stderr == 0.0


def test_pue_nonstab_mc_rank_one_is_zero():
    p = code_projector(get_code("bell"))
    est = pue_nonstab_mc(p, 1, 0.2, 2000, seed=1)
    assert abs(est.estimate) < 1e-12


def test_pue_nonstab_mc_within_band():
    # A [[6, 3]] code (4^n K^2 = 2^18): the closed form, not a sample mean,
    # so it equals K/(K + 1) times the stabilizer polynomial.
    code = LARGE_CODES["random-n6-1"]
    p = code_projector(code)
    pair = stabilizer_enumerators(code)
    est = pue_nonstab_mc(p, code.dim, 0.1, 10000, seed=2)
    assert est.stderr == 0.0
    assert abs(est.estimate - pue_nonstabilizer(pair, 0.1)) <= 1e-12


def test_pue_nonstab_mc_sampled_error_path():
    # Every error is summed, none sampled: on an n = 5, K = 16 code the
    # closed form equals the dense trace reference summed error by error.
    code = LARGE_CODES["n5-r1-0"]
    p = code_projector(code)
    est = pue_nonstab_mc(p, code.dim, 0.2, 20000, seed=3)
    want = nonstab_trace_reference(p, 0.2)
    assert want > 0 and est.stderr == 0.0
    assert est.estimate == pytest.approx(want, rel=1e-12, abs=0)


def test_pue_nonstab_mc_reproducible_for_a_seed():
    # The seed is checked and echoed; the estimate does not depend on it.
    code = LARGE_CODES["random-n6-1"]
    p = code_projector(code)
    a = pue_nonstab_mc(p, code.dim, 0.1, 3001, seed=5)
    b = pue_nonstab_mc(p, code.dim, 0.1, 3001, seed=6)
    assert a == oracle.MCEstimate(b.estimate, 0.0, 3001, 5, 0.1)
    assert b.seed == 6
    with pytest.raises(ValueError, match="seed"):
        pue_nonstab_mc(p, code.dim, 0.1, 3001, seed=-1)


def test_seeded_rng_keeps_the_spawn_key_0_stream():
    # The stream every seeded estimate and simulation draws from.
    for seed in (0, 7, 2**40):
        want = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(0,))))
        assert np.array_equal(_seeded_rng(seed).random(8), want.random(8))


# Random codes on 4, 5 and 6 qubits whose (4^n, K^2) code-space error
# tables (`code_space_errors`) have at most 2^16 entries.
EXACT_CODES = {
    "random-n4": _random_code(4, 2, random.Random(4)),
    "random-n5-r2": _random_code(5, 2, random.Random(5)),
    "random-n6-r4": _random_code(6, 4, random.Random(4)),
}


@pytest.mark.parametrize("name,p,samples", [
    ("trivial-n1", 0.3, 2000),
    ("c422", 0.1, 3001),
    ("c422", 0.75, 1000),
    ("random-n4", 0.2, 1500),
    ("five13", 0.1, 600),
    ("random-n5-r2", 0.2, 600),
    ("random-n6-r4", 0.1, 300),
    ("n5-r1-0", 0.2, 600),
    ("random-n6-1", 0.1, 300),
])
def test_pue_nonstab_mc_exact_branch_equals_error_loop(name, p, samples):
    # The closed form is the mean over uniform states of each state's exact
    # error sum, which the loop takes with one dense P E product per error:
    # the loop's sample mean lies within the variance-bound band.
    code = {**EXACT_CODES, **LARGE_CODES}.get(name) or get_code(name)
    p_op = code_projector(code)
    got = pue_nonstab_mc(p_op, code.dim, p, samples, seed=7)
    mean, stderr = nonstab_mc_exact_loop(p_op, p, samples, seed=7)
    assert got.estimate > 0 and got.stderr == 0.0
    assert abs(mean - got.estimate) <= _variance_band(got.estimate, samples)
    if name in ("five13", "trivial-n1"):
        # Every state has the same value here, which is then the average.
        assert stderr < 1e-11
        assert mean == pytest.approx(got.estimate, rel=1e-12, abs=0)


@pytest.mark.parametrize("n,rank,exact", [
    (5, 2, True), (6, 4, True), (5, 1, False), (6, 3, False),
])
def test_pue_nonstab_mc_branch_rule_boundary(n, rank, exact):
    # 4^n K^2 is 2^16 for n = 5, K = 8 and n = 6, K = 4, and 2^18 for
    # n = 5, K = 16 and n = 6, K = 8: on either side of that size the
    # closed form equals the dense trace reference.
    code = _random_code(n, rank, random.Random(n + rank))
    assert (4 ** n * code.dim ** 2 <= 1 << 16) == exact
    p_op, p = code_projector(code), 0.2
    got = pue_nonstab_mc(p_op, code.dim, p, 200, seed=13)
    want = nonstab_trace_reference(p_op, p)
    assert want > 0 and got.stderr == 0.0
    assert got.estimate == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["trivial-n1", "bell", "c422"])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.75])
def test_code_space_twirl_is_partial_trace_of_gram(name, p):
    # sum_E Pr(E) M_E^dag M_E = L^dag T L for the twirl T = sum_E Pr(E)
    # E^dag P E (P = L L^dag), the partial trace of the Gram form
    # G = sum_E Pr(E) vec(M_E) vec(M_E)^dag; its trace is the norm sum of
    # the closed forms, pinned here to the full-space reference.
    p_op = code_projector(get_code(name))
    n = (len(p_op) - 1).bit_length()
    basis = _range_basis(p_op)
    probs, h = _error_table(n, p), _hadamard(n)
    want = np.trace(basis.conj().T @ twirl(p_op, probs, h) @ basis)
    assert abs(_error_sums(p_op, p)[0] - want) < 1e-12


@pytest.mark.parametrize("code", [get_code("c422"), get_code("five13"),
                                  EXACT_CODES["random-n5-r2"],
                                  EXACT_CODES["random-n6-r4"]],
                         ids=["c422", "five13", "random-n5-r2", "random-n6-r4"])
def test_code_space_gram_equals_error_table(code):
    # The two sums of the closed forms, taken from the trace tables, are
    # the contractions Tr G and vec(I)^T G vec(I) of the Gram form of the
    # whole (4^n, K^2) table of M_E = L^dag E L, which the library never
    # forms.
    p_op = code_projector(code)
    basis, h = _range_basis(p_op), _hadamard(code.n)
    probs = _error_table(code.n, 0.2)
    m_err = code_space_errors(basis, h)
    gram = m_err.T @ (probs.reshape(-1, 1) * m_err.conj())
    eye = np.eye(code.dim).ravel()
    norms, traces = _error_sums(p_op, 0.2)
    assert abs(norms - np.trace(gram)) < 1e-12
    assert abs(traces - eye @ gram @ eye) < 1e-12


def test_pue_nonstab_mc_exact_branch_generic_projector():
    # Part I's functional is defined for any projector, and so is the
    # closed form: on a projector with complex code-space errors it matches
    # the dense trace reference and the per-state error loop.
    rng = _rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((16, 3))
                        + 1j * rng.standard_normal((16, 3)))
    p_op = q @ q.conj().T
    got = pue_nonstab_mc(p_op, 3, 0.2, 1200, seed=9)
    mean = nonstab_mc_exact_loop(p_op, 0.2, 1200, seed=9)[0]
    assert got.estimate == pytest.approx(nonstab_trace_reference(p_op, 0.2),
                                         rel=1e-12, abs=0)
    assert abs(mean - got.estimate) <= _variance_band(got.estimate, 1200)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_branch_equals_chunk_reference(name):
    # The closed form, summed over the trace tables, against the dense
    # trace reference summed error by error.
    p_op, k = DIFFERENTIAL[name]
    for p in (0.05, 0.3, 0.75):
        got = pue_nonstab_mc(p_op, k, p, 1000, seed=1)
        assert got.estimate == pytest.approx(nonstab_trace_reference(p_op, p),
                                             rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(self_orthogonal_codes(max_n=4))
def test_exact_branch_equals_trace_reference_random(code):
    p_op = code_projector(code)
    for p in (0.1, 0.6):
        got = pue_nonstab_mc(p_op, code.dim, p, 1000, seed=1).estimate
        assert got == pytest.approx(nonstab_trace_reference(p_op, p),
                                    rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("code", [get_code(name) for name in CATALOG_NAMES]
                         + list(EXACT_CODES.values()),
                         ids=[*CATALOG_NAMES, *EXACT_CODES])
def test_exact_branch_equals_pue_nonstabilizer(code):
    # K/(K + 1) times the stabilizer polynomial, from the enumerators.
    p_op, pair = code_projector(code), stabilizer_enumerators(code)
    for p in (0.0, 0.05, 0.1, 0.3, 0.75):
        est = pue_nonstab_mc(p_op, code.dim, p, 1000, seed=1)
        assert abs(est.estimate - pue_nonstabilizer(pair, p)) <= 1e-12, p


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_branch_runs_are_invisible(name, monkeypatch):
    # No state is drawn: samples and seed only echo back, and the estimate
    # is the same for every run, with stderr 0.
    def no_draws(*args):
        raise AssertionError("the closed form draws no state")
    p_op, k = DIFFERENTIAL[name]
    monkeypatch.setattr(oracle, "_sphere_batch", no_draws)
    monkeypatch.setattr(oracle, "_gaussian_groups", no_draws)
    want = pue_nonstab_mc(p_op, k, 0.2, 1, seed=0).estimate
    for total in (1, 255, 257, 2049):
        for seed in (0, 3):
            est = pue_nonstab_mc(p_op, k, 0.2, total, seed=seed)
            assert est == oracle.MCEstimate(want, 0.0, total, seed, 0.2)
    # A negative seed is refused all the same.
    with pytest.raises(ValueError):
        pue_nonstab_mc(p_op, k, 0.2, 1, seed=-1)


@pytest.mark.parametrize("name", LARGE_CODES)
def test_pue_nonstab_mc_sampled_branch_variance_band(name):
    # The closed form on the large codes: one call, K/(K + 1) times the
    # stabilizer polynomial.
    code = LARGE_CODES[name]
    target = pue_nonstabilizer(stabilizer_enumerators(code), 0.1)
    est = pue_nonstab_mc(code_projector(code), code.dim, 0.1, 20000, seed=0)
    assert target > 0 and est.stderr == 0.0
    assert abs(est.estimate - target) <= 1e-12


@pytest.mark.parametrize("code", [LARGE_CODES["n5-r1-1"],
                                  LARGE_CODES["random-n6-1"]],
                         ids=["n5-r1", "random-n6"])
def test_pue_nonstab_mc_zero_noise_sampled_branch(code):
    # The closed form of a large code at p = 0 is exactly 0.
    est = pue_nonstab_mc(code_projector(code), code.dim, 0.0, 1000, seed=0)
    assert est.estimate == 0.0 and est.stderr == 0.0


@pytest.mark.parametrize("name,p", [
    ("c422", 0.75), ("five13", 0.75), ("trivial-n1", 0.1), ("trivial-n1", 0.75),
])
def test_pue_nonstab_mc_edge_cases_within_band(name, p):
    # The closed form at the edge p = 3/4 and on the one-qubit code: one
    # call, equal to the dense trace reference and to the polynomial.
    code = get_code(name)
    p_op = code_projector(code)
    est = pue_nonstab_mc(p_op, code.dim, p, 20000, seed=2).estimate
    assert abs(est - nonstab_trace_reference(p_op, p)) <= 1e-12
    assert abs(est - pue_nonstabilizer(stabilizer_enumerators(code), p)) <= 1e-12


# --- composite-system functional -----------------------------------------------


def test_composite_exact_matches_formula():
    for name in ("bell", "c422"):
        code = get_code(name)
        p_op = code_projector(code)
        pair = stabilizer_enumerators(code)
        for p in (0.05, 0.3):
            got = pue_composite_exact(p_op, code.dim, p)
            assert got == pytest.approx(pue_stabilizer(pair, p), abs=1e-10)


def test_composite_exact_zero_noise():
    p_op = code_projector(get_code("c422"))
    assert pue_composite_exact(p_op, 4, 0.0) == 0.0


def test_composite_exact_rank_one_is_zero():
    p_op = code_projector(get_code("bell"))
    assert abs(pue_composite_exact(p_op, 1, 0.3)) < 1e-12


@pytest.mark.parametrize("code,exact", [
    (get_code("five13"), True),
    (EXACT_CODES["random-n5-r2"], True),
    (EXACT_CODES["random-n6-r4"], True),
    (_random_code(5, 1, random.Random(6)), False),
    (_random_code(6, 3, random.Random(9)), False),
], ids=["five13", "random-n5-r2", "random-n6-r4", "n5-r1", "n6-r3"])
def test_composite_exact_size_rule_boundary(code, exact):
    # 4^n K^2 is 2^12 for five13, 2^16 for n = 5, K = 8 and n = 6, K = 4,
    # and 2^18 for n = 5, K = 16 and n = 6, K = 8: every size is evaluated
    # and equals the error loop.
    assert (4 ** code.n * code.dim ** 2 <= 1 << 16) == exact
    p_op = code_projector(code)
    for p in (0.05, 0.3):
        got = pue_composite_exact(p_op, code.dim, p)
        assert got > 0
        assert abs(got - composite_loop(p_op, code.dim, p)) <= 1e-13


@pytest.mark.parametrize("name", ["trivial-n1", "bell", "c422", "five13"])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.75])
def test_composite_exact_equals_error_loop(name, p):
    code = get_code(name)
    p_op = code_projector(code)
    got = pue_composite_exact(p_op, code.dim, p)
    assert abs(got - composite_loop(p_op, code.dim, p)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(self_orthogonal_codes(max_n=4))
def test_composite_exact_equals_error_loop_random(code):
    p_op = code_projector(code)
    for p in (0.1, 0.6):
        got = pue_composite_exact(p_op, code.dim, p)
        assert abs(got - composite_loop(p_op, code.dim, p)) <= 1e-13


@pytest.mark.parametrize("call", [
    lambda p_op: enumerators_bruteforce(p_op, 2),
    lambda p_op: pue_nonstab_mc(p_op, 3, 0.1, 10),
    lambda p_op: verify_mean_projector(p_op, 2, 500, _rng(0)),
    lambda p_op: pue_composite_exact(p_op, 2, 0.1),
], ids=["enumerators_bruteforce", "pue_nonstab_mc", "verify_mean_projector",
        "pue_composite_exact"])
def test_declared_dimension_must_be_the_rank(call):
    # c422's projector has rank 4.  Unchecked, a wrong K scales the trace
    # enumerators to (4, 0, 0, 0, 12) and moves the mean projector's
    # target, failing a correct sampler.
    with pytest.raises(ValueError, match="rank does not match"):
        call(code_projector(get_code("c422")))


@pytest.mark.parametrize("call", [
    lambda p_op: pue_nonstab_mc(p_op, 2, 0.1, 10),
    lambda p_op: pue_composite_exact(p_op, 2, 0.1),
], ids=["pue_nonstab_mc", "pue_composite_exact"])
def test_functionals_refuse_a_non_projector(call):
    # 0.5 I has the declared trace 2 but is no projector; its trace tables
    # alone would give a value.
    with pytest.raises(ValueError, match="not a projector"):
        call(0.5 * np.eye(4, dtype=complex))


@pytest.mark.parametrize("p", [0.0, 0.3, 0.75])
def test_functionals_of_zero_qubits_are_zero(p):
    # The only error on n = 0 qubits is the identity, whose entry of the
    # error table is 0.
    p_op = np.eye(1, dtype=complex)
    assert pue_nonstab_mc(p_op, 1, p, 5) == oracle.MCEstimate(0.0, 0.0, 5, 0, p)
    assert pue_composite_exact(p_op, 1, p) == 0.0


@pytest.mark.parametrize("p", [0.0, 0.3, 0.75])
def test_composite_exact_trivial_n1(p):
    code = get_code("trivial-n1")
    got = pue_composite_exact(code_projector(code), code.dim, p)
    assert got == pytest.approx(pue_composite(stabilizer_enumerators(code), p),
                                abs=1e-12)
