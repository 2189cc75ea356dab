"""Weight distributions, MacWilliams exactness, moments, and min distance.

Frozen expected values below were computed with the field-arithmetic oracle
in test_gf4 (subset spans and exhaustive dual enumeration); the tests also
recompute them from that oracle so the two paths cannot drift apart.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qedet import enumerators
from qedet.catalog import get_code
from qedet.enumerators import (EnumeratorPair, binomial_moments,
                               check_enum_properties, hamming_weights,
                               macwilliams, min_distance,
                               stabilizer_enumerators)
from qedet.gf4 import (ENUMERATION_CAP, AdditiveCode, GF4Vector, dual,
                       parse_code)

from pue_reference import binomial_moments_reference
from test_gf4 import (_random_code, oracle_dual, oracle_span,
                      self_orthogonal_codes)

FIVE13_GENS = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]

# Frozen oracle results.
C422_B = (1, 0, 0, 0, 3)
C422_BPERP = (1, 0, 18, 24, 21)
FIVE13_B = (1, 0, 0, 0, 15, 0)
FIVE13_BPERP = (1, 0, 0, 30, 15, 18)


def _oracle_weights(words: set[str], n: int) -> tuple[int, ...]:
    counts = Counter(sum(1 for c in w if c != "I") for w in words)
    return tuple(counts.get(i, 0) for i in range(n + 1))


def test_frozen_values_match_field_oracle():
    assert _oracle_weights(oracle_span(["XXXX", "ZZZZ"]), 4) == C422_B
    assert _oracle_weights(oracle_dual(["XXXX", "ZZZZ"], 4), 4) == C422_BPERP
    assert _oracle_weights(oracle_span(FIVE13_GENS), 5) == FIVE13_B
    assert _oracle_weights(oracle_dual(FIVE13_GENS, 5), 5) == FIVE13_BPERP


def test_hamming_weights_trivial_code():
    dist = hamming_weights(AdditiveCode(3, ()))
    assert dist.counts == (1, 0, 0, 0)
    assert dist.total == 1


def test_hamming_weights_c422():
    assert hamming_weights(get_code("c422")).counts == C422_B


def test_hamming_weights_five13():
    dist = hamming_weights(get_code("five13"))
    assert dist.counts[0] == 1 and dist.total == 16
    assert dist.counts == FIVE13_B


@pytest.mark.parametrize("name,b,bperp,dim", [
    ("trivial-n1", (1, 0), (1, 3), 2),
    ("bell", (1, 0, 3), (1, 0, 3), 1),
    ("c422", C422_B, C422_BPERP, 4),
    ("five13", FIVE13_B, FIVE13_BPERP, 2),
])
def test_stabilizer_enumerators(name, b, bperp, dim):
    pair = stabilizer_enumerators(get_code(name))
    assert pair.weights == b
    assert pair.dual_weights == bperp
    assert pair.dim == dim


def test_stabilizer_enumerators_rejects_non_self_orthogonal():
    with pytest.raises(ValueError):
        stabilizer_enumerators(parse_code("XI\nZI"))


def test_dual_path_agrees_with_macwilliams_path():
    # stabilizer_enumerators takes Bperp from the transform of B; the
    # enumerated dual is the independent reference.
    for name in ("trivial-n1", "bell", "c422", "five13"):
        code = get_code(name)
        pair = stabilizer_enumerators(code)
        assert pair.dual_weights == hamming_weights(dual(code)).counts


@settings(max_examples=40, deadline=None)
@given(self_orthogonal_codes(max_n=10))
def test_macwilliams_dual_matches_enumerated_dual(code):
    pair = stabilizer_enumerators(code)
    assert pair.dual_weights == hamming_weights(dual(code)).counts


def test_macwilliams_smallest_case():
    assert macwilliams((1, 3), 1, 2, "dual_to_code") == (1, 0)
    assert macwilliams((1, 0), 1, 2, "code_to_dual") == (1, 3)


def test_macwilliams_round_trip():
    for name in ("trivial-n1", "bell", "c422", "five13"):
        pair = stabilizer_enumerators(get_code(name))
        there = macwilliams(pair.weights, pair.n, pair.dim, "code_to_dual")
        back = macwilliams(there, pair.n, pair.dim, "dual_to_code")
        assert back == pair.weights


def test_macwilliams_rejects_non_integral_input():
    # (1, 2) is not the weight distribution of any additive 1-qubit code.
    with pytest.raises(ValueError):
        macwilliams((1, 2), 1, 2, "code_to_dual")


def test_macwilliams_rejects_bad_leading_coefficient():
    with pytest.raises(ValueError):
        macwilliams((2, 0), 1, 2, "code_to_dual")


def test_binomial_moments_endpoints():
    for name in ("bell", "c422", "five13"):
        pair = stabilizer_enumerators(get_code(name))
        moments = binomial_moments(pair.weights, pair.n)
        assert moments[0] == 1
        assert moments[pair.n] == sum(pair.weights)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 70), min_size=1, max_size=60))
def test_binomial_moments_match_double_sum(counts):
    n = len(counts) - 1
    assert binomial_moments(counts, n) == binomial_moments_reference(counts, n)


def test_binomial_moments_no_generator_code_n1024():
    pair = stabilizer_enumerators(AdditiveCode(1024, ()))
    assert pair.moments == binomial_moments_reference(pair.weights, 1024)


def test_binomial_moments_rejects_wrong_length():
    with pytest.raises(ValueError):
        binomial_moments((1, 0), 2)


def test_moments_generating_identity():
    # sum_i B_i x^(n-i) y^i == sum_w M_w (x-y)^(n-w) y^w at n+1 integer points.
    for name in ("trivial-n1", "bell", "c422", "five13"):
        pair = stabilizer_enumerators(get_code(name))
        n = pair.n
        moments = pair.moments
        for x in range(2, n + 3):
            lhs = sum(b * x ** (n - i) for i, b in enumerate(pair.weights))
            rhs = sum(m * (x - 1) ** (n - w) for w, m in enumerate(moments))
            assert lhs == rhs


def test_min_distance_values():
    assert min_distance(stabilizer_enumerators(get_code("five13"))) == 3
    assert min_distance(stabilizer_enumerators(get_code("c422"))) == 2
    assert min_distance(stabilizer_enumerators(get_code("trivial-n1"))) == 1
    # Self-dual pair agrees everywhere: sentinel n + 1.
    assert min_distance(stabilizer_enumerators(get_code("bell"))) == 3


def test_min_distance_rejects_invalid_pair():
    with pytest.raises(ValueError):
        min_distance(EnumeratorPair(1, 2, (1, 2), (1, 1)))


def test_check_enum_properties_pass():
    for name in ("trivial-n1", "bell", "c422", "five13"):
        report = check_enum_properties(stabilizer_enumerators(get_code(name)))
        assert report.ok and not report.failures


def test_check_enum_properties_synthetic_violation():
    bad = EnumeratorPair(2, 1, (1, 0, 5), (1, 0, 3))  # weights[2] > dual_weights[2]
    report = check_enum_properties(bad)
    assert not report.ok
    assert "dual_dominates" in report.failures


def test_check_enum_properties_n0_edge():
    report = check_enum_properties(EnumeratorPair(0, 1, (1,), (1,)))
    assert report.ok


def test_sum_identities():
    for name in ("trivial-n1", "bell", "c422", "five13"):
        pair = stabilizer_enumerators(get_code(name))
        assert sum(pair.dual_weights) == 2 ** pair.n * pair.dim
        assert sum(pair.weights) * pair.dim == 2 ** pair.n


def test_json_dict_uses_decimal_strings():
    doc = stabilizer_enumerators(get_code("c422")).to_json_dict()
    assert doc["n"] == 4 and doc["d"] == 2
    assert doc["K"] == "4"
    assert doc["B"] == ["1", "0", "0", "0", "3"]
    assert doc["Bperp"] == ["1", "0", "18", "24", "21"]
    assert doc["moments"]["B"] == ["1", "4", "6", "4", "4"]


def test_catalog_entries_are_valid():
    from qedet.catalog import CATALOG, names
    expected_params = {
        "trivial-n1": (1, 0, 2),
        "bell": (2, 2, 1),
        "c422": (4, 2, 4),
        "five13": (5, 4, 2),
    }
    assert set(names()) == set(expected_params)
    for name, text in CATALOG.items():
        code = parse_code(text)
        assert (code.n, code.rank, code.dim) == expected_params[name]
        assert code.is_self_orthogonal
        assert check_enum_properties(stabilizer_enumerators(code)).ok


def test_enumerators_of_random_codes_round_trip():
    import random
    from test_gf4 import _random_code
    rng = random.Random(99)
    for n in range(1, 7):
        code = _random_code(n, rng.randint(1, n), rng)
        # random self-orthogonal codes exist only up to rank n
        pair = stabilizer_enumerators(code)
        assert check_enum_properties(pair).ok
        assert macwilliams(pair.weights, n, pair.dim, "code_to_dual") == pair.dual_weights
        d = dual(code)
        assert hamming_weights(d).counts == pair.dual_weights


# --- integer-key enumeration against the Gray-code walk ----------------------

def _gray_code_weights(code: AdditiveCode) -> tuple[int, ...]:
    """Weight counts from AdditiveCode.codewords(), one GF4Vector per word."""
    counts = Counter(w.weight for w in code.codewords())
    return tuple(counts.get(i, 0) for i in range(code.n + 1))


def _random_words_code(n: int, rank: int, rng) -> AdditiveCode:
    """Span of random words, not necessarily self-orthogonal."""
    words = (GF4Vector(n, rng.getrandbits(n), rng.getrandbits(n))
             for _ in range(4 * rank))
    gens = AdditiveCode.from_generators(n, words).generators
    return AdditiveCode(n, gens[:rank])


@st.composite
def wide_self_orthogonal_codes(draw):
    n = draw(st.integers(1, 130))
    rank = draw(st.integers(0, min(n, 8)))
    return _random_code(n, rank, draw(st.randoms(use_true_random=False)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(self_orthogonal_codes(), wide_self_orthogonal_codes()))
def test_hamming_weights_match_gray_code_walk(code):
    assert hamming_weights(code).counts == _gray_code_weights(code)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 96, 130])
def test_hamming_weights_lane_edges(n):
    assert hamming_weights(AdditiveCode(n, ())).counts == (1,) + (0,) * n
    rng = random.Random(n)
    for code in (_random_code(n, min(n, 6), rng),
                 _random_words_code(n, min(2 * n, 9), rng)):
        assert hamming_weights(code).counts == _gray_code_weights(code)


@pytest.mark.parametrize("block_bits", [0, 1, 3])
def test_hamming_weights_in_small_blocks(monkeypatch, block_bits):
    # Blocks smaller than the code: the low span XORed with every
    # combination of the remaining generators, block by block.
    monkeypatch.setattr(enumerators, "_BLOCK_BITS", block_bits)
    rng = random.Random(block_bits)
    for n, rank in ((5, 5), (33, 7), (70, 9)):
        code = _random_words_code(n, rank, rng)
        assert hamming_weights(code).counts == _gray_code_weights(code)


def test_hamming_weights_enumeration_cap_message():
    # 23 independent single-qubit generators: 2^23 words, one power of two
    # past the cap.  The size check raises before anything is enumerated.
    code = AdditiveCode(23, tuple(GF4Vector(23, 1 << i, 0) for i in range(23)))
    assert code.size == 2 * ENUMERATION_CAP
    with pytest.raises(ValueError) as gray:
        list(code.codewords())
    with pytest.raises(ValueError) as keys:
        hamming_weights(code)
    assert str(keys.value) == str(gray.value) == \
        "code has 8388608 elements, beyond the enumeration cap 4194304"


def test_hamming_weights_memory_is_bounded():
    # 2^20 words over three lanes: generator i is X on qubit i and Z on
    # qubit i + 40, so a combination of w generators has weight 2w.
    n, r = 70, 20
    code = AdditiveCode(n, tuple(GF4Vector(n, 1 << i, 1 << (i + 40))
                                 for i in range(r)))
    tracemalloc.start()
    try:
        counts = hamming_weights(code).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == tuple(math.comb(r, i // 2) if i % 2 == 0 and i <= 2 * r
                           else 0 for i in range(n + 1))
    assert peak < 16 << 20, peak
