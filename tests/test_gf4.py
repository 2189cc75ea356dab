"""Bit-plane GF(4) code arithmetic against an independent field-arithmetic oracle.

The oracle below works with true GF(4) field elements (multiplication table,
Galois conjugation, trace to GF(2)), never with the bit-plane shortcut the
library uses, so agreement is meaningful.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from qedet.gf4 import (ENUMERATION_CAP, AdditiveCode, CodeFormatError,
                       GF4Vector, all_vectors, dual, parse_code, pauli_label,
                       trace_inner)


def label_to_vector(label: str) -> GF4Vector:
    """The word of a Pauli label string, the inverse of pauli_label: bit i
    of the x plane is X or Y at position i, of the z plane Z or Y."""
    if set(label) - set("IXZY"):
        raise ValueError(f"not a Pauli label: {label!r}")
    x = sum(1 << i for i, ch in enumerate(label) if ch in "XY")
    z = sum(1 << i for i, ch in enumerate(label) if ch in "ZY")
    return GF4Vector(len(label), x, z)


# --- independent GF(4) oracle -------------------------------------------------
# Elements encoded 0, 1, 2, 3 for 0, 1, w, w^2 with w^2 = w + 1.

# Addition in basis {1, w} with 1 <-> 0b01, w <-> 0b10, w^2 = w + 1 <-> 0b11
# is literal XOR of the encodings.
_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],  # w*w = w^2, w*w^2 = w^3 = 1
    [0, 3, 1, 2],
]
_CONJ = [0, 1, 3, 2]        # Galois conjugation swaps w and w^2
_TRACE = [0, 0, 1, 1]       # tr(x) = x + x^2 maps {0,1} -> 0 and {w,w^2} -> 1

_ELEM_OF_LABEL = {"I": 0, "X": 1, "Z": 2, "Y": 3}


def oracle_inner(u: str, v: str) -> int:
    """Trace inner product via field arithmetic on Pauli label strings."""
    total = 0
    for cu, cv in zip(u, v, strict=True):
        a, b = _ELEM_OF_LABEL[cu], _ELEM_OF_LABEL[cv]
        total ^= _TRACE[_MUL[b][_CONJ[a]]]
    return total


def oracle_span(generators: list[str]) -> set[str]:
    """All subset sums of Pauli label strings, via field addition."""
    n = len(generators[0]) if generators else 0
    words = {"I" * n}
    for g in generators:
        g_elems = [_ELEM_OF_LABEL[c] for c in g]
        new = set()
        for w in words:
            summed = [_ELEM_OF_LABEL[c] ^ e for c, e in zip(w, g_elems)]
            new.add("".join("IXZY"[e] for e in summed))
        words |= new
    return words


def oracle_dual(generators: list[str], n: int) -> set[str]:
    """Every length-n word orthogonal to all generators, by exhaustion."""
    out = set()
    for symbols in itertools.product("IXZY", repeat=n):
        word = "".join(symbols)
        if all(oracle_inner(word, g) == 0 for g in generators):
            out.add(word)
    return out


# --- vectors and labels -------------------------------------------------------


def test_label_round_trip_examples():
    v = label_to_vector("XZY")
    assert (v.x, v.z) == (0b101, 0b110)
    assert pauli_label(v) == "XZY"
    assert label_to_vector("III").is_zero
    assert pauli_label(GF4Vector.zero(3)) == "III"


def test_weight():
    assert label_to_vector("IXZY").weight == 3
    assert GF4Vector.zero(5).weight == 0


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(1, 10))
    mk = lambda: GF4Vector(n, draw(st.integers(0, 2**n - 1)),
                           draw(st.integers(0, 2**n - 1)))
    return mk(), mk(), mk()


@given(vector_pairs())
def test_trace_inner_is_a_symmetric_biadditive_form(vecs):
    u, v, w = vecs
    assert trace_inner(u, u) == 0
    assert trace_inner(u, v) == trace_inner(v, u)
    assert trace_inner(u + v, w) == trace_inner(u, w) ^ trace_inner(v, w)


@given(vector_pairs())
def test_label_round_trip_random(vecs):
    v = vecs[0]
    assert label_to_vector(pauli_label(v)) == v


def test_trace_inner_matches_field_oracle_exhaustively_n2():
    for a in all_vectors(2):
        for b in all_vectors(2):
            assert trace_inner(a, b) == oracle_inner(pauli_label(a), pauli_label(b))


def test_trace_inner_single_symbols():
    one = label_to_vector("X")
    omega = label_to_vector("Z")
    assert trace_inner(one, omega) == 1
    assert trace_inner(one, GF4Vector.zero(1)) == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        trace_inner(GF4Vector.zero(2), GF4Vector.zero(3))


# --- parsing ------------------------------------------------------------------


def test_parse_basic():
    code = parse_code("XXXX\nZZZZ")
    assert (code.n, code.rank, code.dim) == (4, 2, 4)
    assert code.is_self_orthogonal


def test_parse_single_generator():
    code = parse_code("X")
    assert (code.n, code.rank, code.dim) == (1, 1, 1)
    assert code.is_self_orthogonal


def test_parse_drops_duplicate_rows():
    code = parse_code("XX\nXX")
    assert code.rank == 1


def test_parse_field_alphabet():
    assert parse_code("11\nww") == parse_code("XX\nZZ")
    assert parse_code("W") == parse_code("Y")


def test_parse_header_and_comments():
    code = parse_code("# a comment\nn=4 k=2\nXXXX\nZZZZ\n")
    assert (code.n, code.rank) == (4, 2)


def test_parse_empty_generator_list():
    code = parse_code("n=3 k=3\n")
    assert (code.n, code.rank, code.size) == (3, 0, 1)


def test_parse_errors():
    with pytest.raises(CodeFormatError):
        parse_code("XQXX")
    with pytest.raises(CodeFormatError):
        parse_code("XX\nXXX")
    with pytest.raises(CodeFormatError):
        parse_code("-XX")
    with pytest.raises(CodeFormatError):
        parse_code("X1")          # mixed alphabets in one row
    with pytest.raises(CodeFormatError):
        parse_code("n=3 k=1\nXX")  # header length mismatch
    with pytest.raises(CodeFormatError):
        parse_code("n=2 k=1\nXX\nZZ")  # header k mismatch


# --- codes, duals, enumeration ------------------------------------------------


def _random_code(n: int, rank: int, rng) -> AdditiveCode:
    """Random self-orthogonal code built by adjoining random dual words."""
    code = AdditiveCode(n, ())
    while code.rank < rank:
        ortho = dual(code)
        pick = GF4Vector.zero(n)
        for g in ortho.generators:
            if rng.random() < 0.5:
                pick = pick + g
        if not code.contains(pick):
            code = AdditiveCode(n, code.generators + (pick,))
    return code


@st.composite
def self_orthogonal_codes(draw, max_n: int = 8, max_dual_bits: int = 14):
    """Random self-orthogonal codes whose dual has at most 2^max_dual_bits words."""
    n = draw(st.integers(1, max_n))
    rank = draw(st.integers(max(0, 2 * n - max_dual_bits), n))
    return _random_code(n, rank, draw(st.randoms(use_true_random=False)))


def test_codewords_count_and_uniqueness():
    code = parse_code("XXXX\nZZZZ")
    words = list(code.codewords())
    assert len(words) == 4 == len(set((w.x, w.z) for w in words))
    labels = {pauli_label(w) for w in words}
    assert labels == {"IIII", "XXXX", "ZZZZ", "YYYY"}


def test_codewords_rank_zero():
    assert [w.is_zero for w in AdditiveCode(3, ()).codewords()] == [True]


def test_enumeration_cap():
    # 2^23 words; codewords() checks the size before its first word.
    code = AdditiveCode(23, tuple(GF4Vector(23, 0, 1 << i) for i in range(23)))
    assert code.size == 2 * ENUMERATION_CAP
    with pytest.raises(ValueError, match="beyond the enumeration cap"):
        next(code.codewords())


def test_dual_of_trivial_code_is_everything():
    d = dual(AdditiveCode(2, ()))
    assert d.size == 16


def test_dual_matches_exhaustive_oracle():
    code = parse_code("1111\nwwww")
    d = dual(code)
    assert d.size == 64
    got = {pauli_label(w) for w in d.codewords()}
    assert got == oracle_dual(["XXXX", "ZZZZ"], 4)
    assert all(code.contains(g) or True for g in d.generators)
    # C is contained in its dual for a self-orthogonal code
    assert all(d.contains(g) for g in code.generators)


def test_size_product_identity():
    import random
    rng = random.Random(11)
    cases = [AdditiveCode(n, ()) for n in range(7)]
    cases += [_random_code(n, rng.randint(1, n), rng) for n in range(1, 7)]
    for code in cases:
        assert code.size * dual(code).size == 4 ** code.n


def test_dual_is_an_involution():
    import random
    rng = random.Random(5)
    for n in range(1, 7):
        code = _random_code(n, rng.randint(1, n), rng)
        assert dual(dual(code)) == code


def test_from_generators_reduces_dependent_rows():
    g = label_to_vector("XX")
    code = AdditiveCode.from_generators(2, [g, g])
    assert code.rank == 1
    with pytest.raises(ValueError):
        AdditiveCode(2, (g, g))
