"""Closed-form undetected-error probabilities and their cross identities."""

from __future__ import annotations

import gc
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qedet import pue
from qedet.catalog import get_code
from qedet.enumerators import EnumeratorPair, stabilizer_enumerators
from qedet.gf4 import AdditiveCode, GF4Vector, dual
from qedet.pue import (MODES, PueResult, pue_classical, pue_composite,
                       pue_nonstabilizer, pue_stabilizer,
                       pue_stabilizer_direct, pue_via_moments, sweep,
                       sweep_csv)

from pue_reference import (coset_sum_loop, fraction_poly, moment_diffs,
                           reference_value, stabilizer_diffs)
from test_gf4 import _random_code, self_orthogonal_codes

CATALOG_NAMES = ("trivial-n1", "bell", "c422", "five13")
GRID = [i * 0.75 / 19 for i in range(20)]
GRID751 = [i / 1000 for i in range(751)]
EPS = sys.float_info.epsilon
SINGLE_POINT = {"stabilizer": pue_stabilizer, "nonstabilizer": pue_nonstabilizer,
                "composite": pue_composite, "moments": pue_via_moments}


@pytest.fixture(scope="module")
def pairs():
    return {name: stabilizer_enumerators(get_code(name)) for name in CATALOG_NAMES}


def test_p_zero_gives_zero(pairs):
    for pair in pairs.values():
        assert pue_stabilizer(pair, 0.0) == 0.0
        assert pue_nonstabilizer(pair, 0.0) == 0.0
        assert pue_via_moments(pair, 0.0) == 0.0


def test_p_out_of_range(pairs):
    for bad in (-0.01, 0.76, 1.0):
        with pytest.raises(ValueError):
            pue_stabilizer(pairs["c422"], bad)
    # The check compares exact rationals exactly: 3/4 is in range, 19/25 not.
    assert pue_stabilizer(pairs["c422"], Fraction(3, 4), exact=True) > 0
    with pytest.raises(ValueError):
        pue_stabilizer(pairs["c422"], Fraction(76, 100), exact=True)


def test_trivial_code_identity(pairs):
    # A code that detects nothing has undetected-error probability exactly p.
    for p in GRID:
        assert pue_stabilizer(pairs["trivial-n1"], Fraction(p), exact=True) == Fraction(p)
        assert pue_stabilizer(pairs["trivial-n1"], p) == pytest.approx(p, rel=1e-15)


def test_five13_frozen_value(pairs):
    # (dual - code) weights are (0,0,0,30,0,18); at p = 1/10 the exact value
    # is 30 (1/30)^3 (9/10)^2 + 18 (1/30)^5 = 76/84375.
    exact = pue_stabilizer(pairs["five13"], Fraction(1, 10), exact=True)
    assert exact == Fraction(76, 84375)
    assert pue_stabilizer(pairs["five13"], 0.1) == pytest.approx(76 / 84375, rel=1e-14)


def test_nonstabilizer_ratio_is_dim_over_dim_plus_one(pairs):
    for name, pair in pairs.items():
        k = pair.dim
        for p in GRID[1:]:
            s = pue_stabilizer(pair, p)
            ns = pue_nonstabilizer(pair, p)
            if s > 0:
                assert ns / s == pytest.approx(k / (k + 1), rel=1e-15)


def test_composite_equals_stabilizer(pairs):
    for pair in pairs.values():
        for p in [i * 0.075 for i in range(11)]:
            assert pue_composite(pair, p) == pue_stabilizer(pair, p)


def test_moments_form_matches_on_dense_grid(pairs):
    for pair in pairs.values():
        for p in GRID:
            a = pue_via_moments(pair, p)
            b = pue_stabilizer(pair, p)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_moments_form_exact_rational(pairs):
    for pair in pairs.values():
        for p in (Fraction(1, 10), Fraction(3, 4), Fraction(0)):
            assert pue_via_moments(pair, p, exact=True) == \
                pue_stabilizer(pair, p, exact=True)


def test_moments_form_at_three_quarters_collapses(pairs):
    # (1 - 4p/3) vanishes at p = 3/4, leaving only the top term.
    pair = pairs["c422"]
    diffs = [mp - m for m, mp in zip(pair.moments, pair.dual_moments)]
    expected = diffs[pair.n] * (0.75 / 3) ** pair.n
    assert pue_via_moments(pair, 0.75) == pytest.approx(expected, rel=1e-14)


def test_values_are_probabilities(pairs):
    for pair in pairs.values():
        for p in GRID:
            for fn in (pue_stabilizer, pue_nonstabilizer, pue_via_moments):
                val = fn(pair, p)
                assert -1e-15 <= val <= 1.0


def test_direct_coset_sum_matches_polynomial(pairs):
    for name in CATALOG_NAMES:
        code = get_code(name)
        pair = pairs[name]
        for p in GRID:
            direct = pue_stabilizer_direct(code, p)
            poly = pue_stabilizer(pair, p)
            assert direct == pytest.approx(poly, rel=1e-12, abs=1e-300)


def test_direct_coset_sum_equals_word_loop():
    for name in CATALOG_NAMES:
        code = get_code(name)
        for p in GRID:
            assert pue_stabilizer_direct(code, p) == coset_sum_loop(code, p)


@settings(max_examples=60, deadline=None)
@given(self_orthogonal_codes(max_n=6), st.floats(0, 0.75))
def test_direct_coset_sum_equals_word_loop_random(code, p):
    assert pue_stabilizer_direct(code, p) == coset_sum_loop(code, p)


def test_direct_coset_sum_enumeration_cap():
    # No generators: the dual is all 4^12 = 2^24 words, beyond the cap.
    with pytest.raises(ValueError, match="enumeration cap"):
        pue_stabilizer_direct(AdditiveCode(12, ()), 0.1)
    # X on every qubit and Z on ten leave a dual of 2^22 words, under the
    # cap, but the code is not self-orthogonal, so it does not lie in its
    # dual and has no dual coset.
    gens = [GF4Vector(32, 1 << i, 0) for i in range(32)]
    gens += [GF4Vector(32, 0, 1 << i) for i in range(10)]
    with pytest.raises(ValueError, match="not self-orthogonal"):
        pue_stabilizer_direct(AdditiveCode(32, tuple(gens)), 0.1)


def _count_duals(monkeypatch) -> list:
    """Record each code pue.dual is called on."""
    calls = []

    def counted(code):
        calls.append(code)
        return dual(code)

    monkeypatch.setattr(pue, "dual", counted)
    return calls


def test_direct_coset_sum_enumerates_each_dual_once(monkeypatch):
    # The catalog codes called in turn over the 20-point grid: each keeps
    # its own histogram, built on its first call.
    calls = _count_duals(monkeypatch)
    codes = [get_code(name) for name in CATALOG_NAMES]
    for p in GRID:
        for code in codes:
            assert pue_stabilizer_direct(code, p) == coset_sum_loop(code, p)
    assert [id(c) for c in calls] == [id(c) for c in codes]


def test_direct_coset_sum_caps_raise_on_every_call(monkeypatch):
    # The size checks run on every call, before any enumeration, and a
    # failed call keeps nothing on the code.
    calls = _count_duals(monkeypatch)
    code = get_code("c422")  # its dual has 64 words
    with monkeypatch.context() as m:
        m.setattr(pue, "ENUMERATION_CAP", 32)
        for _ in range(2):
            with pytest.raises(ValueError, match="enumeration cap 32"):
                pue_stabilizer_direct(code, 0.1)
    assert calls == []
    assert pue_stabilizer_direct(code, 0.1) == coset_sum_loop(code, 0.1)
    assert calls == [code]
    with monkeypatch.context() as m:
        m.setattr(pue, "ENUMERATION_CAP", 32)
        with pytest.raises(ValueError, match="enumeration cap 32"):
            pue_stabilizer_direct(code, 0.1)
    wide = AdditiveCode(32, tuple([GF4Vector(32, 1 << i, 0) for i in range(32)]
                                  + [GF4Vector(32, 0, 1 << i) for i in range(10)]))
    for _ in range(2):
        with pytest.raises(ValueError, match="enumeration cap"):
            pue_stabilizer_direct(AdditiveCode(12, ()), 0.1)
        with pytest.raises(ValueError, match="not self-orthogonal"):
            pue_stabilizer_direct(wide, 0.1)
    assert calls == [code]


def test_classical_repetition_code():
    # Binary length-3 repetition code: only the all-ones word goes undetected.
    assert pue_classical((1, 0, 0, 1), 2, 0.1) == pytest.approx(0.001, rel=1e-15)


def test_classical_zero_distribution():
    assert pue_classical((1, 0, 0, 0), 2, 0.3) == 0.0


def test_classical_gf4_view_of_c422(pairs):
    # The additive code of c422, read as a classical quaternary code, has its
    # own undetected-error probability, unrelated to the quantum value.
    code_weights = pairs["c422"].weights
    classical = pue_classical(code_weights, 4, 0.1)
    expected = 3 * (0.1 / 3) ** 4  # three weight-4 words
    assert classical == pytest.approx(expected, rel=1e-14)
    assert classical != pytest.approx(pue_stabilizer(pairs["c422"], 0.1))


def test_classical_range_check():
    with pytest.raises(ValueError):
        pue_classical((1, 0, 0, 1), 2, 0.6)  # above (q-1)/q = 1/2
    # The bound is compared exactly: 2/3 is in range for q = 3 although the
    # float 2/3 lies below it, and anything above it is not.
    assert pue_classical((1, 0, 1), 3, Fraction(2, 3), exact=True) == Fraction(1, 9)
    for bad in (Fraction(2, 3) + Fraction(1, 10**30), math.nan):
        with pytest.raises(ValueError):
            pue_classical((1, 0, 1), 3, bad, exact=True)


def test_sweep_rows_and_order(pairs):
    rows = sweep(pairs["c422"], [0.0, 0.25, 0.5, 0.75], ["composite"])
    assert len(rows) == 4
    assert [r.p for r in rows] == [0.0, 0.25, 0.5, 0.75]
    assert all(r.mode == "composite" for r in rows)


def test_sweep_empty_grid(pairs):
    assert sweep(pairs["c422"], [], ["stabilizer"]) == []


def test_sweep_unknown_mode(pairs):
    with pytest.raises(ValueError):
        sweep(pairs["c422"], [0.1], ["bogus"])


def test_sweep_csv_round_trip(pairs):
    rows = sweep(pairs["five13"], GRID, ["stabilizer", "nonstabilizer"])
    text = sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "p,mode,pue"
    parsed = []
    for line in lines[1:]:
        p, mode, value = line.split(",")
        parsed.append(PueResult(mode, float(p), float(value)))
    assert parsed == rows  # shortest round-trip floats survive exactly


# --- the grid and integer evaluators against term-by-term references ---------

@pytest.fixture(scope="module")
def shaped_pairs():
    """Random codes of the sizes the benchmark's enumerate and closed-form
    jobs use."""
    rng = random.Random(7)
    return [stabilizer_enumerators(_random_code(n, r, rng))
            for n, r in ((12, 7), (24, 4), (48, 9), (60, 6), (72, 10), (96, 7))]


def test_sweep_within_8_eps_of_fsum(pairs, shaped_pairs):
    # Every term is nonnegative, so the numpy sum stays within a few ulps of
    # the compensated sum of the same terms.
    for pair in list(pairs.values()) + shaped_pairs:
        for row in sweep(pair, GRID751, MODES):
            want = reference_value(pair, row.p, row.mode)
            assert abs(row.value - want) <= 8 * EPS * want, (pair.n, row)


@st.composite
def rationals(draw):
    """A rational depolarizing probability in [0, 3/4]."""
    b = draw(st.integers(1, 1000))
    return Fraction(draw(st.integers(0, 3 * b // 4)), b)


@settings(max_examples=60, deadline=None)
@given(self_orthogonal_codes(), st.lists(rationals(), min_size=1, max_size=150))
def test_float_sweep_matches_exact_rationals(code, grid):
    pair = stabilizer_enumerators(code)
    rows = sweep(pair, [float(p) for p in grid], MODES)
    expected = [reference_value(pair, p, mode, exact=True)
                for p in grid for mode in MODES]
    for row, want in zip(rows, expected, strict=True):
        assert row.value == pytest.approx(float(want), rel=1e-9, abs=0)


@settings(max_examples=60, deadline=None)
@given(self_orthogonal_codes(), rationals())
def test_integer_numerator_matches_fraction_sum(code, p):
    pair = stabilizer_enumerators(code)
    stab = fraction_poly(stabilizer_diffs(pair), pair.n, 1 - p, p / 3)
    assert pue_stabilizer(pair, p, exact=True) == stab
    assert pue_composite(pair, p, exact=True) == stab
    assert pue_nonstabilizer(pair, p, exact=True) == \
        Fraction(pair.dim, pair.dim + 1) * stab
    assert pue_via_moments(pair, p, exact=True) == \
        fraction_poly(moment_diffs(pair), pair.n, 1 - 4 * p / 3, p / 3)
    assert pue_classical(pair.dual_weights, 4, p, exact=True) == \
        fraction_poly((0,) + pair.dual_weights[1:], pair.n, 1 - p, p / 3)


@pytest.mark.parametrize("n", [512, 600, 1024, 2048])
def test_hundreds_of_qubits_do_not_overflow(n):
    # The code with no generators detects nothing: B = e_0,
    # Bperp_i = C(n, i) 3^i, and P_ue = 1 - (1 - p)^n.  The coefficients
    # pass 2^1024 from n = 512 on, and the powers of p/3 underflow.
    pair = stabilizer_enumerators(AdditiveCode(n, ()))
    assert pair.dual_weights == tuple(math.comb(n, i) * 3**i for i in range(n + 1))
    grid = [0.001, 0.1, 0.5, 0.75]
    for row in sweep(pair, grid, ["stabilizer", "nonstabilizer", "composite"]):
        want = 1 - (1 - Fraction(row.p)) ** n
        if row.mode == "nonstabilizer":
            want *= Fraction(pair.dim, pair.dim + 1)
        assert row.value == pytest.approx(float(want), rel=1e-9)
    for p in grid:
        assert pue_stabilizer(pair, p) == pytest.approx(1 - (1 - p) ** n, rel=1e-9)


def test_underflowing_powers_are_rescaled():
    # All of P_ue sits at weight 300: 3^300 (p/3)^300 = p^300, a normal
    # float at p = 1/10 although (p/3)^300 underflows.
    n = 300
    pair = EnumeratorPair(n, 1, (1,) + (0,) * n, (1,) + (0,) * (n - 1) + (3**n,))
    assert pue_stabilizer(pair, 0.1) == pytest.approx(0.1**n, rel=1e-9)


# --- p-range checks, one-shot grids and row independence ---------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 Fraction(3, 4) + Fraction(1, 10**30)])
def test_p_range_rejects_nan_inf_and_just_above_three_quarters(pairs, bad):
    pair = pairs["c422"]
    message = re.escape(f"depolarizing probability {bad} outside [0, 3/4]")
    for evaluate in SINGLE_POINT.values():
        with pytest.raises(ValueError, match=message):
            evaluate(pair, bad, exact=True)
        with pytest.raises(ValueError, match=message):
            evaluate(pair, bad)
    with pytest.raises(ValueError, match=message):
        sweep(pair, [0.1, bad, 0.2], MODES)


@pytest.mark.parametrize("edge", [Fraction(3, 4), -0.0])
def test_p_range_accepts_three_quarters_and_negative_zero(pairs, edge):
    pair = pairs["c422"]
    exact = pue_stabilizer(pair, edge, exact=True)
    assert exact == fraction_poly(stabilizer_diffs(pair), pair.n,
                                  1 - Fraction(edge), Fraction(edge) / 3)
    assert pue_via_moments(pair, edge, exact=True) == exact
    rows = sweep(pair, [edge], ["stabilizer"])
    assert rows == [PueResult("stabilizer", float(edge),
                              pue_stabilizer(pair, edge))]


def test_p_range_reads_each_kind_of_number(pairs):
    pair = pairs["c422"]
    for p in (0, np.int64(0), 0.5, np.float64(0.5), np.float32(0.5),
              Decimal("0.5"), Fraction(1, 2), Fraction(3, 4)):
        q = Fraction(str(p))
        want = fraction_poly(stabilizer_diffs(pair), pair.n, 1 - q, q / 3)
        assert pue_stabilizer(pair, p, exact=True) == want, repr(p)
        assert pue_stabilizer(pair, p) == pue_stabilizer(pair, float(p)), repr(p)
    for p in ("0.5", None, np.array(0.5)):
        with pytest.raises(TypeError):
            pue_stabilizer(pair, p, exact=True)


def test_sweep_accepts_a_one_shot_grid(pairs):
    grid = [0.1, 0.2, 0.75]
    rows = sweep(pairs["five13"], (p for p in grid), MODES)
    assert rows == sweep(pairs["five13"], grid, MODES)
    assert len(rows) == len(grid) * len(MODES)
    with pytest.raises(ValueError):
        sweep(pairs["five13"], (p for p in [0.1, 0.9]), MODES)


def test_sweep_names_the_first_bad_p(pairs):
    with pytest.raises(ValueError, match="probability 0.9 outside"):
        sweep(pairs["c422"], [0.1, 0.9, 1.0], MODES)
    # A rational just below 0 rounds to the float -0.0, which is in range;
    # it is still named before a later value whose float is out of range.
    tiny = Fraction(-1, 10**400)
    with pytest.raises(ValueError, match=re.escape(f"probability {tiny} outside")):
        sweep(pairs["c422"], [0.75, tiny, 0.9], MODES)


# p = 0, tiny p whose powers leave the normal range (the scaled rows),
# ordinary p and p = 3/4 in one grid.
MIXED_GRID = [0.1, 0.0, 1e-300, 0.5, 1e-5, 2e-3, 0.75, 1e-9, 0.3, 0.0, 1e-5]


WIDE_PAIRS = {"n96": stabilizer_enumerators(_random_code(96, 7, random.Random(11))),
              "n600": stabilizer_enumerators(AdditiveCode(600, ()))}


def _float_reference(pair, p, mode):
    """The value at the library's float bases, summed exactly, then rounded.

    For n = 96 that is the fsum reference.  The n = 600 code has no
    generators, so its coefficients pass the float range; by the binomial
    theorem its polynomial is (x + 3y)^n - x^n and its moment form
    (x + 4y)^n - (x + y)^n, evaluated exactly at the same float bases.
    """
    if pair.n <= 96:
        return reference_value(pair, p, mode)
    n, y = pair.n, Fraction(p / 3)
    if mode == "moments":
        x = Fraction(1 - 4 * p / 3)
        return float((x + 4 * y) ** n - (x + y) ** n)
    x = Fraction(1 - p)
    value = float((x + 3 * y) ** n - x**n)
    return pair.dim / (pair.dim + 1) * value if mode == "nonstabilizer" else value


@pytest.mark.parametrize("name", WIDE_PAIRS)
def test_sweep_rows_equal_single_point_values(name):
    pair = WIDE_PAIRS[name]
    rows = sweep(pair, MIXED_GRID, MODES)
    for row in rows:
        assert type(row) is PueResult
        assert row.value == SINGLE_POINT[row.mode](pair, row.p), row
        want = _float_reference(pair, row.p, row.mode)
        assert abs(row.value - want) <= 8 * EPS * want, row


@pytest.mark.parametrize("name", ["five13", "n96", "n600"])
def test_one_point_values_are_their_sweep_rows(name, pairs):
    # The one-row route against the grid path, bit for bit.  n96 takes the
    # scaled form for p <= 0.002, and n600, whose coefficients need a
    # shift, for every p; p = 0 and 3/4 come again as an int and a Fraction.
    pair = pairs[name] if name in pairs else WIDE_PAIRS[name]
    grid = GRID751 + [0, Fraction(3, 4)]
    rows = sweep(pair, grid, ["stabilizer", "moments"])
    assert len(rows) == 2 * len(grid)
    for p, stab, moment in zip(grid, rows[::2], rows[1::2]):
        assert pue_stabilizer(pair, p).hex() == stab.value.hex(), p
        assert pue_via_moments(pair, p).hex() == moment.value.hex(), p


def test_plain_rows_are_those_whose_terms_stay_normal():
    # e >= plain_exp exactly when n (1 - e) <= 1021, for every frexp
    # exponent e of a base in [0, 1]; a shifted coefficient sends every row
    # to the scaled form.
    e = np.arange(-1073, 2)
    for n in range(1200):
        t = pue._terms([0] * n + [1])
        assert np.array_equal(e >= t.plain_exp, n * (1 - e) <= 1021), n
    assert pue._terms([0, 1 << 1100]).plain_exp > 1


def test_sweep_rows_match_per_row_construction():
    pair = WIDE_PAIRS["n96"]
    modes = ["moments", "composite", "moments", "nonstabilizer", "stabilizer"]
    rows = sweep(pair, MIXED_GRID, modes)
    assert rows == [PueResult(mode, float(p), SINGLE_POINT[mode](pair, p))
                    for p in MIXED_GRID for mode in modes]
    assert sweep(pair, MIXED_GRID, []) == []


# --- the row sequence sweep returns ------------------------------------------

def test_sweep_rows_behave_as_a_read_only_list(pairs):
    pair = pairs["five13"]
    rows = sweep(pair, GRID, MODES)
    listed = [PueResult(mode, p, SINGLE_POINT[mode](pair, p))
              for p in GRID for mode in MODES]
    assert len(rows) == len(listed) == 80
    assert list(rows) == list(rows) == listed  # iterates twice
    assert rows[0] == listed[0] and rows[7] == listed[7]
    assert rows[-1] == listed[-1] and rows[-80] == listed[0]
    for i in (80, -81):
        with pytest.raises(IndexError):
            rows[i]
    for s in (slice(3, 11), slice(None, None, -3), slice(70, 200), slice(5, 2)):
        assert rows[s] == listed[s] and type(rows[s]) is list
    assert all(type(row) is PueResult for row in rows)
    assert type(rows[5]) is PueResult
    assert rows.index(listed[9]) == 9 and listed[9] in rows
    assert list(reversed(rows)) == listed[::-1]


def test_sweep_rows_compare_as_lists(pairs):
    pair = pairs["c422"]
    rows = sweep(pair, GRID, MODES)
    listed = list(rows)
    assert rows == listed and listed == rows
    assert not (rows != listed or listed != rows)
    assert rows == sweep(pair, GRID, MODES)
    assert rows != sweep(pair, GRID[:-1], MODES)
    assert rows != listed[:-1] and listed[1:] != rows
    assert rows != sweep(pair, GRID, MODES[::-1])
    for other in (None, 3, "rows", tuple(listed), {0: listed[0]}):
        assert rows != other and other != rows
    with pytest.raises(TypeError):
        hash(rows)


def test_sweep_csv_is_unchanged_on_shaped_and_wide_pairs(shaped_pairs):
    # The reference renders rows built one at a time from single-point values.
    cases = [(pair, GRID751) for pair in shaped_pairs]
    cases += [(pair, MIXED_GRID) for pair in WIDE_PAIRS.values()]
    for pair, grid in cases:
        rows = sweep(pair, grid, MODES)
        want = [PueResult(mode, float(p), SINGLE_POINT[mode](pair, p))
                for p in grid for mode in MODES]
        assert [rows[i] for i in range(len(rows))] == want, pair.n
        lines = [f"{row.p!r},{row.mode},{row.value!r}\n" for row in want]
        assert sweep_csv(rows) == "p,mode,pue\n" + "".join(lines), pair.n


def test_sweep_holds_no_row_objects(shaped_pairs):
    pair = shaped_pairs[-1]
    sweep(pair, GRID751, MODES)  # builds the pair's cached coefficients
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        rows = sweep(pair, GRID751, MODES)
        grew = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(rows) == 3004
    assert grew < 100


# --- the moment form's coefficients ------------------------------------------

def _assert_moment_diffs_are_the_old_difference(pair):
    assert pair.moment_diffs == tuple(moment_diffs(pair)), pair.n


def test_moment_diffs_on_catalog_shaped_and_wide_pairs(pairs, shaped_pairs):
    for pair in list(pairs.values()) + shaped_pairs + [WIDE_PAIRS["n600"]]:
        _assert_moment_diffs_are_the_old_difference(pair)


@settings(max_examples=60, deadline=None)
@given(self_orthogonal_codes())
def test_moment_diffs_on_random_codes(code):
    _assert_moment_diffs_are_the_old_difference(stabilizer_enumerators(code))
