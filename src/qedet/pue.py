"""Undetected-error probabilities over the depolarizing channel.

A weight distribution determines the probability that an error lands in the
dual of the code but outside the code itself, which is exactly the event the
detection measurement cannot see:

    P_ue = sum_i (dual_weights[i] - weights[i]) (p/3)^i (1-p)^(n-i).

The subspace-uniform functional for unrestricted codes equals K/(K+1) times
this, and the completely-entangled-state functional equals it outright, so
all three protocol modes share one polynomial.  The binomial-moment form is
a second polynomial with the same value.

Floats come from one numpy evaluator that sums a grid of p in chunks of
about 2^13 terms; every term is nonnegative, so the plain sum stays within
a few ulps of a compensated one.  Each grid row is checked on its own:
rows whose terms stay in the normal float range are plain products, and
rows whose terms leave it (coefficients beyond 2^1000 and powers that
underflow, as for tiny p or codes with hundreds of qubits) carry each
term as a mantissa and an exact power of two; the test is one integer
comparison of the bases' exponents against a threshold of the form's
terms.  A row's value is therefore the same in any grid, and equals the
single-point evaluation, which takes a one-row route on Python floats
through the same evaluator.  Exact rationals (exact=True) come from one
integer numerator: with p = a/b every term shares the denominator (3b)^n,
and p is range-checked on a and b.  The coefficient differences, and
their nonzero terms as mantissas, shifts, exponents n - i and threshold,
are computed once per EnumeratorPair; the reference coset sum enumerates
a code's dual coset once, into a weight histogram.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, cycle, repeat
from typing import NamedTuple

import numpy as np

from .gf4 import ENUMERATION_CAP, AdditiveCode, dual
from .enumerators import EnumeratorPair, hamming_weights
from .oracle import _CHUNK_CELLS, _check_p

MODES = ("stabilizer", "nonstabilizer", "composite", "moments")

# Powers of a mantissa in [1/2, 1) stay normal up to this exponent, and
# coefficients below 2^_MAX_BITS times factors in (0, 1] cannot overflow.
_MAX_POW = 1000
_MAX_BITS = 1000


class _Terms(NamedTuple):
    """Nonzero coefficients d_i ~ mant * 2^shift (correctly rounded), i = cols,
    with the exponents n - cols and `plain_exp`: a row is summed as plain
    products when both bases' frexp exponents are at least plain_exp."""

    cols: np.ndarray
    mant: np.ndarray
    shift: np.ndarray
    rest: np.ndarray
    plain_exp: float


def _terms(diffs) -> _Terms:
    cols = [i for i, d in enumerate(diffs) if d]
    shift = [max(diffs[i].bit_length() - _MAX_BITS, 0) for i in cols]
    mant = [diffs[i] / (1 << s) for i, s in zip(cols, shift)]
    n, cols = len(diffs) - 1, np.array(cols, dtype=np.intp)
    # Every nonzero base is >= 2^(e-1), so every power down to base^n, and
    # every product of two, stays normal while n (1 - e) <= 1021, that is
    # e >= 1 - 1021 // n (any e for n = 0).  No base in [0, 1] has an
    # exponent above 1, so 2 sends every row to the scaled form when a
    # coefficient needs a shift.
    plain_exp = 2 if any(shift) else 1 - 1021 // n if n else -math.inf
    return _Terms(cols, np.array(mant), np.array(shift, dtype=np.intp),
                  n - cols, plain_exp)


def _pair_terms(pair: EnumeratorPair) -> tuple[_Terms, _Terms]:
    """Both forms' terms, kept on the pair like its coefficient differences."""
    cache = vars(pair)
    if "_terms" not in cache:
        cache["_terms"] = _terms(pair.weight_diffs), _terms(pair.moment_diffs)
    return cache["_terms"]


def _scaled_pow(base: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """base^k as (mantissa, exponent) with an exact integer exponent.

    base is a column of nonnegative floats and k a row of exponents; the
    mantissas lie in [1/2, 1) or are 0, so no power under- or overflows.
    """
    m, e = np.frexp(base)
    exp = e * k
    mant = np.ones(exp.shape)
    left = k
    while True:
        step = np.minimum(left, _MAX_POW)
        mant, de = np.frexp(mant * m**step)
        exp += de
        left = left - step
        if not left.any():
            return mant, exp


def _grid_eval(n: int, base_y, forms) -> list:
    """sum_i d_i base_y^i base_x^(n-i) over the grid, for each (terms, base_x).

    The bases must lie in [0, 1].  Each chunk of rows raises base_y once to
    the union of the forms' exponents.  Per form, each row whose terms all
    stay in the normal float range (`_Terms.plain_exp`) is summed as plain
    products from that table; every other row goes through _scaled_pow,
    which agrees with the plain products wherever they stay normal.  The
    choice is made per row, so a row's value does not depend on the other
    rows of the grid.  A one-point grid may be given as floats, and its
    values come back as floats: a plain row is then the same product of
    1-d tables, which numpy sums as it sums a grid row.
    """
    if isinstance(base_y, float):
        e_y = math.frexp(base_y)[1]
        if all(min(math.frexp(x)[1], e_y) >= t.plain_exp for t, x in forms):
            return [float((t.mant * base_y ** t.cols * x ** t.rest).sum())
                    for t, x in forms]
        return [float(out[0]) for out in _grid_eval(
            n, np.array([base_y]), [(t, np.array([x])) for t, x in forms])]
    if len(forms) == 1:
        union, cols = forms[0][0].cols, [slice(None)]
    else:
        used = np.zeros(n + 1, dtype=bool)
        for t, _ in forms:
            used[t.cols] = True
        union = np.flatnonzero(used)
        cols = [slice(None) if len(t.cols) == len(union)
                else np.searchsorted(union, t.cols) for t, _ in forms]
    exp_y = np.frexp(base_y)[1]
    plain = [np.minimum(np.frexp(x)[1], exp_y) >= t.plain_exp
             for t, x in forms]
    outs = [np.zeros(len(base_y)) for _ in forms]
    step = max(_CHUNK_CELLS // max(len(union), 1), 1)
    for lo in range(0, len(base_y), step):
        c = slice(lo, lo + step)
        y = base_y[c, None]
        table = y**union
        for (t, x), idx, ok, out in zip(forms, cols, plain, outs):
            x, ok, out = x[c, None], ok[c], out[c]
            if ok.all():
                out[:] = (t.mant * table[:, idx] * x ** t.rest).sum(axis=1)
                continue
            r = np.flatnonzero(ok)
            out[r] = (t.mant * table[r][:, idx] * x[r] ** t.rest).sum(axis=1)
            r = np.flatnonzero(~ok)
            my, ey = _scaled_pow(y[r], t.cols)
            mx, ex = _scaled_pow(x[r], t.rest)
            out[r] = np.ldexp(t.mant * my * mx, t.shift + ey + ex).sum(axis=1)
    return outs


def _exact_eval(diffs, n: int, x: int, y: int, denom: int) -> Fraction:
    """sum_i diffs[i] (y/denom)^i (x/denom)^(n-i) as one Fraction.

    The integer numerator sum_i diffs[i] y^i x^(n-i) is built by Horner's
    rule in x: after step k it holds sum_{i<=k} diffs[i] y^i x^(k-i).
    """
    numerator, y_pow = 0, 1
    for d in diffs:
        numerator = numerator * x + d * y_pow
        y_pow *= y
    return Fraction(numerator, denom**n)


def _columns(pair: EnumeratorPair, grid, stabilizer: bool,
             moments: bool) -> list:
    """The polynomial's and/or the moment form's values over a float grid,
    or at one float p (`_grid_eval`'s one-point route)."""
    stab, moment = _pair_terms(pair)
    forms = [(stab, 1 - grid)] if stabilizer else []
    if moments:
        forms.append((moment, 1 - 4 * grid / 3))
    return _grid_eval(pair.n, grid / 3, forms)


def pue_stabilizer(pair: EnumeratorPair, p, *, exact: bool = False):
    """Undetected-error probability of the plain detection protocol."""
    a, b = _check_p(p)
    if exact:
        return _exact_eval(pair.weight_diffs, pair.n, 3 * (b - a), a, 3 * b)
    return _columns(pair, float(p), True, False)[0]


def pue_nonstabilizer(pair: EnumeratorPair, p, *, exact: bool = False):
    """Subspace-uniform functional; exactly K/(K+1) times the stabilizer value."""
    base = pue_stabilizer(pair, p, exact=exact)
    if exact:
        return Fraction(pair.dim, pair.dim + 1) * base
    return pair.dim / (pair.dim + 1) * base


def pue_composite(pair: EnumeratorPair, p, *, exact: bool = False):
    """Undetected-error probability when completely entangled states are sent.

    Coincides with the stabilizer-protocol value.
    """
    return pue_stabilizer(pair, p, exact=exact)


def pue_via_moments(pair: EnumeratorPair, p, *, exact: bool = False):
    """Same probability expressed through binomial moments.

    From B(x, y) = M(x - y, y) the dual moments enter with positive sign:
    sum_w (dual_moments[w] - moments[w]) (p/3)^w (1 - 4p/3)^(n-w).
    """
    a, b = _check_p(p)
    if exact:
        return _exact_eval(pair.moment_diffs, pair.n, 3 * b - 4 * a, a, 3 * b)
    return _columns(pair, float(p), False, True)[0]


def pue_classical(counts, q: int, p, *, exact: bool = False):
    """Classical undetected-error probability of a distance distribution.

    counts is the distance distribution of a length-n code over a q-ary
    alphabet used on the symmetric channel with symbol error probability p.
    """
    n = len(counts) - 1
    if q < 2:
        raise ValueError(f"alphabet size q must be at least 2, not {q}")
    if not (0 <= p and q * p <= q - 1):
        raise ValueError(f"symbol error probability {p} outside [0, (q-1)/q]")
    diffs = [0] + [int(c) for c in counts[1:]]
    if exact:
        a, b = Fraction(p).as_integer_ratio()
        return _exact_eval(diffs, n, (q - 1) * (b - a), a, (q - 1) * b)
    p = float(p)
    return _grid_eval(n, p / (q - 1), [(_terms(diffs), 1 - p)])[0]


def pue_stabilizer_direct(code: AdditiveCode, p) -> float:
    """Reference evaluation summing Pr(E) over dual words outside the code.

    Enumerates the dual element by element instead of using the weight
    distributions; used to cross-check the polynomial form.  The code lies
    in its dual, so the weight histogram of the dual coset is that of the
    dual less that of the code, both from `hamming_weights`.  It is built
    once per code and kept on it, and a call sums each word's Python-float
    term, once per word, so the compensated sum is that of the word list.
    """
    _check_p(p)
    size = 1 << (2 * code.n - code.rank)  # the dual's size
    if size > ENUMERATION_CAP:
        raise ValueError(f"code has {size} elements, "
                         f"beyond the enumeration cap {ENUMERATION_CAP}")
    if not code.is_self_orthogonal:
        raise ValueError("code is not self-orthogonal")
    n, cache = code.n, vars(code)
    if "_coset_weights" not in cache:
        cache["_coset_weights"] = [
            a - b for a, b in zip(hamming_weights(dual(code)).counts,
                                  hamming_weights(code).counts)]
    terms = [(p / 3) ** w * (1 - p) ** (n - w) for w in range(n + 1)]
    return math.fsum(chain.from_iterable(
        map(repeat, terms, cache["_coset_weights"])))


class PueResult(NamedTuple):
    mode: str
    p: float
    value: float


def sweep(pair: EnumeratorPair, p_grid, modes) -> Sequence[PueResult]:
    """Evaluate the requested modes on a probability grid, one row per (p, mode).

    One grid evaluation serves every requested form: the polynomial gives
    the stabilizer, nonstabilizer and composite modes, the moment form the
    moments mode.  The result is a read-only sequence, equal to the list of
    its rows, that keeps only the p and value columns and builds each row
    when it is read, so a sweep holds no row objects for the collector.
    """
    p_grid, modes = list(p_grid), tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    grid = np.array([float(p) for p in p_grid])
    # Only floats outside (0, 3/4) can be out of range: those on an end point
    # may round an exact value just outside it.  The first bad one raises.
    for i in np.flatnonzero(~((grid > 0) & (grid < 0.75))):
        _check_p(p_grid[i])
    poly, moments = bool(set(modes) - {"moments"}), "moments" in modes
    columns = {}
    if modes:
        forms = _columns(pair, grid, poly, moments)
        if poly:
            columns["stabilizer"] = columns["composite"] = forms[0]
            columns["nonstabilizer"] = pair.dim / (pair.dim + 1) * forms[0]
        if moments:
            columns["moments"] = forms[-1]
    # One column per requested mode; read row by row, (p, mode) order.
    values = np.array([columns[mode] for mode in modes]).T.ravel().tolist()
    return _Rows(modes, np.repeat(grid, len(modes)).tolist(), values)


class _Rows(Sequence):
    """sweep's rows over the p and value columns, each built when read."""

    __slots__ = ("_modes", "_ps", "_values")

    def __init__(self, modes: tuple, ps: list, values: list) -> None:
        self._modes, self._ps, self._values = modes, ps, values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return PueResult(self._modes[i % len(self._modes)], self._ps[i],
                         self._values[i])

    def __iter__(self):
        return map(tuple.__new__, repeat(PueResult),
                   zip(cycle(self._modes), self._ps, self._values))

    def __eq__(self, other):
        if isinstance(other, (list, _Rows)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def sweep_csv(rows) -> str:
    """CSV rendering with shortest round-trip float formatting."""
    lines = ["p,mode,pue"]
    lines.extend(f"{row.p!r},{row.mode},{row.value!r}" for row in rows)
    return "\n".join(lines) + "\n"
