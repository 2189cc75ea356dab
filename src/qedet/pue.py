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
term as a mantissa and an exact power of two.  A row's value is therefore
the same in any grid, and equals the single-point evaluation.  Exact
rationals (exact=True) come from one integer numerator: with p = a/b every
term shares the denominator (3b)^n.  The coefficient differences are
computed once per EnumeratorPair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import cycle, repeat
from typing import NamedTuple

import numpy as np

from .gf4 import ENUMERATION_CAP, AdditiveCode, dual
from .enumerators import EnumeratorPair, _span
from .oracle import _CHUNK_CELLS, _check_p

MODES = ("stabilizer", "nonstabilizer", "composite", "moments")

# Powers of a mantissa in [1/2, 1) stay normal up to this exponent, and
# coefficients below 2^_MAX_BITS times factors in (0, 1] cannot overflow.
_MAX_POW = 1000
_MAX_BITS = 1000


def _split(d: int) -> tuple[float, int]:
    """d as (mantissa, shift) with d ~ mantissa * 2^shift, correctly rounded."""
    shift = max(d.bit_length() - _MAX_BITS, 0)
    return d / (1 << shift), shift


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


def _grid_eval(diffs, n: int, base_x: np.ndarray, base_y: np.ndarray) -> np.ndarray:
    """sum_i diffs[i] base_y^i base_x^(n-i) for each entry of the base arrays.

    The bases must lie in [0, 1].  Each row whose terms all stay in the
    normal float range is summed as plain products; every other row goes
    through _scaled_pow, which agrees with the plain products wherever they
    stay normal.  The choice is made per row, so a row's value does not
    depend on the other rows of the grid.
    """
    out = np.zeros(len(base_x))
    cols = [i for i, d in enumerate(diffs) if d]
    if not cols:
        return out
    i = np.array(cols)
    split = [_split(diffs[c]) for c in cols]
    mant_d = np.array([m for m, _ in split])
    shift_d = np.array([s for _, s in split])
    # Every nonzero base is >= 2^(e-1), so every power down to base^n, and
    # every product of two, stays normal while n (1 - e) <= 1021.
    min_exp = np.minimum(np.frexp(base_x)[1], np.frexp(base_y)[1])
    plain = (n * (1 - min_exp) <= 1021) & (not shift_d.any())
    step = max(_CHUNK_CELLS // len(cols), 1)
    for rows, scaled in ((np.flatnonzero(plain), False),
                         (np.flatnonzero(~plain), True)):
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            x, y = base_x[r, None], base_y[r, None]
            if scaled:
                my, ey = _scaled_pow(y, i)
                mx, ex = _scaled_pow(x, n - i)
                terms = np.ldexp(mant_d * my * mx, shift_d + ey + ex)
            else:
                terms = mant_d * y**i * x ** (n - i)
            out[r] = terms.sum(axis=1)
    return out


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


def _stabilizer_column(pair: EnumeratorPair, p: np.ndarray) -> np.ndarray:
    return _grid_eval(pair.weight_diffs, pair.n, 1 - p, p / 3)


def _moments_column(pair: EnumeratorPair, p: np.ndarray) -> np.ndarray:
    return _grid_eval(pair.moment_diffs, pair.n, 1 - 4 * p / 3, p / 3)


def pue_stabilizer(pair: EnumeratorPair, p, *, exact: bool = False):
    """Undetected-error probability of the plain detection protocol."""
    _check_p(p)
    if exact:
        a, b = Fraction(p).as_integer_ratio()
        return _exact_eval(pair.weight_diffs, pair.n, 3 * (b - a), a, 3 * b)
    return float(_stabilizer_column(pair, np.array([float(p)]))[0])


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
    _check_p(p)
    if exact:
        a, b = Fraction(p).as_integer_ratio()
        return _exact_eval(pair.moment_diffs, pair.n, 3 * b - 4 * a, a, 3 * b)
    return float(_moments_column(pair, np.array([float(p)]))[0])


def pue_classical(counts, q: int, p, *, exact: bool = False):
    """Classical undetected-error probability of a distance distribution.

    counts is the distance distribution of a length-n code over a q-ary
    alphabet used on the symmetric channel with symbol error probability p.
    """
    n = len(counts) - 1
    if not (0 <= p and q * p <= q - 1):
        raise ValueError(f"symbol error probability {p} outside [0, (q-1)/q]")
    diffs = [0] + [int(c) for c in counts[1:]]
    if exact:
        a, b = Fraction(p).as_integer_ratio()
        return _exact_eval(diffs, n, (q - 1) * (b - a), a, (q - 1) * b)
    grid = np.array([float(p)])
    return float(_grid_eval(diffs, n, 1 - grid, grid / (q - 1))[0])


def pue_stabilizer_direct(code: AdditiveCode, p) -> float:
    """Reference evaluation summing Pr(E) over dual words outside the code.

    Enumerates the dual element by element instead of using the weight
    distributions; used to cross-check the polynomial form.  Words are int64
    keys x | z << n spanned by XOR-doubling over the generators, so n <= 31;
    a self-orthogonal code whose dual is under the cap has n <= 22.  Each
    word contributes its weight's Python-float term, so the compensated sum
    does not depend on the enumeration order.
    """
    _check_p(p)
    n, ortho = code.n, dual(code)
    if ortho.size > ENUMERATION_CAP:
        raise ValueError(f"code has {ortho.size} elements, "
                         f"beyond the enumeration cap {ENUMERATION_CAP}")
    if n > 31:
        raise ValueError(f"words of {n} qubits do not fit int64 keys")
    words = _span_keys(ortho)
    words = words[~np.isin(words, _span_keys(code))]
    weights = np.bitwise_count((words & ((1 << n) - 1)) | (words >> n))
    terms = [(p / 3) ** w * (1 - p) ** (n - w) for w in range(n + 1)]
    return math.fsum(map(terms.__getitem__, weights.tolist()))


def _span_keys(code: AdditiveCode) -> np.ndarray:
    """Keys x | z << n of all 2^r words of a code, as int64."""
    return _span(np.array([g.x | g.z << code.n for g in code.generators],
                          dtype=np.int64))


class PueResult(NamedTuple):
    code: str
    mode: str
    p: float
    value: float


def sweep(pair: EnumeratorPair, p_grid, modes, code: str = "") -> list[PueResult]:
    """Evaluate the requested modes on a probability grid, one row per (p, mode).

    The stabilizer polynomial is evaluated once over the whole grid and
    serves the stabilizer, nonstabilizer and composite modes; the moment
    form is evaluated once more when requested.  Rows are built from the
    columns by tuple.__new__, with no Python-level constructor call per row.
    """
    p_grid, modes = list(p_grid), list(modes)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    for p in p_grid:
        _check_p(p)
    grid = np.array([float(p) for p in p_grid])
    columns = {}
    if set(modes) - {"moments"}:
        stab = _stabilizer_column(pair, grid)
        columns["stabilizer"] = columns["composite"] = stab
        columns["nonstabilizer"] = pair.dim / (pair.dim + 1) * stab
    if "moments" in modes:
        columns["moments"] = _moments_column(pair, grid)
    # One column per requested mode; read row by row, (p, mode) order.
    values = np.array([columns[mode] for mode in modes]).T.ravel().tolist()
    ps = np.repeat(grid, len(modes)).tolist()
    return list(map(tuple.__new__, repeat(PueResult),
                    zip(repeat(code), cycle(modes), ps, values)))


def sweep_csv(rows) -> str:
    """CSV rendering with shortest round-trip float formatting."""
    lines = ["p,mode,pue"]
    lines.extend(f"{row.p!r},{row.mode},{row.value!r}" for row in rows)
    return "\n".join(lines) + "\n"
