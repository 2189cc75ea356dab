"""Term-by-term reference evaluations of the undetected-error polynomials.

The library sums the polynomials over a whole p-grid with numpy (floats)
or as one integer numerator (exact).  These are the slow forms it is
checked against: math.fsum over one Python float term per weight, and an
exact sum of one Fraction term per weight.  The library's binomial moments
are a Taylor shift; the reference is the double sum of binomial
coefficients.  The library's coset sum spans the dual as an array of
integer keys; the reference walks it one GF4Vector at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qedet.gf4 import dual


def fsum_poly(diffs, n: int, base_x, base_y) -> float:
    """sum_i diffs[i] base_y^i base_x^(n-i), compensated float summation."""
    return math.fsum(d * base_y**i * base_x ** (n - i)
                     for i, d in enumerate(diffs) if d)


def fraction_poly(diffs, n: int, base_x, base_y) -> Fraction:
    """sum_i diffs[i] base_y^i base_x^(n-i), one Fraction term at a time."""
    bx, by = Fraction(base_x), Fraction(base_y)
    return sum((Fraction(d) * by**i * bx ** (n - i)
                for i, d in enumerate(diffs) if d), Fraction(0))


def binomial_moments_reference(counts, n: int) -> tuple[int, ...]:
    """M_w = sum_{i<=w} counts[i] C(n-i, n-w), skipping zero counts."""
    return tuple(sum(c * math.comb(n - i, n - w)
                     for i, c in enumerate(counts[:w + 1]) if c)
                 for w in range(n + 1))


def stabilizer_diffs(pair) -> list[int]:
    return [bp - b for b, bp in zip(pair.weights, pair.dual_weights)]


def moment_diffs(pair) -> list[int]:
    return [mp - m for m, mp in zip(pair.moments, pair.dual_moments)]


def reference_value(pair, p, mode: str, exact: bool = False):
    """The seed library's value of one sweep mode at one p."""
    poly = fraction_poly if exact else fsum_poly
    p = Fraction(p) if exact else p
    if mode == "moments":
        return poly(moment_diffs(pair), pair.n, 1 - 4 * p / 3, p / 3)
    value = poly(stabilizer_diffs(pair), pair.n, 1 - p, p / 3)
    if mode == "nonstabilizer":
        ratio = Fraction(pair.dim, pair.dim + 1) if exact else pair.dim / (pair.dim + 1)
        return ratio * value
    return value


def coset_sum_loop(code, p) -> float:
    """sum of Pr(E) over dual words outside the code, one GF4Vector each."""
    return math.fsum(
        (p / 3) ** w.weight * (1 - p) ** (code.n - w.weight)
        for w in dual(code).codewords()
        if not code.contains(w)
    )
