"""Weight distributions, the MacWilliams transform, and binomial moments.

Everything here is exact: counts are Python integers and the MacWilliams
transform is carried out as a polynomial substitution

    x -> x + 3y,   y -> x - y

in the homogeneous two-variable enumerator, followed by an exact division.
A non-integral division means the input was not the weight distribution of
any additive code and raises instead of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gf4 import ENUMERATION_CAP, AdditiveCode

# Words are rows of uint64 keys, one key per _LANE positions holding the
# x-plane bits in its low half and the z-plane bits in its high half.
_LANE = 32
_LANE_MASK = (1 << _LANE) - 1
# A block of at most 2^16 keys (words x lanes) is spanned at a time.
_BLOCK_BITS = 16


@dataclass(frozen=True)
class WeightDistribution:
    """Exact count of codewords by Hamming weight."""

    n: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def _span(keys: np.ndarray) -> np.ndarray:
    """All 2^r XOR combinations of r generator keys (rows), the zero key first.

    Built by doubling: the combinations of the first j generators, then
    the same again XORed with generator j.
    """
    out = np.zeros((1,) + keys.shape[1:], keys.dtype)
    for g in keys:
        out = np.concatenate([out, out ^ g])
    return out


def hamming_weights(code: AdditiveCode) -> WeightDistribution:
    """Weight distribution of a code by direct enumeration.

    Each word is a row of lane keys x | z << 32 over 32 positions at a
    time, so a word's weight is the sum over its lanes of
    popcount((key & mask) | (key >> 32)), for any n.  The first few
    generators are spanned once, into a block of at most 2^16 keys; the
    code is that block XORed with each combination of the remaining
    generators, counted one block at a time.
    """
    if code.size > ENUMERATION_CAP:
        raise ValueError(f"code has {code.size} elements, "
                         f"beyond the enumeration cap {ENUMERATION_CAP}")
    lanes = range(0, code.n, _LANE)
    gens = np.array([[(g.x >> s & _LANE_MASK) | (g.z >> s & _LANE_MASK) << _LANE
                      for s in lanes] for g in code.generators],
                    dtype=np.uint64).reshape(code.rank, len(lanes))
    low_rank = max(_BLOCK_BITS - (len(lanes) - 1).bit_length(), 0)
    low = _span(gens[:low_rank])
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for shift in _span(gens[low_rank:]):
        block = low ^ shift
        weights = np.bitwise_count((block & _LANE_MASK) | (block >> _LANE))
        counts += np.bincount(weights.sum(axis=1, dtype=np.intp),
                              minlength=code.n + 1)
    return WeightDistribution(code.n, tuple(counts.tolist()))


@dataclass(frozen=True)
class EnumeratorPair:
    """Weight distributions of a code and of its trace dual.

    `weights` counts the code itself (the B enumerator of the stabilized
    subspace), `dual_weights` the dual code; `dim` is the dimension K of the
    stabilized subspace.  Binomial moments and the coefficient differences
    are computed lazily, once per pair.
    """

    n: int
    dim: int
    weights: tuple[int, ...]
    dual_weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.n + 1 or len(self.dual_weights) != self.n + 1:
            raise ValueError("weight vectors must have length n + 1")
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    @cached_property
    def moments(self) -> tuple[int, ...]:
        return binomial_moments(self.weights, self.n)

    @cached_property
    def dual_moments(self) -> tuple[int, ...]:
        return binomial_moments(self.dual_weights, self.n)

    @cached_property
    def weight_diffs(self) -> tuple[int, ...]:
        """dual_weights - weights: the P_ue polynomial's coefficients."""
        # From a list, not a generator: CPython grows a generator-built tuple
        # by resizing, outside its per-size free list, but frees it into
        # that list, which only a full collection empties.
        return tuple([bp - b for b, bp in zip(self.weights, self.dual_weights)])

    @cached_property
    def moment_diffs(self) -> tuple[int, ...]:
        """dual_moments - moments: the moment form's coefficients.

        Binomial moments are linear in the counts, so this is one Taylor
        shift of weight_diffs.
        """
        return binomial_moments(self.weight_diffs, self.n)

    def to_json_dict(self) -> dict:
        """JSON form with integers as decimal strings (they can be huge)."""
        return {
            "n": self.n,
            "K": str(self.dim),
            "B": [str(c) for c in self.weights],
            "Bperp": [str(c) for c in self.dual_weights],
            "moments": {
                "B": [str(c) for c in self.moments],
                "Bperp": [str(c) for c in self.dual_moments],
            },
            "d": min_distance(self),
        }


def stabilizer_enumerators(code: AdditiveCode) -> EnumeratorPair:
    """Enumerator pair of a self-orthogonal code.

    The code itself is enumerated (it must fit under ENUMERATION_CAP); the dual
    distribution always follows from it by the MacWilliams transform.
    """
    if not code.is_self_orthogonal:
        raise ValueError("code is not self-orthogonal")
    weights = hamming_weights(code).counts
    dual_weights = macwilliams(weights, code.n, code.dim, "code_to_dual")
    return EnumeratorPair(code.n, code.dim, weights, dual_weights)


@lru_cache(maxsize=None)
def _substitution_coeffs(a: int, b: int) -> tuple[int, ...]:
    """Coefficients of (x + 3y)^a (x - y)^b by y-degree."""
    p1 = [math.comb(a, j) * 3**j for j in range(a + 1)]
    p2 = [math.comb(b, j) * (-1) ** j for j in range(b + 1)]
    out = [0] * (a + b + 1)
    for j1, c1 in enumerate(p1):
        for j2, c2 in enumerate(p2):
            out[j1 + j2] += c1 * c2
    return tuple(out)


def macwilliams(counts, n: int, dim: int, direction: str) -> tuple[int, ...]:
    """MacWilliams transform between the code and dual weight distributions.

    direction "dual_to_code" divides the substituted polynomial by 2^n * dim;
    "code_to_dual" normalizes so that the zeroth coefficient is 1.  All
    divisions must be exact, otherwise the input is not a valid enumerator.
    """
    if direction not in ("dual_to_code", "code_to_dual"):
        raise ValueError(f"unknown direction {direction!r}")
    if dim < 1:
        raise ValueError(f"dimension dim must be at least 1, not {dim}")
    counts = tuple(counts)
    if len(counts) != n + 1:
        raise ValueError("weight vector must have length n + 1")
    if counts[0] != 1:
        raise ValueError("weight distribution must start with a single zero word")
    if any(c < 0 for c in counts):
        raise ValueError("weight distribution must be nonnegative")

    transformed = [0] * (n + 1)
    for i, c in enumerate(counts):
        if c == 0:
            continue
        for j, t in enumerate(_substitution_coeffs(n - i, i)):
            transformed[j] += c * t

    divisor = (1 << n) * dim if direction == "dual_to_code" else transformed[0]
    result = []
    for t in transformed:
        q, r = divmod(t, divisor)
        if r:
            raise ValueError("transform is not integral; input is not the "
                             "weight distribution of an additive code")
        result.append(q)
    if result[0] != 1:
        raise ValueError("transform does not normalize to a unit zero "
                         "coefficient; dimension and distribution disagree")
    return tuple(result)


def binomial_moments(counts, n: int) -> tuple[int, ...]:
    """Binomial moments M_w = sum_{i<=w} counts[i] * C(n-i, n-w), exact.

    M_w is the coefficient of t^(n-w) in sum_i counts[i] (1+t)^(n-i), a
    Taylor shift built by Horner's rule in (1+t) with additions only.
    """
    counts = tuple(counts)
    if len(counts) != n + 1:
        raise ValueError(f"need {n + 1} counts for length {n}, got {len(counts)}")
    acc: list[int] = []
    for c in counts:
        acc = [a + b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += c
    return tuple(reversed(acc))


@dataclass(frozen=True)
class PropertyReport:
    """Itemized pass/fail record for the enumerator-pair invariants."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, passed in self.checks if not passed)


def check_enum_properties(pair: EnumeratorPair) -> PropertyReport:
    """Verify the structural invariants every valid enumerator pair obeys."""
    b, bp = pair.weights, pair.dual_weights
    checks = (
        ("code_zero_coeff", b[0] == 1),
        ("dual_zero_coeff", bp[0] == 1),
        ("dual_dominates", all(0 <= b[i] <= bp[i] for i in range(pair.n + 1))),
        ("dual_sum", sum(bp) == (1 << pair.n) * pair.dim),
        ("code_sum", sum(b) * pair.dim == (1 << pair.n)),
    )
    return PropertyReport(checks)


def min_distance(pair: EnumeratorPair) -> int:
    """Smallest weight where the code and dual distributions part ways.

    Returns t + 1 for the largest t with weights[i] == dual_weights[i] for all
    i <= t, and the sentinel n + 1 when the distributions agree everywhere.
    """
    report = check_enum_properties(pair)
    if not report.ok:
        raise ValueError("invalid enumerator pair: " + ", ".join(report.failures))
    for i in range(pair.n + 1):
        if pair.weights[i] != pair.dual_weights[i]:
            return i
    return pair.n + 1
