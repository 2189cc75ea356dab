"""Additive codes over GF(4) in symplectic bit-plane form.

A length-n word over GF(4) = {0, 1, w, w^2} is stored as a pair of n-bit
integers (x-plane, z-plane), one bit per position, with

    0 <-> (0, 0),   1 <-> (1, 0),   w <-> (0, 1),   w^2 <-> (1, 1),

which under the usual correspondence with Pauli labels reads I, X, Z, Y.
Addition is componentwise XOR of both planes.  The trace inner product

    u * v = sum_i (u.x_i v.z_i + u.z_i v.x_i)   (mod 2)

vanishes exactly when the Pauli operators labelled by u and v commute, so
dual codes are GF(2) kernels of the plane-swapped generator matrix and all
linear algebra here is plain Gaussian elimination on Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

# Codes larger than this are never enumerated element by element; callers
# must go through the MacWilliams transform instead.
ENUMERATION_CAP = 1 << 22

_LABEL_OF_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_LABEL = {label: bits for bits, label in _LABEL_OF_BITS.items()}
_BITS_OF_FIELD_CHAR = {"0": (0, 0), "1": (1, 0), "w": (0, 1), "W": (1, 1)}

_PAULI_CHARS = set("IXZY")
_FIELD_CHARS = set("01wW")


class CodeFormatError(ValueError):
    """Raised when a code file or label cannot be parsed."""


@dataclass(frozen=True)
class GF4Vector:
    """Length-n word over GF(4); bit i of each plane is position i."""

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vector length must be nonnegative")
        mask = (1 << self.n) - 1
        if not (0 <= self.x <= mask and 0 <= self.z <= mask):
            raise ValueError("bit plane does not fit the declared length")

    @classmethod
    def zero(cls, n: int) -> GF4Vector:
        return cls(n, 0, 0)

    @property
    def weight(self) -> int:
        """Number of nonzero positions."""
        return (self.x | self.z).bit_count()

    @property
    def is_zero(self) -> bool:
        return not (self.x | self.z)

    def symbol(self, i: int) -> tuple[int, int]:
        """(x, z) bit pair at position i."""
        return (self.x >> i) & 1, (self.z >> i) & 1

    def __add__(self, other: GF4Vector) -> GF4Vector:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return GF4Vector(self.n, self.x ^ other.x, self.z ^ other.z)

    def __str__(self) -> str:
        return pauli_label(self)


def trace_inner(u: GF4Vector, v: GF4Vector) -> int:
    """Trace inner product of two words; 0 iff the Pauli operators commute."""
    if u.n != v.n:
        raise ValueError("length mismatch")
    return ((u.x & v.z).bit_count() + (u.z & v.x).bit_count()) & 1


def pauli_label(v: GF4Vector) -> str:
    """Word as a Pauli label string, e.g. (1, w, w^2) -> "XZY"."""
    return "".join(_LABEL_OF_BITS[v.symbol(i)] for i in range(v.n))


def all_vectors(n: int) -> Iterator[GF4Vector]:
    """All 4^n words of length n, in a fixed deterministic order."""
    for x in range(1 << n):
        for z in range(1 << n):
            yield GF4Vector(n, x, z)


# ---------------------------------------------------------------------------
# GF(2) row reduction on integers (bit j of a row = column j).

def _reduce_row(v: int, basis: Iterable[int]) -> int:
    """Reduce v against rows with distinct leading bits, sorted descending."""
    for b in basis:
        if (v >> (b.bit_length() - 1)) & 1:
            v ^= b
    return v


def _echelon_insert(basis: list[int], v: int) -> bool:
    """Insert v into a descending echelon basis; True if rank grew."""
    v = _reduce_row(v, basis)
    if not v:
        return False
    basis.append(v)
    basis.sort(reverse=True)
    return True


def _rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced row-echelon form of the GF(2) row space."""
    basis: list[int] = []
    for row in rows:
        row = _reduce_row(row, basis)
        if not row:
            continue
        lead = row.bit_length() - 1
        basis = [b ^ row if (b >> lead) & 1 else b for b in basis]
        basis.append(row)
        basis.sort(reverse=True)
    return tuple(basis)


def _nullspace(rows: Iterable[int], width: int) -> list[int]:
    """Basis of {v : <row, v> = 0 for all rows} over GF(2)."""
    rref = list(_rref(rows))
    pivot_cols = [r.bit_length() - 1 for r in rref]
    basis = []
    for col in range(width):
        if col in pivot_cols:
            continue
        v = 1 << col
        for row, pcol in zip(rref, pivot_cols):
            if (row >> col) & 1:
                v |= 1 << pcol
        basis.append(v)
    return basis


def _sym_row(v: GF4Vector) -> int:
    return v.x | (v.z << v.n)


def _dual_row(v: GF4Vector) -> int:
    # Plane swap: <_dual_row(g), _sym_row(w)> over GF(2) is trace_inner(g, w).
    return v.z | (v.x << v.n)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdditiveCode:
    """Additive GF(4) code given by a GF(2)-independent generating set.

    The code has 2^r elements where r = len(generators); interpreted as a
    stabilizer group it fixes a subspace of dimension dim = 2^(n - r).
    """

    n: int
    generators: tuple[GF4Vector, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator length mismatch")
        basis: list[int] = []
        for g in self.generators:
            if not _echelon_insert(basis, _sym_row(g)):
                raise ValueError("generators are GF(2)-dependent; "
                                 "use AdditiveCode.from_generators")

    @classmethod
    def from_generators(cls, n: int, generators: Iterable[GF4Vector]) -> AdditiveCode:
        """Build a code, silently dropping GF(2)-dependent generators."""
        kept: list[GF4Vector] = []
        basis: list[int] = []
        for g in generators:
            if _echelon_insert(basis, _sym_row(g)):
                kept.append(g)
        return cls(n, tuple(kept))

    @property
    def rank(self) -> int:
        """GF(2) rank r; the code has 2^r elements."""
        return len(self.generators)

    @property
    def size(self) -> int:
        return 1 << self.rank

    @property
    def dim(self) -> int:
        """Dimension 2^(n-r) of the stabilized subspace."""
        return 1 << (self.n - self.rank)

    @cached_property
    def is_self_orthogonal(self) -> bool:
        """True when every pair of generators has trace inner product 0."""
        gens = self.generators
        return all(trace_inner(gens[i], gens[j]) == 0
                   for i in range(len(gens)) for j in range(i + 1, len(gens)))

    def contains(self, v: GF4Vector) -> bool:
        if v.n != self.n:
            raise ValueError("length mismatch")
        return _reduce_row(_sym_row(v), self._canonical) == 0

    def codewords(self) -> Iterator[GF4Vector]:
        """Yield all 2^r codewords once, in Gray-code order."""
        if self.size > ENUMERATION_CAP:
            raise ValueError(f"code has {self.size} elements, "
                             f"beyond the enumeration cap {ENUMERATION_CAP}")
        x = z = 0
        yield GF4Vector(self.n, 0, 0)
        for i in range(1, self.size):
            g = self.generators[(i & -i).bit_length() - 1]
            x ^= g.x
            z ^= g.z
            yield GF4Vector(self.n, x, z)

    @cached_property
    def _canonical(self) -> tuple[int, ...]:
        # RREF rows have distinct leading bits, sorted descending, as
        # _reduce_row needs; contains() reduces against them.
        return _rref(_sym_row(g) for g in self.generators)

    @cached_property
    def _syndrome_keys(self) -> tuple[int, ...]:
        # The generators' _dual_row keys: bit i of the syndrome of a word w
        # is the parity of _sym_row(w) & key i.
        return tuple(_dual_row(g) for g in self.generators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdditiveCode):
            return NotImplemented
        return self.n == other.n and self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash((self.n, self._canonical))


def dual(code: AdditiveCode) -> AdditiveCode:
    """Trace-inner-product dual; rank 2n - r, so |C| * |dual(C)| = 4^n."""
    n = code.n
    mask = (1 << n) - 1
    kernel = _nullspace((_dual_row(g) for g in code.generators), 2 * n)
    gens = tuple(GF4Vector(n, k & mask, k >> n) for k in kernel)
    return AdditiveCode(n, gens)


# ---------------------------------------------------------------------------
# Code-file parsing.

def _parse_generator_line(line: str, lineno: int) -> tuple[int, int, int]:
    if line[0] == "-":
        raise CodeFormatError(
            f"line {lineno}: explicit '-' sign prefix is not supported "
            "(generators are taken with implicit '+' phase)")
    chars = set(line)
    if chars <= _PAULI_CHARS:
        table = _BITS_OF_LABEL
    elif chars <= _FIELD_CHARS:
        table = _BITS_OF_FIELD_CHAR
    elif (chars & _PAULI_CHARS) and (chars & _FIELD_CHARS):
        raise CodeFormatError(f"line {lineno}: mixed Pauli and field alphabets")
    else:
        bad = sorted(chars - _PAULI_CHARS - _FIELD_CHARS)[0]
        raise CodeFormatError(f"line {lineno}: unknown symbol {bad!r}")
    x = z = 0
    for i, ch in enumerate(line):
        xb, zb = table[ch]
        x |= xb << i
        z |= zb << i
    return len(line), x, z


def parse_code(text: str) -> AdditiveCode:
    """Parse the text code-file format.

    Lines starting with '#' are comments; an optional header "n=<int> k=<int>"
    may precede the generators (one per line, over {I,X,Z,Y} or {0,1,w,W}).
    Dependent generator rows are silently dropped.
    """
    header_n: int | None = None
    header_k: int | None = None
    rows: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            if rows:
                raise CodeFormatError(f"line {lineno}: header after generators")
            if header_n is not None:
                raise CodeFormatError(f"line {lineno}: duplicate header")
            parts = line.split()
            try:
                if len(parts) != 2:
                    raise ValueError
                header_n = int(parts[0].removeprefix("n="))
                header_k = int(parts[1].removeprefix("k="))
            except ValueError:
                raise CodeFormatError(
                    f"line {lineno}: malformed header (expected 'n=<int> k=<int>')"
                ) from None
            continue
        rows.append(_parse_generator_line(line, lineno))

    lengths = {length for length, _, _ in rows}
    if len(lengths) > 1:
        raise CodeFormatError("inconsistent generator row lengths")
    n = lengths.pop() if lengths else (header_n if header_n is not None else 0)
    if header_n is not None and header_n != n:
        raise CodeFormatError(f"header declares n={header_n} but rows have length {n}")
    code = AdditiveCode.from_generators(
        n, (GF4Vector(n, x, z) for _, x, z in rows))
    if header_k is not None and header_k != n - code.rank:
        raise CodeFormatError(
            f"header declares k={header_k} but generators give k={n - code.rank}")
    return code
