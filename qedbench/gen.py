"""Seeded stabilizer-code generator, independent of the library under test.

A length-n Pauli word is one 2n-bit integer: bits 0..n-1 are the x-plane,
bits n..2n-1 the z-plane.  Two words commute when the symplectic form

    <u, v> = popcount(swap(u) & v) mod 2,   swap = exchange the two planes,

vanishes.  Generators are drawn one at a time: a random word is projected
onto the commutant of the generators drawn so far (one bit flip per pivot of
the reduced row-echelon constraint matrix), then kept if it is independent
of them.  Random words are assembled from random bytes, so any n works;
`rng.integers(0, 1 << n)` would overflow at n >= 63.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

PAULI = "IXZY"   # index x | (z << 1)
FIELD = "01wW"   # same index order: 0 ~ I, 1 ~ X, w ~ Z, W ~ Y


def random_word(rng: np.random.Generator, n: int) -> int:
    """Uniform 2n-bit word from the generator's byte stream."""
    return int.from_bytes(rng.bytes((2 * n + 7) // 8), "little") & ((1 << 2 * n) - 1)


def swap_planes(w: int, n: int) -> int:
    return (w >> n) | ((w & ((1 << n) - 1)) << n)


def _reduce(w: int, rows: list[tuple[int, int]]) -> int:
    for row, pivot in rows:
        if (w >> pivot) & 1:
            w ^= row
    return w


def _insert_rref(rows: list[tuple[int, int]], w: int) -> bool:
    """Add w to a reduced row-echelon basis of (row, pivot) pairs.

    Each pivot bit is set in its own row only.  Returns False when w is
    already in the span.
    """
    w = _reduce(w, rows)
    if not w:
        return False
    pivot = w.bit_length() - 1
    rows[:] = [(row ^ w if (row >> pivot) & 1 else row, p) for row, p in rows]
    rows.append((w, pivot))
    return True


def commuting_generators(rng: np.random.Generator, n: int, r: int) -> list[int]:
    """r independent, pairwise commuting words of length n (needs r <= n)."""
    if not 0 <= r <= n:
        raise ValueError(f"an isotropic set on {n} qubits has at most {n} words")
    gens: list[int] = []
    span: list[tuple[int, int]] = []         # row space of the generators
    constraints: list[tuple[int, int]] = []  # rows swap(g): <g, w> = parity(row & w)
    while len(gens) < r:
        w = random_word(rng, n)
        for row, pivot in constraints:
            if (row & w).bit_count() & 1:
                w ^= 1 << pivot
        if not _insert_rref(span, w):
            continue
        gens.append(w)
        _insert_rref(constraints, swap_planes(w, n))
    return gens


def word_text(w: int, n: int, alphabet: str = PAULI) -> str:
    return "".join(alphabet[((w >> i) & 1) | (((w >> (n + i)) & 1) << 1)]
                   for i in range(n))


def code_text(gens: list[int], n: int, alphabet: str = PAULI,
              comment: str = "") -> str:
    """Code-file text with an `n= k=` header, one generator per line."""
    lines = [f"# {comment}"] if comment else []
    lines.append(f"n={n} k={n - len(gens)}")
    lines.extend(word_text(g, n, alphabet) for g in gens)
    return "\n".join(lines) + "\n"


def random_code_text(rng: np.random.Generator, n: int, r: int) -> str:
    """A random [[n, n-r]] stabilizer code; the alphabet is drawn too."""
    gens = commuting_generators(rng, n, r)
    alphabet = FIELD if rng.random() < 0.25 else PAULI
    return code_text(gens, n, alphabet, comment=f"generated [[{n},{n - r}]]")


# ---------------------------------------------------------------------------
# Workload inputs.  A job has one of four kinds, and each kind puts a
# different layer on top (enumerate: gf4 and enumerators; closed-form: pue;
# simulate: chansim; verify: oracle); a workload runs the jobs of two kinds.
# Code shapes are fixed so that every seed asks for the same amount of work;
# the seed draws the generators, the job order and the job seeds.

WORKLOAD_KINDS = {
    "combinatorial": ("enumerate", "closed-form"),
    "dense": ("simulate", "verify"),
}
WHY = {
    "combinatorial": "Exact combinatorics: enumerate jobs (direct codeword "
                     "enumeration dominates) and closed-form jobs (pue "
                     "dominates, enumeration bypassed via MacWilliams).",
    "dense": "Dense-matrix paths: simulate jobs (chansim per-trial loop "
             "dominates) and verify jobs (oracle Pauli products over all "
             "4^n errors dominate).",
}

C422 = "# [[4,2,2]]\nn=4 k=2\nXXXX\nZZZZ\n"
FIVE13 = "# [[5,1,3]]\nn=5 k=1\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n"

# Shapes (n, r) of the enumerate jobs.  A job's cost follows its dual size
# 2^(2n-r), here 2^9 to 2^17, so every dual is enumerated directly.
ENUM_SHAPES = ((8, 7), (8, 7), (9, 9), (9, 7), (9, 7), (10, 9), (10, 9),
               (10, 7), (10, 7), (10, 7), (10, 7), (10, 7), (10, 7),
               (11, 7), (11, 7), (11, 7), (12, 7), (12, 7), (12, 7), (12, 7))
# Closed-form jobs: at most 2^10 codewords; duals of 2^38 words and more
# take the transform path.  Cost grows with n.
CLOSED_SHAPES = tuple((n, 4 + i % 7) for i, n in enumerate(
    (24,) * 4 + (48,) * 3 + (60,) * 6 + (72,) * 3 + (96,) * 4))
SIM_P = (0.05, 0.1, 0.3)
PROTOCOLS = ("stabilizer", "nonstabilizer")
SIM_TRIALS = 1000
# The `qed verify` default.  With 2000 samples the sampled-error Monte Carlo
# check on five13 (n=5) often draws no undetectable error at p=0.1, its
# empirical stderr is then 0, and the check reports FAIL.
VERIFY_SAMPLES = 20000


class Spec(NamedTuple):
    """One job's input.  `count` is trials (simulate) or samples (verify)."""

    kind: str
    label: str
    text: str
    protocol: str = ""
    p: float = 0.0
    seed: int = 0
    count: int = 0


def _job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 31))


def _kind_inputs(kind: str, rng: np.random.Generator, g62: str,
                 tiny: bool) -> tuple[list[Spec], Spec]:
    if kind in ("enumerate", "closed-form"):
        if kind == "enumerate":
            shapes, warm = (((8, 5), (9, 7)) if tiny else ENUM_SHAPES), (8, 7)
        else:
            shapes, warm = (((24, 4), (32, 6)) if tiny else CLOSED_SHAPES), (24, 4)
        specs = [Spec(kind, f"{kind} n={n} r={r}", random_code_text(rng, n, r))
                 for n, r in shapes]
        specs = [specs[i] for i in rng.permutation(len(specs))]
        return specs, Spec(kind, f"{kind} warm-up", random_code_text(rng, *warm))

    codes = {"c422": C422, "five13": FIVE13, "g62": g62}
    names = ("c422",) if tiny else tuple(codes)
    if kind == "simulate":
        ps, trials = ((0.3,), 100) if tiny else (SIM_P, SIM_TRIALS)
        specs = [Spec(kind, f"{kind} {name} {proto} p={p}", codes[name], proto,
                      p, _job_seed(rng), trials)
                 for name in names for proto in PROTOCOLS for p in ps]
        return specs, Spec(kind, f"{kind} warm-up", C422, "stabilizer", 0.3,
                           _job_seed(rng), 100)
    if kind == "verify":
        samples = 200 if tiny else VERIFY_SAMPLES
        specs = [Spec(kind, f"{kind} {name}", codes[name], seed=_job_seed(rng),
                      count=samples) for name in names]
        return specs, Spec(kind, f"{kind} warm-up", C422, seed=_job_seed(rng),
                           count=200)
    raise ValueError(f"unknown job kind {kind!r}")


def workload_inputs(workload: str, seed: int,
                    tiny: bool = False) -> tuple[list[Spec], list[Spec]]:
    """One round of job inputs and cheap warm-up jobs, all from `seed`."""
    rng = np.random.default_rng([seed, list(WHY).index(workload)])
    g62 = random_code_text(rng, 6, 4)
    groups, warmups = [], []
    for kind in WORKLOAD_KINDS[workload]:
        kind_specs, warm = _kind_inputs(kind, rng, g62, tiny)
        groups.append(kind_specs)
        warmups.append(warm)
    return interleave(groups), warmups


def interleave(groups: list[list[Spec]]) -> list[Spec]:
    """Merge the groups so that each one's items are spread evenly over the
    round: every kind's jobs then sample the host's speed over the whole run,
    not over one stretch of each round."""
    keyed = [((i + 0.5) / len(g), k, i) for k, g in enumerate(groups)
             for i in range(len(g))]
    return [groups[k][i] for _, k, i in sorted(keyed)]
