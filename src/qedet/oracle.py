"""Dense complex-matrix ground truth for small qubit counts.

Everything the combinatorial modules compute can be recomputed here from
2^n x 2^n matrices: Pauli operators as monomial matrices (a permutation of
the basis times phases i^k, built from the bit planes), stabilizer
projectors as the product of (I + G)/2 over the generators, the
trace-formula weight enumerators, the three-way error classification,
uniform sampling on the stabilized subspace, and exact evaluation of the
undetected-error functionals.  All of it is capped at a handful of qubits
by design.

Sums over all 4^n errors are Walsh-Hadamard transforms.  In index form an
error E(x, z) maps |j> to i^|x&z| (-1)^|j&z| |j^x>, so

    Tr(E A) = i^(3|x&z|) sum_j (-1)^|j&z| A[j^x, j],

and the traces of one operator against every error are one product of the
gathered diagonals A[j^x, j] with the +-1 Hadamard matrix.  Tr(E P E P)
is such a transform of an XOR-correlation of P's diagonals, which two
more Hadamard products give (`_trace_tables`), with no loop over errors
or shifts.

`code_projector` returns a read-only array.  What the oracle derives from a
read-only array that owns its data is kept until the array dies (`_kept`):
K = Tr P with the 4^n tables of Tr(E P) and Tr(E P E P) (`_trace_tables`),
which the enumerators and both functionals sum and each classification
reads one entry of, and the range basis L.  Any other array is derived
afresh on every call.  For M_E = L^dag E L, ||M_E||_F^2 = Tr(E P E P) and
|Tr M_E|^2 = |Tr(E P)|^2, so both functionals are closed forms in two
sums over the tables (`_error_sums`), `pue_nonstab_mc` through the two
sphere moments that the moment checks test by sampling.

Uniform subspace states live in K code-space coordinates.  `_range_basis`
gives an orthonormal basis L of range(P) (L L^dag = P) by a pivoted
Cholesky; a state is v = L u for a normalized K-dimensional complex
Gaussian u.  Every state takes 2K consecutive normals from the stream,
read as K (real, imaginary) pairs, so the states a generator yields do not
depend on how they are split into calls.  The two moment checks draw runs
of states, as many as keep each temporary within _CHUNK_CELLS = 2^13 cells
and at least _CHUNK, and hold them coordinate-major (K x N).  The fourth
moment works on the K^2 real coordinates q of H = conj(u) u^T, an isometric
image of vec(H), so a Frobenius norm is the same in either.  There the
target (I + SWAP)/(K (K + 1)) reads (q_I q_I^T + I)/(K (K + 1)), q_I
marking the K diagonal coordinates.

Seeded draws come from numpy's PCG64 seeded with
SeedSequence(seed, spawn_key=(0,)) (`_seeded_rng`), so results are
reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .gf4 import AdditiveCode, GF4Vector, _sym_row
from .enumerators import EnumeratorPair

DenseOperator = np.ndarray

DEFAULT_ORACLE_CAP = 6
COMPOSITE_CAP = 4  # unused by qedet; the benchmark's verify job reads it

# classify_error_dense's tolerance on Tr(EPEP) against 0 and K and on
# |Tr(EP)| against K; a stabilizer code's traces are dyadic sums, exact here.
_CLASSIFY_TOL = 1e-10
# Simulated trials per block, and the fewest states a moment check draws
# at once.
_CHUNK = 256
# Cells per temporary of a chunked array computation (a complex entry is two
# cells): 2^13 float64 cells keep every temporary at 64 KiB, under glibc's
# 128 KiB mmap threshold.
_CHUNK_CELLS = 1 << 13

_PHASES = np.array([1, 1j, -1, -1j])

# What `_kept` keeps, by the id of a live read-only projector: {build: value}.
_KEPT: dict[int, dict] = {}


def _kept(p_op: DenseOperator, build):
    """build(p_op), kept with p_op if it is a read-only array that owns its
    data, and dropped when that array dies; any other array may change
    between calls, so build runs every time and nothing is kept."""
    if p_op.flags.writeable or not p_op.flags.owndata:
        return build(p_op)
    kept = _KEPT.get(id(p_op))
    if kept is None:
        kept = _KEPT[id(p_op)] = {}
        weakref.finalize(p_op, _KEPT.pop, id(p_op), None)
    if build not in kept:
        kept[build] = build(p_op)
    return kept[build]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"n={n} exceeds the dense oracle cap of {cap} qubits")


def _check_dim(p_op: DenseOperator, dim: int) -> None:
    """A projector's trace is its rank, which must be the declared K >= 1."""
    if dim < 1:
        raise ValueError(f"dimension dim must be at least 1, not {dim}")
    if abs(np.trace(p_op) - dim) > 1e-8:
        raise ValueError("projector rank does not match the declared dimension")


def _check_p(p) -> tuple[int, int]:
    """p as a/b, checked exactly on the integers: 0 <= a and 4a <= 3b."""
    try:
        a, b = p.as_integer_ratio()
    except AttributeError:  # numpy integers; other types raise TypeError
        a, b = operator.index(p), 1
    except (ValueError, OverflowError):  # NaN and infinities
        a, b = -1, 1
    if not (0 <= a and 4 * a <= 3 * b):
        raise ValueError(f"depolarizing probability {p} outside [0, 3/4]")
    return a, b


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of a seeded estimate; spawn key (0,) keeps its stream
    apart from the SeedSequence(seed) stream of a verify battery run with
    the same seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(0,))))


def _reverse_bits(a: int, n: int) -> int:
    """The n low bits of a in reverse order: qubit q <-> index bit n-1-q."""
    r = 0
    for q in range(n):
        r = (r << 1) | ((a >> q) & 1)
    return r


@functools.cache
def _bit_reversal(n: int) -> tuple[int, ...]:
    """_reverse_bits(a, n) for every n-bit a, built once per n."""
    return tuple(_reverse_bits(a, n) for a in range(1 << n))


@functools.cache
def _shifts(n: int) -> np.ndarray:
    """The XOR table S[x, j] = j ^ x of order 2^n, whose row x is the row
    permutation of every error with x-plane x, built once per n (read-only)."""
    j = np.arange(1 << n)
    s = j[:, None] ^ j
    s.flags.writeable = False
    return s


@functools.cache
def _hadamard(n: int) -> np.ndarray:
    """The +-1 Hadamard matrix H[j, z] = (-1)^|j&z| of order 2^n: the parity
    table of every index against every z, built once per n (read-only)."""
    j = np.arange(1 << n)
    h = np.where(np.bitwise_count(j[:, None] & j) & 1, -1.0, 1.0)
    h.flags.writeable = False
    return h


def _pauli_action(v: GF4Vector) -> tuple[np.ndarray, np.ndarray]:
    """Rows and phases with (E @ A) == phases[:, None] * A[rows] for E = P_v.

    P|j> = i^|x&z| (-1)^|j&z| |j^x>, where qubit q is index bit n-1-q, as in
    the Kronecker product of the single-qubit factors in qubit order.  The
    signs at j = rows are H[z, j^x] = H[z, x] H[z, j]: row z of the Hadamard
    matrix scaled by H[z, x], with no gather.
    """
    rev, h = _bit_reversal(v.n), _hadamard(v.n)
    x, z = rev[v.x], rev[v.z]
    return (_shifts(v.n)[x],
            _PHASES[(x & z).bit_count() % 4] * (h[z, x] * h[z]))


def _error_table(n: int, p: float) -> np.ndarray:
    """Pr(x, z) of every index-form error under the depolarizing channel,
    with the identity's entry set to 0 (its term vanishes identically)."""
    j = np.arange(1 << n)
    wt = np.bitwise_count(j[:, None] | j).astype(np.int64)
    probs = (p / 3) ** wt * (1 - p) ** (n - wt)
    probs[0, 0] = 0.0
    return probs


def pauli_matrix(v: GF4Vector, cap: int = DEFAULT_ORACLE_CAP) -> DenseOperator:
    """Dense matrix of the Pauli word v with the bare '+' phase."""
    _check_cap(v.n, cap)
    rows, phases = _pauli_action(v)
    m = np.zeros((len(rows), len(rows)), dtype=complex)
    m[np.arange(len(rows)), rows] = phases
    return m


def _sample_errors(n: int, p: float, rng: np.random.Generator,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """Index-form words (x, z) of `count` depolarizing-channel errors.

    Each position is hit independently with probability p and then uniform
    over X, Z, Y.  Qubit q is index bit n-1-q; the arrays are int64, or
    Python ints for n >= 63.
    """
    _check_p(p)
    hit = rng.random((count, n)) < p
    kinds = rng.integers(0, 3, size=(count, n))
    bits = np.array([1 << (n - 1 - q) for q in range(n)],
                    dtype=np.int64 if n < 63 else object)
    # Kinds 0, 1, 2 are X, Z, Y: the x plane is kind != 1, the z plane kind != 0.
    return (hit & (kinds != 1)) @ bits, (hit & (kinds != 0)) @ bits


def code_projector(code: AdditiveCode, cap: int = DEFAULT_ORACLE_CAP) -> DenseOperator:
    """Projector prod_g (I + G)/2 on the subspace stabilized by a
    self-orthogonal code, one factor per generator.

    The generators commute, so the factors are commuting projectors and
    every entry is dyadic, hence exact.  Hermiticity, idempotence and
    trace K = 2^(n-r) are checked all the same.  The result is read-only, so
    the oracle keeps what it derives from it (`_kept`).
    """
    if not code.is_self_orthogonal:
        raise ValueError("code is not self-orthogonal")
    _check_cap(code.n, cap)
    p = np.eye(1 << code.n, dtype=complex)
    for g in code.generators:
        rows, phases = _pauli_action(g)
        p = (p + phases[:, None] * p[rows]) / 2
    if np.max(np.abs(p - p.conj().T)) > 1e-10:
        raise ValueError("projector is not Hermitian")
    if np.max(np.abs(p @ p - p)) > 1e-10:
        raise ValueError("projector is not idempotent")
    if abs(np.trace(p) - code.dim) > 1e-8:
        raise ValueError("projector has the wrong trace")
    p.flags.writeable = False
    return p


def _trace_tables(p_op: DenseOperator) -> tuple[float, np.ndarray, np.ndarray]:
    """(K, Tr(E P), Tr(E P E P)) for K = Tr P and every index-form error
    E(x, z), each table indexed [x, z] (read-only).

    Both tables come from Hadamard transforms (see the module docstring).
    Tr(E P E P) = H[x, z] sum_y H[y, z] G[x, y] for
    G[x, y] = sum_j P[j^x, j^y] P[j^x^y, j], as E P is the rows P[j^x, :]
    with phases.  With m = j^x^y and the shifted diagonals
    F[m, s] = P[m, m^s], a term is F[m^y, x^y] F[m, x^y], so
    G[x, y] = C[y, x^y] for the XOR-correlation
    C[w, s] = sum_m F[m, s] F[m^w, s].  The Hadamard matrix diagonalizes
    XOR-correlation (H H = 2^n I): C = H ((H F) o (H F)) / 2^n, with o
    the elementwise product.
    """
    n = (p_op.shape[0] - 1).bit_length()
    h, shifts = _hadamard(n), _shifts(n)
    j = shifts[0]
    f = h @ p_op[j[:, None], shifts]
    g = (h @ (f * f))[j, shifts] / len(j)
    # Tr(E P) = i^(3|x&z|) (P[j^x, j] H)[x, z].
    t_ep = (_PHASES[3 * np.bitwise_count(j[:, None] & j) % 4]
            * (p_op[shifts, j] @ h))
    t_epep = h * (g @ h)
    t_ep.flags.writeable = t_epep.flags.writeable = False
    return float(p_op.trace().real), t_ep, t_epep


def _error_traces(p_op: DenseOperator, e: GF4Vector) -> tuple[float, complex, complex]:
    """(K, Tr(E P), Tr(E P E P)) for the word e: one lookup in each table."""
    n = (p_op.shape[0] - 1).bit_length()
    if e.n != n:
        raise ValueError(f"a {e.n}-qubit error word on a {n}-qubit projector")
    k, t_ep, t_epep = _kept(p_op, _trace_tables)
    rev = _bit_reversal(n)
    x, z = rev[e.x], rev[e.z]
    return k, t_ep.item(x, z), t_epep.item(x, z)


def enumerators_bruteforce(p_op: DenseOperator, dim: int,
                           cap: int = DEFAULT_ORACLE_CAP) -> EnumeratorPair:
    """Weight enumerators from the trace formulas, summed over all 4^n errors.

    weights[i]      = (1/dim^2) sum_{wt(E)=i} Tr(E P)^2
    dual_weights[i] = (1/dim)   sum_{wt(E)=i} Tr(E P E P)

    The sums run over the tables of `_trace_tables`.  They are rounded to
    integers; residuals above 1e-6 (or imaginary parts above 1e-10) raise.
    """
    n = (p_op.shape[0] - 1).bit_length()
    _check_cap(n, cap)
    _check_dim(p_op, dim)
    _, t_ep, t_epep = _kept(p_op, _trace_tables)
    j = np.arange(1 << n)
    wt = np.bitwise_count(j[:, None] | j).ravel()

    def by_weight(t: np.ndarray) -> np.ndarray:
        t = t.ravel()
        return (np.bincount(wt, t.real, n + 1)
                + 1j * np.bincount(wt, t.imag, n + 1))

    b_acc = by_weight(t_ep ** 2) / (dim * dim)
    bp_acc = by_weight(t_epep) / dim
    if max(np.max(np.abs(b_acc.imag)), np.max(np.abs(bp_acc.imag))) > 1e-10:
        raise ValueError("trace enumerators have nonreal parts")
    weights = np.rint(b_acc.real)
    dual_weights = np.rint(bp_acc.real)
    residual = max(np.max(np.abs(b_acc.real - weights)),
                   np.max(np.abs(bp_acc.real - dual_weights)))
    if residual > 1e-6:
        raise ValueError(f"trace enumerators are not near-integral "
                         f"(residual {residual:.2e})")
    return EnumeratorPair(n, dim,
                          tuple(int(c) for c in weights),
                          tuple(int(c) for c in dual_weights))


TRIVIAL, DETECTED, UNDETECTABLE = "trivial", "detected", "undetectable"


def classify_error(code: AdditiveCode, e: GF4Vector) -> str:
    """Three-way classification of an error word against a code.

    trivial: in the code (acts as identity on the subspace);
    detected: outside the dual (maps the subspace into its complement);
    undetectable: in the dual but not the code (rotates the subspace).
    The syndrome bits are parities against the code's plane-swapped keys.
    """
    if code.contains(e):
        return TRIVIAL
    row = _sym_row(e)
    for key in code._syndrome_keys:  # a loop: no generator per call
        if (row & key).bit_count() & 1:
            return DETECTED
    return UNDETECTABLE


def classify_error_dense(p_op: DenseOperator, e: GF4Vector,
                         cap: int = DEFAULT_ORACLE_CAP) -> str:
    """Matrix version of classify_error, from the traces of E P and E P E P.

    Tr(E P E P) = ||P E P||_F^2 is 0 when E maps the subspace to its
    complement and K = Tr P when E preserves it; a preserved E acts as +-I
    on the subspace exactly when |Tr(E P)| = K.  The traces are read from
    the projector's tables (`_trace_tables`); e must have P's qubit count.
    """
    _check_cap(e.n, cap)
    k, tr_ep, tr_epep = _error_traces(p_op, e)
    if abs(tr_epep) < _CLASSIFY_TOL:
        return DETECTED
    if abs(tr_epep - k) >= _CLASSIFY_TOL:
        raise ValueError("error neither preserves the subspace nor maps it "
                         "to the complement; not a valid stabilizer setup")
    if abs(abs(tr_ep) - k) < _CLASSIFY_TOL:
        return TRIVIAL
    return UNDETECTABLE


def _range_basis(p_op: DenseOperator) -> np.ndarray:
    """(2^n, K) matrix L with orthonormal columns and L L^dag = P.

    A pivoted Cholesky of P: each step takes the largest remaining diagonal
    entry (the first on ties) and stops once it is at most 1e-8.  For a
    projector the columns come out orthonormal, which is checked.  The steps
    are elementwise arithmetic on P's entries, so the basis is the same on
    every platform, unlike an eigendecomposition, whose basis of the
    degenerate eigenvalue-1 eigenspace is up to LAPACK.
    """
    res = np.array(p_op, dtype=complex)
    cols = []
    while True:
        diag = res.diagonal().real
        j = int(np.argmax(diag))
        if diag[j] <= 1e-8:
            break
        col = res[:, j] / math.sqrt(diag[j])
        res -= np.outer(col, col.conj())
        cols.append(col)
    if not cols:
        raise RuntimeError("projector is zero; its range has no states")
    basis = np.array(cols).T
    if np.max(np.abs(basis.conj().T @ basis - np.eye(len(cols)))) > 1e-8:
        raise ValueError("not a projector: its Cholesky columns are not "
                         "orthonormal")
    basis.flags.writeable = False
    return basis


def uniform_state(p_op: DenseOperator, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the unit sphere of the range of a projector."""
    return _uniform_batch(_kept(p_op, _range_basis), 1, rng)[0]


def _sphere_batch(count: int, dim: int,
                  rng: np.random.Generator) -> np.ndarray:
    """(count, dim) array of uniform samples from the unit sphere of C^dim:
    standard complex Gaussians, each from 2 dim consecutive normals read as
    (real, imaginary) pairs, normalized row by row."""
    g = rng.standard_normal((count, dim, 2)).view(complex)[..., 0]
    return g / np.linalg.norm(g, axis=1)[:, None]


def _uniform_batch(basis: np.ndarray, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(count, 2^n) states v = L u, uniform on the unit sphere of the range
    of L L^dag for a basis L from `_range_basis`: u is uniform on the sphere
    of the K code-space coordinates, and L is an isometry."""
    return _sphere_batch(count, basis.shape[1], rng) @ basis.T


@dataclass(frozen=True)
class MomentReport:
    """Deviation of a Monte Carlo matrix mean from its analytic target."""

    deviation: float        # Frobenius distance of the sample mean
    sigma: float            # analytic sqrt(E deviation^2) under the claim
    samples: int

    def within(self, band: float = 4.0) -> bool:
        """Deviation within `band` predicted sigmas.  When the claim leaves
        no sampling spread (sigma == 0, as for K = 1, where every sample
        equals the target), the test is deviation <= 1e-10 instead, which
        leaves room for rounding."""
        if self.sigma == 0:
            return self.deviation <= 1e-10
        return self.deviation <= band * self.sigma


def _gaussian_groups(total: int, dim: int, cells: int,
                     rng: np.random.Generator):
    """(2, dim, N) real and imaginary parts, one column per state, of the
    Gaussians of `total` states, drawn as `_sphere_batch` draws them, in
    runs of N states that keep N * max(cells, 2 dim) within _CHUNK_CELLS,
    but at least _CHUNK: narrower runs make the fourth moment's products
    of large K slower."""
    if total < 1:
        raise ValueError(f"a check needs at least 1 sample, not {total}")
    step = max(_CHUNK_CELLS // max(cells, 2 * dim), _CHUNK)
    for done in range(0, total, step):
        g = rng.standard_normal((min(step, total - done), dim, 2))
        yield np.ascontiguousarray(g.transpose(2, 1, 0))


@functools.cache
def _pairs(k: int) -> np.ndarray:
    """(2, K (K - 1)/2) index rows a, b of the pairs a < b, row by row
    (read-only)."""
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    ab = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    ab.flags.writeable = False
    return ab


def _hermitian_coordinates(g: np.ndarray) -> np.ndarray:
    """(K^2, N) real coordinates q of H = conj(u) u^T for the normalized
    columns u of a (2, K, N) group of `_gaussian_groups`: |u_a|^2, then
    sqrt2 Re and sqrt2 Im of conj(u_a) u_b for the pairs a < b of `_pairs`.
    The sqrt2 makes q an isometric image of vec(H): q_i . q_j = Tr(H_i H_j).
    """
    k = g.shape[1]
    a, b = _pairs(k)
    ga, gb = g[:, a], g[:, b]  # real and imaginary parts of u_a, u_b
    q = np.empty((k * k, g.shape[2]))
    np.sum(g * g, axis=0, out=q[:k])
    np.sum(ga * gb, axis=0, out=q[k:k + len(a)])
    np.subtract(ga[0] * gb[1], ga[1] * gb[0], out=q[k + len(a):])
    q[k:] *= math.sqrt(2)
    q /= q[:k].sum(axis=0)  # sum_a |u_a|^2 normalizes u
    return q


def verify_mean_projector(p_op: DenseOperator, dim: int, samples: int,
                          rng: np.random.Generator) -> MomentReport:
    """Check that the mean outer product of uniform subspace states is P/K.

    Each run of states (`_gaussian_groups`) adds U U^dag for its (K, N)
    code-space states U, and the mean L (sum u u^dag / N) L^dag is compared
    with P/K in the full space, so P stays in the check.  One state lies
    sqrt(1 - 1/K) from P/K in Frobenius norm.
    """
    _check_dim(p_op, dim)
    basis = _kept(p_op, _range_basis)
    total = 0.0
    for g in _gaussian_groups(samples, dim, 2 * dim, rng):
        u = (g[0] + 1j * g[1]) / np.sqrt(np.sum(g * g, axis=(0, 1)))
        total = total + u @ u.conj().T
    mean = basis @ (total / samples) @ basis.conj().T
    return MomentReport(float(np.linalg.norm(mean - p_op / dim)),
                        math.sqrt((1 - 1 / dim) / samples), samples)


def verify_fourth_moment(dim: int, samples: int,
                         rng: np.random.Generator) -> MomentReport:
    """Check the fourth-moment identity for uniform states on a K-sphere.

    The mean of vv* (x) vv* must equal (I + SWAP) / (K (K + 1)), that is
    E[H_ab conj(H_cd)] = (d_ab d_cd + d_ac d_bd) / (K (K + 1)) for
    H = v v^dag.  In the real coordinates q of `_hermitian_coordinates`
    the target is E[q q^T] = (q_I q_I^T + I) / (K (K + 1)), where q_I marks
    the K diagonal coordinates; as q is an isometric image of vec(H), the
    Frobenius distance of the mean of q q^T from it is the distance in the
    complex entries.  Each run of states adds Q Q^T, K^4 real multiply-adds
    a state.  One sample lies sqrt(1 - 2/(K (K + 1))) from the target.
    """
    if dim < 1:
        raise ValueError(f"dimension dim must be at least 1, not {dim}")
    total = np.zeros((dim * dim, dim * dim))
    for g in _gaussian_groups(samples, dim, dim * dim, rng):
        q = _hermitian_coordinates(g)
        total += q @ q.T
    total /= samples
    c = 1 / (dim * (dim + 1))
    total[:dim, :dim] -= c
    total.flat[::dim * dim + 1] -= c
    return MomentReport(float(np.linalg.norm(total)),
                        math.sqrt((1 - 2 * c) / samples), samples)


def deviation_curve(kind: str, dim: int, sizes, replicates: int,
                    seed: int = 0) -> list[float]:
    """Replicate-averaged moment-identity deviations for a list of sample counts.

    Used to check the 1/sqrt(N) decay; single-run deviations fluctuate far
    too much for a ratio test, so each point averages `replicates`
    independent runs.  Both identities are invariant under the isometry between
    the subspace and C^K, so the mean-projector kind runs on the identity
    projector of size K.
    """
    if kind == "mean_projector":
        eye = np.eye(dim, dtype=complex)
        runner = lambda n, rng: verify_mean_projector(eye, dim, n, rng).deviation
    elif kind == "fourth_moment":
        runner = lambda n, rng: verify_fourth_moment(dim, n, rng).deviation
    else:
        raise ValueError(f"unknown kind {kind!r}")
    means = []
    for idx, n in enumerate(sizes):
        acc = 0.0
        for rep in range(replicates):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(seed, spawn_key=(idx, rep))))
            acc += runner(int(n), rng)
        means.append(acc / replicates)
    return means


@dataclass(frozen=True)
class MCEstimate:
    """The value of `pue_nonstab_mc` with its standard error (0, as the
    value is a closed form) and its inputs."""

    estimate: float
    stderr: float
    samples: int
    seed: int
    p: float


def pue_nonstab_mc(p_op: DenseOperator, dim: int, p: float, samples: int,
                   seed: int = 0, cap: int = DEFAULT_ORACLE_CAP) -> MCEstimate:
    """The subspace-uniform undetected-error functional, in closed form.

    The mean over uniform subspace states v = L u of sum_E Pr(E)
    ||(I - vv*) P E v||^2, a value of ||M_E u||^2 - |u^dag M_E u|^2 per
    error for M_E = L^dag E L.  Over the unit sphere of C^K, E||M u||^2 =
    ||M||_F^2/K and E|u^dag M u|^2 = (|Tr M|^2 + ||M||_F^2)/(K(K+1)),
    summed over all errors by `_error_sums`.  No state is drawn: `samples`
    and `seed` are checked and echoed, and stderr is 0.
    """
    _check_p(p)
    p = float(p)
    if samples < 1:
        raise ValueError("samples must be positive")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    n = (p_op.shape[0] - 1).bit_length()
    _check_cap(n, cap)
    _check_dim(p_op, dim)
    norms, traces = _error_sums(p_op, p)
    return MCEstimate(norms / dim - (norms + traces) / (dim * (dim + 1)), 0.0,
                      samples, seed, p)


def _error_sums(p_op: DenseOperator, p: float) -> tuple[float, float]:
    """(sum_E Pr(E) Tr(E P E P), sum_E Pr(E) |Tr(E P)|^2) over the
    depolarizing channel's errors (`_error_table`), from the kept tables of
    `_trace_tables`.  E is Hermitian and P = L L^dag, so these are the sums
    of ||M_E||_F^2 and |Tr M_E|^2 for M_E = L^dag E L."""
    _kept(p_op, _range_basis)  # refuses a matrix that is not a projector
    _, t_ep, t_epep = _kept(p_op, _trace_tables)
    probs = _error_table((p_op.shape[0] - 1).bit_length(), p)
    return (float(np.vdot(probs, t_epep.real)),
            float(np.vdot(probs, t_ep.real ** 2 + t_ep.imag ** 2)))


def _error_images(basis: np.ndarray, hadamard: np.ndarray, u: np.ndarray,
                  x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(c, K) coordinates a = L^dag E(x, z) L u of each row u of a block of
    code-space states under its index-form error, up to the phase i^|x&z|
    that `simulate` cancels: as E|k> = i^|x&z| (-1)^|k&z| |k^x>, v = L u
    times row z of the Hadamard matrix is read at j^x by one flat take."""
    d = len(hadamard)
    v = u @ basis.T
    v *= hadamard[z]
    at = _shifts(d.bit_length() - 1)[x]
    at += np.arange(0, len(v) * d, d)[:, None]
    return v.ravel().take(at) @ basis.conj()


def pue_composite_exact(p_op: DenseOperator, dim: int, p: float) -> float:
    """Deterministic evaluation of the entangled-transmission functional.

    Sums Pr(E) ||(I - bb*)(P x I)(E x I) b||^2 over all errors for the
    completely entangled state b = vec(L)/sqrt(K) between the subspace and a
    K-dimensional reference system.  For M_E = L^dag E L the terms are
    ||M_E||_F^2/K - |Tr M_E|^2/K^2, summed by `_error_sums`.  No qubit cap
    applies: its tables are no larger than P.
    """
    _check_p(p)
    _check_dim(p_op, dim)
    norms, traces = _error_sums(p_op, float(p))
    return norms / dim - traces / (dim * dim)
