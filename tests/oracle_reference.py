"""Per-error and per-trial reference loops for the dense oracle and the
protocol simulator.

The library sums over all 4^n Pauli errors with Walsh-Hadamard transforms,
draws sampled errors a block at a time, and decides a chunk of simulated
trials at once from <w|P|w> and one overlap per trial.  These are the slow
forms it is checked against: one row gather per error
(`oracle._pauli_action`), one GF4Vector per sampled error, built bit by bit
(`sample_errors_loop`), and the Born-rule measurement `measure`.
`simulate_loop` takes the same blocks of draws as the simulator (states,
errors, u1, then u2 for the nonstabilizer protocol) and plays each trial on
its own, measuring against (P, I - P) and then (vv*, P - vv*) with dense
projectors, each measurement replaying its pre-drawn uniform.
`mean_projector_complex` and `fourth_moment_complex` draw all states of a
check with one `_sphere_batch` call and hold them row by row, in complex
coordinates, where the library draws runs of states, column by column,
and values the fourth moment in real coordinates.  `nonstab_trace_reference`
takes the closed form of the uniform functional from the traces of dense
Pauli matrices against P, error by error, with no range basis.
`code_space_errors` holds the whole (4^n, K^2) table of code-space errors
L^dag E L and `twirl` forms sum_E Pr(E) E^dag P E in the full space; the
library takes the sums of both from the projector's trace tables.  `pauli_action_gather`
gathers an error's signs from its Hadamard row, one index per entry, where
the library scales the whole row by one sign, and `classify_error_loop`
takes the syndrome with one `trace_inner` call per generator, where the
library reads parities against the code's precomputed keys.
`dense_traces` and `classify_error_dense_loop` take Tr(E P) and
Tr(E P E P) from one row gather per error, where the library looks them
up in the projector's 4^n trace tables.  `trace_tables_loop` builds those
tables with one gathered product per shift x, where the library takes the
XOR-correlation behind Tr(E P E P) from two Hadamard products.
"""

from __future__ import annotations

import math

import numpy as np

from qedet.chansim import _BORN_TOL, _CHUNK, _COLLINEAR
from qedet.enumerators import EnumeratorPair
from qedet.gf4 import GF4Vector, all_vectors, trace_inner
from qedet.oracle import (_CHUNK_CELLS, _CLASSIFY_TOL, _PHASES, DETECTED,
                          TRIVIAL, UNDETECTABLE, MomentReport, _bit_reversal,
                          _hadamard, _pauli_action, _range_basis, _seeded_rng,
                          _shifts, _sphere_batch, _uniform_batch,
                          pauli_matrix)


def error_probability(v: GF4Vector, p: float) -> float:
    """Depolarizing-channel probability (p/3)^wt (1-p)^(n-wt) of a given error."""
    return (p / 3) ** v.weight * (1 - p) ** (v.n - v.weight)


def pauli_action_gather(v: GF4Vector) -> tuple[np.ndarray, np.ndarray]:
    """`_pauli_action` with the signs (-1)^|j&z| gathered from row z of the
    Hadamard matrix at j = rows, one index per entry."""
    rev = _bit_reversal(v.n)
    x, z = rev[v.x], rev[v.z]
    rows = np.arange(1 << v.n) ^ x
    return rows, _PHASES[(x & z).bit_count() % 4] * _hadamard(v.n)[z, rows]


def classify_error_loop(code, e: GF4Vector) -> str:
    """`classify_error` with one trace_inner call per generator."""
    if code.contains(e):
        return TRIVIAL
    if any(trace_inner(e, g) for g in code.generators):
        return DETECTED
    return UNDETECTABLE


def dense_traces(p_op: np.ndarray, e: GF4Vector) -> tuple[complex, complex]:
    """Tr(E P) = phi . diag A and Tr(E P E P) = phi^T (A o A^T) phi, for the
    row gather A = P[rows] and the phases phi of `_pauli_action`, with
    E P = diag(phi) A."""
    rows, phases = _pauli_action(e)
    a = p_op[rows]
    return (complex(phases @ a.diagonal()),
            complex(phases @ (a * a.T) @ phases))


def trace_tables_loop(p_op: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """`oracle._trace_tables` shift by shift.  Tr(E P E P) = H[x, z]
    sum_y H[y, z] G_x[y], and with A = P[j^x, :], G_x[y] = sum_j A[j, j^y]
    A[j^y, j]: one elementwise product A * A^T and one gather at the flat
    XOR index j 2^n + (j^y) per shift x, for a run of shifts at a time, as
    many as keep the products within _CHUNK_CELLS, and at least one."""
    n = (p_op.shape[0] - 1).bit_length()
    h, shifts = _hadamard(n), _shifts(n)
    j = shifts[0]
    flat = (j[:, None] << n) + shifts
    g = np.empty_like(p_op)
    step = max(_CHUNK_CELLS // (2 << 2 * n), 1)
    for lo in range(0, 1 << n, step):
        a = p_op[shifts[lo:lo + step]]
        g[lo:lo + step] = (a * a.transpose(0, 2, 1)).reshape(
            len(a), -1).take(flat, axis=1).sum(axis=1)
    t_ep = (_PHASES[3 * np.bitwise_count(j[:, None] & j) % 4]
            * (p_op[shifts, j] @ h))
    return float(p_op.trace().real), t_ep, h * (g @ h)


def classify_error_dense_loop(p_op: np.ndarray, e: GF4Vector) -> str:
    """`classify_error_dense` from one row gather per error, K = Tr P."""
    tr_ep, tr_epep = dense_traces(p_op, e)
    k = p_op.trace().real
    if abs(tr_epep) < _CLASSIFY_TOL:
        return DETECTED
    if abs(tr_epep - k) >= _CLASSIFY_TOL:
        raise ValueError("error neither preserves the subspace nor maps it "
                         "to the complement; not a valid stabilizer setup")
    if abs(abs(tr_ep) - k) < _CLASSIFY_TOL:
        return TRIVIAL
    return UNDETECTABLE


def _born_index(probs, u: float) -> int:
    """The first outcome whose cumulative probability exceeds the uniform
    draw u; the most likely outcome if float slack leaves u above them all."""
    acc = 0.0
    for i, pr in enumerate(probs):
        acc += pr
        if u < acc:
            return i
    return max(range(len(probs)), key=probs.__getitem__)


def measure(state: np.ndarray, projectors, u: float):
    """Born-rule measurement: pick projector i with probability <v|P_i|v>,
    by the uniform draw u.

    Returns (i, normalized post-measurement state).  The outcome
    probabilities must sum to 1 within 1e-9.
    """
    probs = [float(np.real(np.vdot(state, p @ state))) for p in projectors]
    total = math.fsum(probs)
    if abs(total - 1.0) > _BORN_TOL:
        raise ValueError(f"measurement probabilities sum to {total}, not 1")
    index = _born_index(probs, u)
    post = projectors[index] @ state
    return index, post / math.sqrt(probs[index])


def sample_errors_loop(n: int, p: float, rng: np.random.Generator,
                       count: int) -> list[GF4Vector]:
    """`count` depolarizing-channel errors from shape-(count, n) draws, each
    built bit by bit."""
    hit = rng.random((count, n)) < p
    kinds = rng.integers(0, 3, size=(count, n))
    errors = []
    for row_hit, row_kinds in zip(hit, kinds):
        x = z = 0
        for q in range(n):
            if row_hit[q]:
                xb, zb = ((1, 0), (0, 1), (1, 1))[row_kinds[q]]
                x |= xb << q
                z |= zb << q
        errors.append(GF4Vector(n, x, z))
    return errors


def _moment(full: np.ndarray, target: np.ndarray, total: int,
            unit_var: float) -> MomentReport:
    """A moment check from the sum `full` of its `total` samples."""
    return MomentReport(float(np.linalg.norm(full / total - target)),
                        math.sqrt(unit_var / total), total)


def mean_projector_complex(p_op: np.ndarray, dim: int, samples: int,
                           rng: np.random.Generator) -> MomentReport:
    """`oracle.verify_mean_projector` from L (sum u u^dag) L^dag over
    state-major draws u."""
    basis = _range_basis(p_op)
    u = _sphere_batch(samples, basis.shape[1], rng)
    return _moment(basis @ (u.T @ u.conj()) @ basis.conj().T, p_op / dim,
                   samples, 1 - 1 / dim)


def fourth_moment_complex(dim: int, samples: int,
                          rng: np.random.Generator) -> MomentReport:
    """`oracle.verify_fourth_moment` from sum y y^dag over y = v (x) v in
    complex coordinates."""
    swap = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            swap[i * dim + j, j * dim + i] = 1
    target = (np.eye(dim * dim) + swap) / (dim * (dim + 1))
    v = _sphere_batch(samples, dim, rng)
    y = np.einsum("ni,nj->nij", v, v).reshape(samples, dim * dim)
    return _moment(y.T @ y.conj(), target, samples, 1 - 2 / (dim * (dim + 1)))


def nonstab_trace_reference(p_op: np.ndarray, p: float) -> float:
    """The uniform functional in closed form, error by error from dense
    matrices: the sum over E of
        Pr(E) [Tr(E P E P)/K - (|Tr(E P)|^2 + Tr(E P E P))/(K (K + 1))]
    for K = Tr P, as ||L^dag E L||_F^2 = Tr(E P E P) and
    Tr(L^dag E L) = Tr(E P) for any L with L L^dag = P and a Hermitian E."""
    n = (p_op.shape[0] - 1).bit_length()
    k = p_op.trace().real
    terms = []
    for e in all_vectors(n):
        if e.is_zero:
            continue
        ep = pauli_matrix(e, cap=n) @ p_op
        norm, trace = np.trace(ep @ ep).real, abs(np.trace(ep)) ** 2
        terms.append(error_probability(e, p)
                     * (norm / k - (trace + norm) / (k * (k + 1))))
    return math.fsum(terms)


def enumerators_loop(p_op: np.ndarray, dim: int) -> EnumeratorPair:
    """Trace-formula enumerators summed error by error, rounded to integers."""
    n = (p_op.shape[0] - 1).bit_length()
    b_acc = np.zeros(n + 1, dtype=complex)
    bp_acc = np.zeros(n + 1, dtype=complex)
    for v in all_vectors(n):
        rows, phases = _pauli_action(v)
        a = phases[:, None] * p_op[rows]
        b_acc[v.weight] += np.trace(a) ** 2
        bp_acc[v.weight] += np.sum(a * a.T)
    b_acc /= dim * dim
    bp_acc /= dim
    return EnumeratorPair(n, dim,
                          tuple(int(c) for c in np.rint(b_acc.real)),
                          tuple(int(c) for c in np.rint(bp_acc.real)))


def composite_loop(p_op: np.ndarray, dim: int, p: float) -> float:
    """Entangled-transmission functional summed error by error."""
    n = (p_op.shape[0] - 1).bit_length()
    vals, vecs = np.linalg.eigh(p_op)
    b = vecs[:, vals > 0.5] / math.sqrt(dim)
    terms = []
    for v in all_vectors(n):
        pr = error_probability(v, p)
        if v.is_zero or pr == 0.0:
            continue
        rows, phases = _pauli_action(v)
        u = p_op @ (phases[:, None] * b[rows])
        terms.append(pr * float(np.sum(np.abs(u) ** 2) - abs(np.vdot(b, u)) ** 2))
    return math.fsum(terms)


def nonstab_mc_exact_loop(p_op: np.ndarray, p: float, samples: int,
                          seed: int = 0) -> tuple[float, float]:
    """(mean, stderr) over `samples` uniform states of the exact error sum
    sum_E Pr(E) ||(I - vv*) P E v||^2, drawn as the library draws them: P E v
    for every non-identity error, one dense P E product per error over all
    the states."""
    n = (p_op.shape[0] - 1).bit_length()
    basis = _range_basis(p_op)
    v = _uniform_batch(basis, samples, _seeded_rng(seed))
    vals = np.zeros(len(v))
    for e in all_vectors(n):
        if e.is_zero:
            continue
        rows, phases = _pauli_action(e)
        t = v @ (p_op[:, rows] * phases[rows]).T
        vals += error_probability(e, p) * (
            np.sum(np.abs(t) ** 2, axis=1)
            - np.abs(np.sum(t * v.conj(), axis=1)) ** 2)
    mean = math.fsum(vals) / samples
    var = max(math.fsum(vals * vals) - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def code_space_errors(basis: np.ndarray, hadamard: np.ndarray) -> np.ndarray:
    """(4^n, K^2) array whose row (x, z) is vec(L^dag E(x, z) L), up to the
    error's global phase, for every index-form error at once: the whole
    table whose two weighted sums `oracle._error_sums` reads off the trace
    tables.

    L^dag E L [a, b] = i^|x&z| sum_s (-1)^|s&z| conj(L[s^x, a]) L[s, b]: a
    gather over x and one Hadamard transform over s.
    """
    j = np.arange(len(basis))
    f = basis.conj()[j[:, None] ^ j][..., None] * basis[:, None, :]
    m = np.moveaxis(f, 1, 3) @ hadamard
    return m.transpose(0, 3, 1, 2).reshape(len(j) ** 2, -1)


def twirl(p_op: np.ndarray, probs: np.ndarray,
          hadamard: np.ndarray) -> np.ndarray:
    """sum_E Pr(E) E^dag P E = sum_x W_x[j^k] P[j^x, k^x], W = Pr H, over
    the index-form error table Pr(x, z): one (2^n)^3 gather."""
    w = probs @ hadamard
    j = np.arange(len(p_op))
    x = j[:, None, None]
    return np.sum(w[x, j[:, None] ^ j] * p_op[j[:, None] ^ x, j ^ x], axis=0)


def simulate_loop(code, p_op: np.ndarray, p: float, trials: int,
                  protocol: str, seed: int) -> tuple[int, int, int]:
    """(undetected, detected, trivial) counts of the protocol, trial by trial,
    with both measurements made by `measure` from the simulator's blocks of
    draws."""
    p_perp = np.eye(len(p_op), dtype=complex) - p_op
    undetected = detected = trivial = 0
    rng = _seeded_rng(seed)
    for done in range(0, trials, _CHUNK):
        c = min(_CHUNK, trials - done)
        states = _uniform_batch(_range_basis(p_op), c, rng)
        errors = sample_errors_loop(code.n, p, rng, c)
        u1 = rng.random(c)
        u2 = rng.random(c) if protocol == "nonstabilizer" else None
        for i, (v, e) in enumerate(zip(states, errors)):
            rows, phases = _pauli_action(e)
            w = phases * v[rows]
            index, post = measure(w, (p_op, p_perp), u1[i])
            if index == 1:
                detected += 1
                continue
            if protocol == "stabilizer":
                same = abs(np.vdot(post, v)) ** 2 > _COLLINEAR
            else:
                vv = np.outer(v, v.conj())
                same = measure(post, (vv, p_op - vv), u2[i])[0] == 0
            if same:
                trivial += 1
            else:
                undetected += 1
    return undetected, detected, trivial
