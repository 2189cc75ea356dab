"""Dense complex-matrix ground truth for small qubit counts.

Everything the combinatorial modules compute can be recomputed here from
2^n x 2^n matrices: Pauli operators as monomial matrices (a permutation of
the basis times phases i^k, built from the bit planes), stabilizer
projectors as the product of (I + G)/2 over the generators, the
trace-formula weight enumerators, the three-way error classification,
partial traces, uniform sampling on the stabilized subspace, and exact or
Monte Carlo evaluation of the undetected-error functionals.  All of it is
capped at a handful of qubits by design.

Sharded Monte Carlo estimators draw shard s from
numpy's PCG64 seeded with SeedSequence(seed, spawn_key=(s,)), so results
are reproducible for a fixed (seed, shard count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf4 import AdditiveCode, GF4Vector, all_vectors, trace_inner
from .enumerators import EnumeratorPair

DenseOperator = np.ndarray

DEFAULT_ORACLE_CAP = 6
COMPOSITE_CAP = 4

_PHASES = np.array([1, 1j, -1, -1j])


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"n={n} exceeds the dense oracle cap of {cap} qubits")


def _check_p(p: float) -> None:
    if not 0 <= p <= 0.75:
        raise ValueError(f"depolarizing probability {p} outside [0, 3/4]")


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(shard,))))


def _split(total: int, shards: int) -> list[int]:
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _pauli_action(v: GF4Vector) -> tuple[np.ndarray, np.ndarray]:
    """Rows and phases with (E @ A) == phases[:, None] * A[rows] for E = P_v.

    P|j> = i^|x&z| (-1)^|j&z| |j^x>, where qubit q is index bit n-1-q, as in
    the Kronecker product of the single-qubit factors in qubit order.
    """
    x = z = 0
    for q in range(v.n):
        x = (x << 1) | ((v.x >> q) & 1)
        z = (z << 1) | ((v.z >> q) & 1)
    rows = np.arange(1 << v.n) ^ x
    parity = (np.bitwise_count(rows & z) & 1).astype(np.int64)
    return rows, _PHASES[((x & z).bit_count() + 2 * parity) % 4]


def pauli_matrix(v: GF4Vector, cap: int = DEFAULT_ORACLE_CAP) -> DenseOperator:
    """Dense matrix of the Pauli word v with the bare '+' phase."""
    _check_cap(v.n, cap)
    rows, phases = _pauli_action(v)
    m = np.zeros((len(rows), len(rows)), dtype=complex)
    m[np.arange(len(rows)), rows] = phases
    return m


def error_probability(v: GF4Vector, p: float) -> float:
    """Depolarizing-channel probability (p/3)^wt (1-p)^(n-wt) of a given error."""
    return (p / 3) ** v.weight * (1 - p) ** (v.n - v.weight)


def sample_error(n: int, p: float, rng: np.random.Generator) -> GF4Vector:
    """One depolarizing-channel error: each position is hit independently
    with probability p and then uniform over the three nonzero symbols."""
    _check_p(p)
    x = z = 0
    hit = rng.random(n) < p
    kinds = rng.integers(0, 3, size=n)
    for q in range(n):
        if hit[q]:
            xb, zb = ((1, 0), (0, 1), (1, 1))[kinds[q]]
            x |= xb << q
            z |= zb << q
    return GF4Vector(n, x, z)


def code_projector(code: AdditiveCode, cap: int = DEFAULT_ORACLE_CAP) -> DenseOperator:
    """Projector prod_g (I + G)/2 on the subspace stabilized by a
    self-orthogonal code, one factor per generator.

    The generators commute, so the factors are commuting projectors and
    every entry is dyadic, hence exact.  Hermiticity, idempotence and
    trace K = 2^(n-r) are checked all the same.
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
    return p


def enumerators_bruteforce(p_op: DenseOperator, dim: int,
                           cap: int = DEFAULT_ORACLE_CAP) -> EnumeratorPair:
    """Weight enumerators from the trace formulas, summed over all 4^n errors.

    weights[i]      = (1/dim^2) sum_{wt(E)=i} Tr(E P)^2
    dual_weights[i] = (1/dim)   sum_{wt(E)=i} Tr(E P E P)

    The sums are rounded to integers; residuals above 1e-6 (or imaginary
    parts above 1e-10) raise.
    """
    n = (p_op.shape[0] - 1).bit_length()
    _check_cap(n, cap)
    b_acc = np.zeros(n + 1, dtype=complex)
    bp_acc = np.zeros(n + 1, dtype=complex)
    for v in all_vectors(n):
        rows, phases = _pauli_action(v)
        a = phases[:, None] * p_op[rows]
        b_acc[v.weight] += np.trace(a) ** 2
        bp_acc[v.weight] += np.sum(a * a.T)
    b_acc /= dim * dim
    bp_acc /= dim
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
    """
    if code.contains(e):
        return TRIVIAL
    if any(trace_inner(e, g) for g in code.generators):
        return DETECTED
    return UNDETECTABLE


def classify_error_dense(p_op: DenseOperator, e: GF4Vector, tol: float = 1e-10,
                         cap: int = DEFAULT_ORACLE_CAP) -> str:
    """Matrix version of classify_error, from the action of E on the subspace."""
    _check_cap(e.n, cap)
    rows, phases = _pauli_action(e)
    ep = phases[:, None] * p_op[rows]
    if np.max(np.abs(p_op @ ep)) < tol:
        return DETECTED
    if np.max(np.abs(ep - p_op @ ep)) >= tol:
        raise ValueError("error neither preserves the subspace nor maps it "
                         "to the complement; not a valid stabilizer setup")
    if min(np.max(np.abs(ep - p_op)), np.max(np.abs(ep + p_op))) < tol:
        return TRIVIAL
    return UNDETECTABLE


def partial_trace(m: DenseOperator, dims: tuple[int, int], over: str) -> DenseOperator:
    """Partial trace over the first or second tensor factor."""
    d1, d2 = dims
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    t = m.reshape(d1, d2, d1, d2)
    if over == "first":
        return np.einsum("ijik->jk", t)
    if over == "second":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"over must be 'first' or 'second', not {over!r}")


def uniform_state(p_op: DenseOperator, rng: np.random.Generator,
                  max_attempts: int = 100) -> np.ndarray:
    """Uniform sample from the unit sphere of the range of a projector.

    A standard complex Gaussian is projected and normalized; unitary
    invariance of the Gaussian makes the result exactly uniform on the
    subspace sphere.
    """
    dim = p_op.shape[0]
    for _ in range(max_attempts):
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = p_op @ g
        nrm = np.linalg.norm(w)
        if nrm > 1e-8:
            return w / nrm
    raise RuntimeError("projection kept vanishing; is the projector zero?")


def _uniform_batch(p_op: DenseOperator, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(count, dim) array of uniform subspace states."""
    dim = p_op.shape[0]
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    w = g @ p_op.T
    nrm = np.linalg.norm(w, axis=1)
    bad = nrm <= 1e-8
    for i in np.flatnonzero(bad):
        w[i] = uniform_state(p_op, rng)
        nrm[i] = 1.0
    return w / nrm[:, None]


@dataclass(frozen=True)
class MomentReport:
    """Deviation of a Monte Carlo matrix mean from its analytic target."""

    deviation: float        # Frobenius distance of the sample mean
    sigma: float            # jackknife estimate of the sampling std of the mean
    expected_rms: float     # analytic sqrt(E deviation^2) under the claim
    samples: int

    def within(self, band: float = 4.0) -> bool:
        return self.deviation <= band * self.sigma


def _mc_matrix_mean(sample_block, target: np.ndarray, total: int,
                    blocks: int) -> MomentReport:
    """Accumulate block sums of a matrix-valued sampler and jackknife them.

    sample_block(count) must return the SUM of `count` fresh sample matrices.
    """
    blocks = max(1, min(blocks, total))
    sizes = _split(total, blocks)
    sums = [sample_block(m) for m in sizes]
    full = np.sum(sums, axis=0)
    deviation = float(np.linalg.norm(full / total - target))

    if blocks == 1:
        return MomentReport(deviation, 0.0, 0.0, total)
    loo = np.array([(full - s) / (total - m) for s, m in zip(sums, sizes)])
    center = loo.mean(axis=0)
    var = (blocks - 1) / blocks * np.sum(np.abs(loo - center) ** 2)
    return MomentReport(deviation, float(math.sqrt(var)), 0.0, total)


def verify_mean_projector(p_op: DenseOperator, dim: int, samples: int,
                          rng: np.random.Generator,
                          blocks: int = 100) -> MomentReport:
    """Check that the mean outer product of uniform subspace states is P/K."""
    target = p_op / dim

    def block(count: int) -> np.ndarray:
        w = _uniform_batch(p_op, count, rng)
        return w.T @ w.conj()

    report = _mc_matrix_mean(block, target, samples, blocks)
    expected = math.sqrt((1 - 1 / dim) / samples)
    return MomentReport(report.deviation, report.sigma, expected, samples)


def verify_fourth_moment(dim: int, samples: int, rng: np.random.Generator,
                         blocks: int = 100) -> MomentReport:
    """Check the fourth-moment identity for uniform states on a K-sphere.

    The mean of vv* (x) vv* must equal (I + SWAP) / (K (K + 1)); the identity
    and swap operators span the unitarily invariant subspace.
    """
    swap = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            swap[i * dim + j, j * dim + i] = 1
    target = (np.eye(dim * dim) + swap) / (dim * (dim + 1))

    def block(count: int) -> np.ndarray:
        g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        v = g / np.linalg.norm(g, axis=1)[:, None]
        u = np.einsum("ni,nj->nij", v, v).reshape(count, dim * dim)
        return u.T @ u.conj()

    report = _mc_matrix_mean(block, target, samples, blocks)
    expected = math.sqrt((1 - 2 / (dim * (dim + 1))) / samples)
    return MomentReport(report.deviation, report.sigma, expected, samples)


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
    """Monte Carlo estimate with its standard error and shard layout."""

    estimate: float
    stderr: float
    samples: int
    seed: int
    shards: int
    p: float


def pue_nonstab_mc(p_op: DenseOperator, dim: int, p: float, samples: int,
                   seed: int = 0, shards: int = 1,
                   cap: int = DEFAULT_ORACLE_CAP, chunk: int = 256) -> MCEstimate:
    """Monte Carlo of the subspace-uniform undetected-error functional.

    Averages sum_E Pr(E) ||(I - vv*) P E v||^2 over uniform subspace states.
    The error sum is exact over all 4^n errors for n <= 4 and sampled from
    the channel otherwise.  The identity error term is identically zero
    (P v = v on the subspace) and is skipped, so p = 0 gives exactly 0, as
    does n = 0, where no other error exists.
    """
    _check_p(p)
    if samples < 1 or shards < 1:
        raise ValueError("samples and shards must be positive")
    n = (p_op.shape[0] - 1).bit_length()
    _check_cap(n, cap)

    if n == 0:
        return MCEstimate(0.0, 0.0, samples, seed, shards, p)
    exact_errors = n <= 4
    if exact_errors:
        errs = [v for v in all_vectors(n) if not v.is_zero]
        # Rows of P E for every error; E's column j is phases[rows[j]] at rows[j].
        pe_flat = np.concatenate([p_op[:, rows] * phases[rows]
                                  for rows, phases in map(_pauli_action, errs)])
        probs = np.array([error_probability(v, p) for v in errs])

    n_sum = sq_sum = 0.0
    count = 0
    for shard, m in enumerate(_split(samples, shards)):
        if m == 0:
            continue
        rng = _shard_rng(seed, shard)
        if exact_errors:
            done = 0
            while done < m:
                c = min(chunk, m - done)
                v = _uniform_batch(p_op, c, rng)
                # t[s, e, :] = P E_e v_s, via one BLAS product
                t = (v @ pe_flat.T).reshape(c, len(errs), -1)
                norms = np.einsum("cea,cea->ce", t, t.conj()).real
                overlap = np.abs(np.einsum("cea,ca->ce", t, v.conj())) ** 2
                vals = (norms - overlap) @ probs
                n_sum += float(np.sum(vals))
                sq_sum += float(np.sum(vals * vals))
                done += c
        else:
            for _ in range(m):
                v = uniform_state(p_op, rng)
                e = sample_error(n, p, rng)
                if e.is_zero:
                    val = 0.0
                else:
                    rows, phases = _pauli_action(e)
                    u = p_op @ (phases * v[rows])
                    val = float(np.sum(np.abs(u) ** 2) - abs(np.vdot(v, u)) ** 2)
                n_sum += val
                sq_sum += val * val
        count += m

    mean = n_sum / count
    var = max(sq_sum - count * mean * mean, 0.0) / (count - 1) if count > 1 else 0.0
    return MCEstimate(mean, math.sqrt(var / count), count, seed, shards, p)


def pue_composite_exact(p_op: DenseOperator, dim: int, p: float,
                        cap: int = COMPOSITE_CAP) -> float:
    """Deterministic evaluation of the entangled-transmission functional.

    Builds the completely entangled state between the subspace and a
    K-dimensional reference system and sums Pr(E) ||(I - bb*)(P x I)(E x I) b||^2
    over all errors.  The identity term vanishes identically and is skipped.
    """
    _check_p(p)
    n = (p_op.shape[0] - 1).bit_length()
    _check_cap(n, cap)

    vals, vecs = np.linalg.eigh(p_op)
    basis = vecs[:, vals > 0.5]
    if basis.shape[1] != dim or np.max(np.abs(vals[vals > 0.5] - 1)) > 1e-8:
        raise ValueError("projector rank does not match the declared dimension")
    # b as a (2^n, K) matrix: reference system = columns.
    b = basis / math.sqrt(dim)

    terms = []
    for v in all_vectors(n):
        if v.is_zero:
            continue
        pr = error_probability(v, p)
        if pr == 0.0:
            continue
        rows, phases = _pauli_action(v)
        u = p_op @ (phases[:, None] * b[rows])
        val = np.sum(np.abs(u) ** 2) - abs(np.vdot(b, u)) ** 2
        terms.append(pr * float(val))
    return math.fsum(terms)
