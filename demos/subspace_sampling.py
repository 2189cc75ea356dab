"""Uniform sampling on a code subspace and the moment identities behind it.

The Gaussian-projection sampler is exactly uniform on the subspace sphere,
so the mean outer product converges to P/K and the mean fourth moment to
(I + SWAP) / (K (K + 1)).  Deviations shrink like 1/sqrt(N).
"""

import numpy as np

from qedet import (code_projector, get_code, uniform_state, verify_mean_projector,
                   verify_fourth_moment)
from qedet.oracle import deviation_curve

rng = np.random.default_rng(1)

p_op = code_projector(get_code("five13"))
v = uniform_state(p_op, rng)
print(f"sampled state: dim {v.shape[0]}, norm {np.linalg.norm(v):.12f}, "
      f"in-subspace overlap {np.vdot(v, p_op @ v).real:.12f}")

print("\nmean outer product vs P/K (five13, K=2):")
for n in (1000, 10000, 100000):
    report = verify_mean_projector(p_op, 2, n, rng)
    print(f"  N={n:>6}: deviation={report.deviation:.2e}  "
          f"predicted rms sigma={report.sigma:.2e}")

print("\nmean fourth moment vs (I + SWAP)/(K(K+1)) (K=4):")
for n in (1000, 10000, 100000):
    report = verify_fourth_moment(4, n, rng)
    print(f"  N={n:>6}: deviation={report.deviation:.2e}  "
          f"within 4 sigma: {report.within(4.0)}")

print("\n1/sqrt(N) decay (replicate-averaged deviations, K=2):")
sizes = (10000, 40000, 160000)
devs = deviation_curve("mean_projector", 2, sizes, replicates=32, seed=0)
for n, d in zip(sizes, devs):
    print(f"  N={n:>6}: {d:.3e}")
print(f"  step ratios: {devs[0] / devs[1]:.2f}, {devs[1] / devs[2]:.2f} "
      "(quadrupling N should halve the deviation)")
