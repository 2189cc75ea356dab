"""Undetected-error probability across the depolarizing range.

Sweeps p over [0, 3/4] for every built-in code and prints the CSV that
`qed pue --sweep` would emit, then spot-checks the two closed-form
identities: the K/(K+1) ratio of the subspace-uniform functional and the
binomial-moment form of the same polynomial.
"""

from qedet import (CATALOG, get_code, pue_nonstabilizer, pue_stabilizer,
                   pue_via_moments, stabilizer_enumerators, sweep, sweep_csv)

GRID = [i * 0.75 / 10 for i in range(11)]

for name in CATALOG:
    pair = stabilizer_enumerators(get_code(name))
    rows = sweep(pair, GRID, ["stabilizer"])
    print(f"== {name}")
    print(sweep_csv(rows))

pair = stabilizer_enumerators(get_code("c422"))
print("identities on c422 (K = 4):")
for p in (0.05, 0.2, 0.5):
    s = pue_stabilizer(pair, p)
    ns = pue_nonstabilizer(pair, p)
    m = pue_via_moments(pair, p)
    print(f"  p={p}: stabilizer={s:.10g}  uniform/stabilizer={ns / s:.15f}"
          f"  moments-form diff={abs(m - s):.2e}")
print("  (ratio is 4/5 exactly; the moment form is the same polynomial)")
