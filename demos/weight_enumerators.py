"""Weight enumerators of the built-in codes, three ways.

Walks through the combinatorial path (enumerate the GF(4) code and its
dual), the MacWilliams transform, and the dense-matrix trace formulas, and
shows that all three agree coefficient for coefficient.
"""

import numpy as np

from qedet import (CATALOG, code_projector, dual, enumerators_bruteforce,
                   get_code, hamming_weights, macwilliams, min_distance,
                   stabilizer_enumerators)

for name in CATALOG:
    code = get_code(name)
    pair = stabilizer_enumerators(code)
    print(f"== {name}: n={code.n}, rank={code.rank}, K={code.dim}")
    print(f"   B      = {pair.weights}")
    print(f"   Bperp  = {pair.dual_weights}")
    print(f"   d      = {min_distance(pair)}"
          f"{'  (sentinel: distributions agree everywhere)' if min_distance(pair) == code.n + 1 else ''}")

    # The library takes Bperp from the transform of B; enumerating the dual
    # word by word must give the same vector exactly.
    transformed = macwilliams(pair.weights, pair.n, pair.dim, "code_to_dual")
    assert transformed == pair.dual_weights == hamming_weights(dual(code)).counts
    round_trip = macwilliams(transformed, pair.n, pair.dim, "dual_to_code")
    assert round_trip == pair.weights
    print("   MacWilliams forward (vs the enumerated dual) and round trip: exact")

    # Independent ground truth: trace formulas on the dense projector.
    p_op = code_projector(code)
    brute = enumerators_bruteforce(p_op, code.dim)
    assert brute.weights == pair.weights
    assert brute.dual_weights == pair.dual_weights
    print(f"   dense oracle (projector trace {np.trace(p_op).real:g}): agrees")
    print()
