"""Weight enumerators and undetected-error probabilities for stabilizer codes.

Additive GF(4) codes are handled exactly in symplectic bit-plane form
(`qedet.gf4`, `qedet.enumerators`); closed-form undetected-error
probabilities over the depolarizing channel live in `qedet.pue`; a dense
complex-matrix oracle (`qedet.oracle`) and a protocol-level Monte Carlo
simulator (`qedet.chansim`) independently reproduce every closed form for
small qubit counts.  The `qed` command line wraps all of it.
"""

from .gf4 import (AdditiveCode, CodeFormatError, GF4Vector, all_vectors, dual,
                  parse_code, pauli_label, trace_inner)
from .enumerators import (EnumeratorPair, WeightDistribution, binomial_moments,
                          check_enum_properties, hamming_weights, macwilliams,
                          min_distance, stabilizer_enumerators)
from .pue import (pue_classical, pue_composite, pue_nonstabilizer,
                  pue_stabilizer, pue_stabilizer_direct, pue_via_moments,
                  sweep, sweep_csv)
from .oracle import (classify_error, classify_error_dense, code_projector,
                     enumerators_bruteforce, partial_trace, pauli_matrix,
                     pue_composite_exact, pue_nonstab_mc, uniform_state,
                     verify_fourth_moment, verify_mean_projector)
from .chansim import SimReport, simulate
from .catalog import CATALOG, get_code

__version__ = "0.1.0"
