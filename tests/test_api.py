"""The public names of the qedet package, pinned so that any change to the
exports shows up as a diff of this list."""

from __future__ import annotations

import types

import qedet

PUBLIC_NAMES = [
    "AdditiveCode", "CATALOG", "CodeFormatError", "EnumeratorPair",
    "GF4Vector", "SimReport", "WeightDistribution", "adjoin_error",
    "all_vectors", "binomial_moments", "check_enum_properties",
    "classify_error", "classify_error_dense", "code_projector", "dual",
    "enumerators_bruteforce", "get_code", "hamming_weights",
    "label_to_vector", "macwilliams", "min_distance", "parse_code",
    "partial_trace", "pauli_label", "pauli_matrix", "pue_classical",
    "pue_composite", "pue_composite_exact", "pue_nonstab_mc",
    "pue_nonstabilizer", "pue_stabilizer", "pue_stabilizer_direct",
    "pue_via_moments", "simulate", "stabilizer_enumerators", "sweep",
    "sweep_csv", "trace_inner", "uniform_state", "verify_fourth_moment",
    "verify_mean_projector",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(qedet).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
