"""The public names of the qedet package, pinned so that any change to the
exports shows up as a diff of this list."""

from __future__ import annotations

import dataclasses
import types

import qedet
from qedet.oracle import MCEstimate, MomentReport

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


# The fields of the report types, which `qedbench` and callers read by name.
REPORT_FIELDS = {
    MomentReport: ["deviation", "sigma", "samples"],
    MCEstimate: ["estimate", "stderr", "samples", "seed", "shards", "p"],
    qedet.SimReport: ["protocol", "p", "trials", "seed", "shards", "estimate",
                      "stderr", "undetected_count", "detected_count",
                      "trivial_count"],
}


def test_report_fields_are_pinned():
    for cls, names in REPORT_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
