"""The public names of the qedet package and the flags of `qed`, pinned so
that any change to the exports or the command line shows up as a diff of
these lists."""

from __future__ import annotations

import argparse
import dataclasses
import types

import numpy as np
import pytest

import qedet
from qedet.cli import build_parser
from qedet.oracle import (MCEstimate, MomentReport, deviation_curve,
                          verify_fourth_moment, verify_mean_projector)
from qedet.pue import PueResult

PUBLIC_NAMES = [
    "AdditiveCode", "CATALOG", "CodeFormatError", "EnumeratorPair",
    "GF4Vector", "SimReport", "WeightDistribution", "all_vectors", "binomial_moments", "check_enum_properties",
    "classify_error", "classify_error_dense", "code_projector", "dual",
    "enumerators_bruteforce", "get_code", "hamming_weights",
    "macwilliams", "min_distance", "parse_code",
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
    MCEstimate: ["estimate", "stderr", "samples", "seed", "p"],
    qedet.SimReport: ["protocol", "p", "trials", "seed", "estimate", "stderr",
                      "undetected_count", "detected_count", "trivial_count"],
    PueResult: ["mode", "p", "value"],
}


def _fields(cls) -> list[str]:
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return list(cls._fields)  # a NamedTuple


def test_report_fields_are_pinned():
    for cls, names in REPORT_FIELDS.items():
        assert _fields(cls) == names, cls.__name__


# Each `qed` subcommand's option strings, in the order `qed <cmd> -h` lists
# them.
CLI_OPTIONS = {
    "enum": ["-h", "--help", "--json"],
    "pue": ["-h", "--help", "--p", "--sweep", "--mode"],
    "verify": ["-h", "--help", "--samples", "--seed"],
    "simulate": ["-h", "--help", "--p", "--trials", "--seed", "--protocol"],
}


def test_cli_options_are_pinned():
    parser = build_parser()
    commands, = [a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for a in sub._actions for s in a.option_strings]
               for name, sub in commands.items()}
    assert options == CLI_OPTIONS
    assert list(options) == list(CLI_OPTIONS)


@pytest.mark.parametrize("call,match", [
    (lambda: qedet.macwilliams((1, 0), 1, 0, "dual_to_code"), "dim"),
    (lambda: qedet.macwilliams((1, 3), 1, 0, "code_to_dual"), "dim"),
    (lambda: verify_fourth_moment(0, 10, np.random.default_rng(0)), "dim"),
    (lambda: qedet.pue_classical((1, 0, 1), 1, 0.0), "q"),
    (lambda: verify_mean_projector(np.eye(0), 0, 10,
                                   np.random.default_rng(0)), "dim"),
    (lambda: deviation_curve("mean_projector", 0, [10], 1), "dim"),
], ids=["macwilliams-dual_to_code", "macwilliams-code_to_dual",
        "verify_fourth_moment", "pue_classical", "verify_mean_projector",
        "deviation_curve"])
def test_degenerate_sizes_raise_value_error(call, match):
    # A subspace dimension below 1 or an alphabet below 2 is refused by
    # name, as EnumeratorPair refuses dim < 1, not met by a division by 0.
    with pytest.raises(ValueError, match=rf"\b{match}\b"):
        call()
