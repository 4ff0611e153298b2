"""Exact arithmetic for degree-p extensions of valued fields.

The package classifies Artin-Schreier and Kummer generators as best or
improvable, normalizes them, computes ramification invariants and Swan
conductors, and verifies the norm-ideal identities on sampled elements.
"""

from .value_group import INFINITY, GroupElt, GroupKind, ValueGroup, ge
from .residue_field import GF, RatFunc
from .hahn_series import SeriesElt, SeriesField, artin_schreier_shift
from .as_extension import ASExtension, ExtElt
from .best_f import (ASClassification, InvariantsReport, NormalizeOutcome,
                     OutcomeKind, Verdict, classify, classical_swan, improve,
                     invariants, normalize)
from .kummer import (CycloBase, CycloElt, CycloField, KummerClassification,
                     KummerVerdict, classify_h, improve_h, kummer_invariants,
                     normalize_h)
from .norm_ideal import (LefschetzSample, TraceLemmaReport,
                         derivative_product, gamma_of, lefschetz_val,
                         sample_generator, sample_unit_generator,
                         s_inequality_suite,
                         trace_lemma_suite, verify_s_inequality,
                         verify_trace_lemma, y_construct)
from .dsl import parse_expr
from .corpus import ENTRIES, FIELD_PRESETS, CorpusEntry, FieldSpec, run_corpus

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "GroupElt", "GroupKind", "ValueGroup", "ge",
    "GF", "RatFunc",
    "SeriesElt", "SeriesField", "artin_schreier_shift",
    "ASExtension", "ExtElt",
    "ASClassification", "InvariantsReport", "NormalizeOutcome", "OutcomeKind",
    "Verdict", "classify", "classical_swan", "improve", "invariants",
    "normalize",
    "CycloBase", "CycloElt", "CycloField", "KummerClassification",
    "KummerVerdict", "classify_h", "improve_h", "kummer_invariants",
    "normalize_h",
    "LefschetzSample", "TraceLemmaReport",
    "derivative_product", "gamma_of", "lefschetz_val",
    "sample_generator", "sample_unit_generator",
    "s_inequality_suite", "trace_lemma_suite",
    "verify_s_inequality", "verify_trace_lemma", "y_construct",
    "parse_expr",
    "ENTRIES", "FIELD_PRESETS", "CorpusEntry", "FieldSpec", "run_corpus",
    "__version__",
]
