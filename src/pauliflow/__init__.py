"""Pauli flow identification, circuit extraction and pattern rewriting."""

from .graph import LabelledOpenGraph, MeasurementPattern, TrailingGate
from .pauli import Rotation, SignedPauliString, commutes, gate_to_exponentials, multiply
from .flow import (
    FlowOrder,
    NoPauliFlowError,
    PauliFlowData,
    add_correction_sets,
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    switch_flow,
    verify_flow,
    verify_focussed,
)
from .extract import ExtractionString, extract_circuit, extract_pddag, extraction_string, primary_axis
from .pddag import Circuit, Gate, IsometryTableau, Pddag, synthesize
from .rewrite import (
    RewriteReport,
    eliminate_z,
    local_complement_pattern,
    pivot_pattern,
    relabel_pauli,
    switch_flow_rewrite,
)
from .oracle import DenseMap, circuit_semantics, equal_up_to_phase, pattern_semantics, pddag_semantics

__all__ = [
    "LabelledOpenGraph", "MeasurementPattern", "TrailingGate",
    "Rotation", "SignedPauliString", "commutes", "gate_to_exponentials", "multiply",
    "FlowOrder", "NoPauliFlowError", "PauliFlowData", "add_correction_sets",
    "find_pauli_flow", "focus_flow", "focussed_set_generators",
    "switch_flow", "verify_flow", "verify_focussed",
    "ExtractionString", "extract_circuit", "extract_pddag", "extraction_string", "primary_axis",
    "Circuit", "Gate", "IsometryTableau", "Pddag", "synthesize",
    "RewriteReport", "eliminate_z", "local_complement_pattern", "pivot_pattern",
    "relabel_pauli", "switch_flow_rewrite",
    "DenseMap", "circuit_semantics", "equal_up_to_phase", "pattern_semantics", "pddag_semantics",
]

__version__ = "0.1.0"
