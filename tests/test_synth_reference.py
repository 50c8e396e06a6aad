"""Differential tests: the column-packed Clifford synthesis against
reference_synth.py.

Both run the same decision procedure, so their gate lists must be
identical, on random signed tableaux and on the tableaux of pipeline
extractions.
"""

import random

import pytest

from pauliflow.extract import extract_pddag
from pauliflow.pauli import single
from pauliflow.pddag import Gate, _clifford_gates, _complete_tableau, clifford_circuit_from_rows
from tests import reference_pauli
from tests import reference_synth as ref
from tests.conftest import random_clifford_rows, sized_circuit_pattern, with_prepared_wires


def test_random_signed_tableaux_match_reference():
    rng = random.Random(6)
    negative = 0
    for _ in range(300):
        n = rng.randrange(1, 8)
        z_rows, x_rows, _ = random_clifford_rows(rng, n)
        negative += any(s.sign == -1 for s in z_rows + x_rows)
        got = clifford_circuit_from_rows(list(z_rows), list(x_rows))
        assert got == ref.clifford_circuit_from_rows(z_rows, x_rows), (z_rows, x_rows)
    assert negative > 150  # the sign updates are exercised


def test_imaginary_row_rejected():
    with pytest.raises(ValueError):
        clifford_circuit_from_rows([single(0, "Z").times_i()], [single(0, "X")])


@pytest.mark.parametrize("n", [40, 80, 160])
def test_pipeline_tableaux_match_reference(n):
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    for prepared in (0, n // 20):
        tab = extract_pddag(with_prepared_wires(pattern, prepared)).tableau
        assert len(tab.free_rows) == prepared
        rows, signs = _complete_tableau(tab)
        z_out, x_out = reference_pauli.complete_tableau(tab)
        assert (rows, signs) == reference_pauli.packed(z_out + x_out, range(len(z_out)))
        got = _clifford_gates(rows, signs, Gate)
        assert got == clifford_circuit_from_rows(z_out, x_out)
        assert got == ref.clifford_circuit_from_rows(z_out, x_out)
