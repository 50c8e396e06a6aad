"""Reference Clifford synthesis, kept from the row-loop code the
column-packed tableau replaced.

``clifford_circuit_from_rows`` here stores the 2n rows as strings and
sends every row through ``conj_gate`` (one ``reorder_push`` per rotation
of the gate) for each emitted gate.  The decision procedure is the one the
library still runs, so the two must emit identical gate lists.  The
differential tests compare the library against it; nothing in ``src/``
imports this module.
"""

from pauliflow.pauli import GATE_ROTATIONS, reorder_push, single
from pauliflow.pddag import Gate


def conj_gate(name, qubits, s):
    """Exact Clifford conjugation G s G^dagger, one rotation at a time."""
    for rot in GATE_ROTATIONS[name](*qubits, None):
        s = reorder_push(rot, s)
    return s


def clifford_circuit_from_rows(z_out, x_out):
    n = len(z_out)
    zr = list(z_out)
    xr = list(x_out)
    reducing = []

    def emit(name, *qubits):
        reducing.append(Gate(name, tuple(qubits)))
        for rows in (zr, xr):
            for i, s in enumerate(rows):
                rows[i] = conj_gate(name, tuple(qubits), s)

    def clean_to_x(row_list, k):
        # Reduce row_list[k] (supported on wires >= k) to +-X_k.
        for j in range(k, n):
            l = row_list[k].letter(j)
            if l == "Y":
                emit("S", j)
            elif l == "Z":
                emit("H", j)
        if row_list[k].letter(k) != "X":
            j = next(j for j in range(k + 1, n) if row_list[k].letter(j) == "X")
            emit("CX", k, j)
            emit("CX", j, k)
            emit("CX", k, j)
        for j in range(n):
            if j != k and row_list[k].letter(j) == "X":
                emit("CX", k, j)

    for k in range(n):
        clean_to_x(xr, k)
        if zr[k].unsigned() != single(k, "Z"):
            emit("H", k)
            clean_to_x(zr, k)
            emit("H", k)
        if xr[k].sign == -1:
            emit("Z", k)
        if zr[k].sign == -1:
            emit("X", k)

    for k in range(n):
        assert xr[k] == single(k, "X") and zr[k] == single(k, "Z")

    dagger = {"S": "Sdg", "Sdg": "S"}
    return [Gate(dagger.get(g.name, g.name), g.qubits) for g in reversed(reducing)]
