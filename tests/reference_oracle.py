"""Reference pattern semantics, kept from the eager oracle the lazy one
replaced.

It tensors in every vertex before it measures any: the graph state E_G N
as one map on all vertices, then each measured vertex contracted with its
bra in sorted order.  A pattern costs 2^(|V| + |I|) amplitudes.  The
differential tests compare ``oracle.pattern_semantics`` against it;
nothing in ``src/`` imports this module.
"""

import numpy as np

from pauliflow.oracle import (
    _PLUS, DenseMap, _apply_cz, _apply_on_wire, _single_qubit_gate, measurement_bra)


def graph_state_matrix(pattern) -> DenseMap:
    """E_G N applied to nothing else: the entangled resource as a map
    (|+> on prepared vertices, identity wires on inputs)."""
    g = pattern.graph
    verts = sorted(g.vertices)
    mat = np.array([[1]], dtype=complex)
    for v in verts:
        if v in g.inputs:
            mat = np.kron(mat, np.eye(2, dtype=complex))
        else:
            mat = np.kron(mat, _PLUS[:, None])
    for a, b in sorted(g.edges):
        mat = _apply_cz(mat, verts.index(a), verts.index(b), len(verts))
    return DenseMap(mat, tuple(sorted(g.inputs)), tuple(verts))


def eager_pattern_semantics(pattern) -> DenseMap:
    """The graph state's map with every measured vertex contracted, in
    sorted order, then the trailing gates."""
    g = pattern.graph
    mat = graph_state_matrix(pattern).matrix
    live = sorted(g.vertices)
    for v in sorted(g.measured):
        bra = measurement_bra(g.labels[v], pattern.angles[v])
        shaped = mat.reshape(2 ** live.index(v), 2, -1)
        mat = (bra[0] * shaped[:, 0, :] + bra[1] * shaped[:, 1, :]).reshape(
            2 ** (len(live) - 1), -1
        )
        live.remove(v)
    for tg in pattern.trailing:
        gate2 = _single_qubit_gate(tg.name, tg.angle)
        mat = _apply_on_wire(mat, gate2, live.index(tg.qubit), len(live))
    return DenseMap(mat, tuple(sorted(g.inputs)), tuple(live))
