"""Pattern rewrites with exact bookkeeping and their PDDAG simulations.

Every operation returns a RewriteReport holding the rewritten pattern,
the updated flow and focussed sets, and two Pddags: one extracted from
the rewritten pattern, one produced by replaying the rewrite as moves on
the Pddag extracted from the original pattern.  The two must agree
node-for-node and row-for-row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .extract import (
    TRAIL_PREFIX,
    extract_pddag,
    extraction_string,
    trailing_node_id,
)
from .flow import (
    FocussedSet,
    PauliFlowData,
    is_flow_focussed,
    switch_flow,
    unfocussed,
    verify_flow,
)
from .graph import LabelledOpenGraph, MeasurementPattern, TrailingGate
from .pauli import HALF, Rotation, single
from .pddag import Pddag


@dataclass(frozen=True)
class RewriteReport:
    pattern_after: MeasurementPattern
    flow_after: PauliFlowData
    fsets_after: Tuple[FocussedSet, ...]
    pddag_via_pattern: Pddag
    pddag_via_simulation: Pddag

    @property
    def consistent(self) -> bool:
        return self.pddag_via_pattern.structurally_equal(self.pddag_via_simulation)


def _require_focussed(pattern: MeasurementPattern, flow: PauliFlowData) -> None:
    bad = verify_flow(pattern.graph, flow)
    if bad:
        raise ValueError(f"flow is invalid: {bad}")
    if not is_flow_focussed(pattern.graph, flow):
        raise ValueError("rewrites need a focussed flow")


def _first_trailing_pos(dag: Pddag) -> int:
    """Position of the first trailing node; rewrites insert new end-of-circuit
    rotations there, below the previously accumulated trailing gates."""
    for i, nid in enumerate(dag.node_ids):
        if str(nid).startswith(TRAIL_PREFIX):
            return i
    return len(dag.node_ids)


# -- Pauli relabelling ---------------------------------------------------------

_RELABEL = {
    ("XY", 0): ("X", lambda a: a),
    ("XY", 1): ("Y", lambda a: a - HALF),
    ("XZ", 0): ("Z", lambda a: a),
    ("XZ", 1): ("X", lambda a: a - HALF),
    ("YZ", 0): ("Z", lambda a: a),
    ("YZ", 1): ("Y", lambda a: a - HALF),
}


def relabel_pauli(pattern: MeasurementPattern, flow: PauliFlowData,
                  fsets: Sequence[FocussedSet], u: str) -> RewriteReport:
    """Relabel a Clifford-angle planar measurement as the equivalent Pauli.

    Simulated by pushing u's rotation node into the stabilizer block.
    """
    _require_focussed(pattern, flow)
    g = pattern.graph
    if not g.is_planar(u):
        raise ValueError(f"{u!r} is not planar")
    alpha = pattern.angles[u]
    if (alpha * 2).denominator != 1:
        raise ValueError(f"angle {alpha}*pi of {u!r} is not Clifford")
    quarter = alpha % 1 == HALF
    label, update = _RELABEL[(g.labels[u], 1 if quarter else 0)]
    angles = dict(pattern.angles)
    angles[u] = update(alpha)
    pattern2 = pattern.with_graph(g.relabel(u, label), angles=angles)

    def shifted(s):
        # a quarter turn adds p(u) to every set with u in it or its odd neighbourhood
        return s ^ flow.p[u] if quarter and u in (s | g.odd_neighbourhood(s)) else s

    flow2 = PauliFlowData({v: s if v == u else shifted(s) for v, s in flow.p.items()},
                          flow.order)
    fsets2 = tuple(shifted(fs) for fs in fsets)
    base = extract_pddag(pattern, flow, fsets)
    ext2 = {w: shifted(s) for w, s in base.tableau.x_corrections.items()}
    sim = base.push_clifford_front(u) if u in base.nodes else base
    return RewriteReport(
        pattern2, flow2, fsets2,
        extract_pddag(pattern2, flow2, fsets2, extension_sets=ext2), sim,
    )


# -- Z measurement elimination ---------------------------------------------------


def eliminate_z(pattern: MeasurementPattern, flow: PauliFlowData,
                fsets: Sequence[FocussedSet], u: str) -> RewriteReport:
    """Remove a vertex measured on the Z axis (or XZ/YZ at angle 0 or pi).

    Simulated by pulling u's rotation into the tableau, a Z to the end of
    the circuit per output neighbour and a merge per XY neighbour.
    """
    _require_focussed(pattern, flow)
    g = pattern.graph
    if g.labels.get(u) not in ("XZ", "YZ", "Z"):
        raise ValueError(f"{u!r} is not XZ/YZ/Z labelled")
    alpha = pattern.angles[u]
    if alpha not in (0, 1):
        raise ValueError(f"angle of {u!r} must be 0 or pi")
    a = int(alpha)
    nbrs = g.neighbours(u)

    angles = {}
    for v in g.measured:
        if v == u:
            continue
        av = pattern.angles[v]
        if v in nbrs and g.labels[v] in ("XY", "X", "Y"):
            av = av + a
        elif v in nbrs and g.labels[v] in ("XZ", "YZ"):
            av = av * (-1) ** a
        angles[v] = av
    out_nbrs = sorted(nbrs & g.outputs)
    new_gates = [TrailingGate(n, "Z") for n in out_nbrs] if a else []
    trailing = new_gates + list(pattern.trailing)
    pattern2 = pattern.with_graph(g.remove_vertex(u), angles=angles, trailing=trailing)

    p = {v: s ^ flow.p[u] if u in s else s for v, s in flow.p.items() if v != u}
    flow2 = PauliFlowData(p, flow.order.restricted(pattern2.graph.vertices))
    fsets2 = tuple(fsets)

    base = extract_pddag(pattern, flow, fsets)
    ext2 = dict(base.tableau.x_corrections)  # u never appears in them
    sim = base
    if g.is_planar(u) and u in sim.nodes:
        sim = sim.push_clifford_front(u)
    if a:
        pos = _first_trailing_pos(sim)
        for i, n in enumerate(out_nbrs):
            sim = sim.pull_from_tableau(
                Rotation(single(n, "Z"), 1), ("insert", pos + i),
                provenance="pattern", node_id=trailing_node_id(len(trailing), i),
            )
        for n in flow.order.emission_order(g.measured):
            if n in nbrs and g.labels[n] == "XY" and n in sim.nodes:
                pulled = Rotation(sim.nodes[n].string.unsigned(), 1)
                sim = sim.pull_from_tableau(pulled, ("merge", n), provenance="pattern")
    return RewriteReport(
        pattern2, flow2, fsets2,
        extract_pddag(pattern2, flow2, fsets2, extension_sets=ext2), sim,
    )


# -- local complementation --------------------------------------------------------

# (label -> (new label, angle update)) for the complemented vertex and its
# neighbours, per direction of the graph-state identity being used.
_LC_CENTER = {
    1: {
        "XY": ("XZ", lambda a: a + HALF), "XZ": ("XY", lambda a: HALF - a),
        "YZ": ("YZ", lambda a: a + HALF), "X": ("X", lambda a: a),
        "Y": ("Z", lambda a: a + 1), "Z": ("Y", lambda a: a),
    },
    -1: {
        "XY": ("XZ", lambda a: HALF - a), "XZ": ("XY", lambda a: a - HALF),
        "YZ": ("YZ", lambda a: a - HALF), "X": ("X", lambda a: a),
        "Y": ("Z", lambda a: a), "Z": ("Y", lambda a: a + 1),
    },
}
_LC_NEIGHBOUR = {
    1: {
        "XY": ("XY", lambda a: a + HALF), "XZ": ("YZ", lambda a: a),
        "YZ": ("XZ", lambda a: -a), "X": ("Y", lambda a: a),
        "Y": ("X", lambda a: a + 1), "Z": ("Z", lambda a: a),
    },
    -1: {
        "XY": ("XY", lambda a: a - HALF), "XZ": ("YZ", lambda a: -a),
        "YZ": ("XZ", lambda a: a), "X": ("Y", lambda a: a + 1),
        "Y": ("X", lambda a: a), "Z": ("Z", lambda a: a),
    },
}

# Quarter angle of the rotation merged into the node of the complemented
# vertex itself, per direction and old label.  The values are forced by the
# centre angle-update table above: merging (P', phi) into the transported
# node must land on ((-1)^D' P', alpha') up to the (-P, -t) identification.
_LC_CENTER_PULL = {
    1: {"XY": HALF, "XZ": HALF, "YZ": -HALF},
    -1: {"XY": HALF, "XZ": -HALF, "YZ": HALF},
}


def _lc_updates(pattern: MeasurementPattern, flow: PauliFlowData,
                fsets: Sequence[FocussedSet], u: str, direction: int,
                ext: Optional[dict] = None):
    g = pattern.graph
    nbrs = g.neighbours(u)
    labels = dict(g.labels)
    angles = dict(pattern.angles)
    if u in g.measured:
        new_label, upd = _LC_CENTER[direction][g.labels[u]]
        labels[u] = new_label
        angles[u] = upd(pattern.angles[u])
    for w in nbrs:
        if w in g.measured:
            new_label, upd = _LC_NEIGHBOUR[direction][g.labels[w]]
            labels[w] = new_label
            angles[w] = upd(pattern.angles[w])
    graph2 = LabelledOpenGraph(g.vertices, g.local_complement(u).edges,
                               g.inputs, g.outputs, labels)
    out_nbrs = sorted(nbrs & g.outputs)
    new_gates = [TrailingGate(w, "RZ", -direction * HALF) for w in out_nbrs]
    if u in g.outputs:
        new_gates.append(TrailingGate(u, "RX", direction * HALF))
    trailing = new_gates + list(pattern.trailing)
    pattern2 = pattern.with_graph(graph2, angles=angles, trailing=trailing)

    # Flow and focussed-set updates, computed from the original graph in
    # emission order so referenced later sets are already rebuilt: a set
    # adds the new set of u (if planar) and of each XY neighbour of u that
    # lies in it or in its odd neighbourhood.
    sources = [w for w in nbrs | {u} if w in g.measured
               and (g.is_planar(u) if w == u else g.labels[w] == "XY")]

    def updated(members, skip=None):
        members = frozenset(members)
        odd = g.odd_neighbourhood(members)
        new = members ^ {u} if u in odd else members
        for w in sources:
            if w != skip and (w in members or w in odd):
                new = new ^ p2[w]
        return new

    p2: Dict[str, FrozenSet[str]] = {}
    for v in flow.order.emission_order(g.measured):
        p2[v] = updated(flow.p[v], skip=v)
    fsets2 = [updated(fs) for fs in fsets]
    # the X-row sets follow the same update as the focussed sets: each is
    # the correction set of an input's extension vertex, which touches only
    # its input and so is never a neighbour of u
    ext2 = {w: updated(s) for w, s in (ext or {}).items()}
    flow2 = PauliFlowData(p2, flow.order)
    return pattern2, flow2, tuple(fsets2), ext2


def _lc_sim(dag: Pddag, pattern: MeasurementPattern, flow: PauliFlowData,
            pattern2: MeasurementPattern, flow2: PauliFlowData,
            u: str, direction: int) -> Pddag:
    g = pattern.graph
    nbrs = g.neighbours(u)
    new = [Rotation(single(w, "Z"), direction * HALF) for w in sorted(nbrs & g.outputs)]
    if u in g.outputs:
        new.append(Rotation(single(u, "X"), -direction * HALF))
    total = len(new) + len(pattern.trailing)
    pos = _first_trailing_pos(dag)
    for idx, rot in enumerate(new):
        dag = dag.pull_from_tableau(rot, ("insert", pos + idx), provenance="pattern",
                                    node_id=trailing_node_id(total, idx))
    for w in flow.order.emission_order(g.measured):
        is_target = (w == u and g.is_planar(u)) or (w in nbrs and g.labels.get(w) == "XY")
        if not is_target or w not in dag.nodes:
            continue
        phi = _LC_CENTER_PULL[direction][g.labels[u]] if w == u else direction * HALF
        pulled = Rotation(extraction_string(pattern2, flow2, w).string, phi)
        dag = dag.pull_from_tableau(pulled, ("merge", w), provenance="pattern")
    return dag


def local_complement_pattern(pattern: MeasurementPattern, flow: PauliFlowData,
                             fsets: Sequence[FocussedSet], u: str,
                             direction: int = 1) -> RewriteReport:
    """Locally complement about a non-input vertex, updating labels, angles,
    flow and focussed sets; simulated by pulling quarter rotations."""
    _require_focussed(pattern, flow)
    if u in pattern.graph.inputs:
        raise ValueError(f"{u!r} is an input")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    base = extract_pddag(pattern, flow, fsets)
    pattern2, flow2, fsets2, ext2 = _lc_updates(
        pattern, flow, fsets, u, direction, ext=dict(base.tableau.x_corrections))
    sim = _lc_sim(base, pattern, flow, pattern2, flow2, u, direction)
    return RewriteReport(
        pattern2, flow2, fsets2,
        extract_pddag(pattern2, flow2, fsets2, extension_sets=ext2), sim,
    )


def pivot_pattern(pattern: MeasurementPattern, flow: PauliFlowData,
                  fsets: Sequence[FocussedSet], u: str, v: str) -> RewriteReport:
    """Pivot about an edge as three alternating local complementations."""
    _require_focussed(pattern, flow)
    g = pattern.graph
    if u in g.inputs or v in g.inputs:
        raise ValueError("pivot endpoints must not be inputs")
    if not g.adjacent(u, v):
        raise ValueError(f"{u!r} and {v!r} are not adjacent")
    base = extract_pddag(pattern, flow, fsets)
    sim = base
    state = (pattern, flow, tuple(fsets), dict(base.tableau.x_corrections))
    for vertex, direction in ((u, 1), (v, -1), (u, 1)):
        pat, fl, fs, ext = state
        pat2, fl2, fs2, ext2 = _lc_updates(pat, fl, fs, vertex, direction, ext=ext)
        sim = _lc_sim(sim, pat, fl, pat2, fl2, vertex, direction)
        state = (pat2, fl2, fs2, ext2)
    pattern2, flow2, fsets2, ext2 = state
    return RewriteReport(
        pattern2, flow2, fsets2,
        extract_pddag(pattern2, flow2, fsets2, extension_sets=ext2), sim,
    )


# -- switching between focussed flows ----------------------------------------------


def switch_flow_rewrite(pattern: MeasurementPattern, flow: PauliFlowData,
                        fsets: Sequence[FocussedSet], u: str,
                        fset: FocussedSet) -> RewriteReport:
    """Add a focussed set to p(u); the pattern itself is unchanged.

    Simulated by a stabilizer rewrite on u's node (planar u) and free
    actions on the tableau rows whose derivation involved p(u): the Z row
    of u and the X row of each input w with {w} not focussed over u.
    """
    _require_focussed(pattern, flow)
    g = pattern.graph
    flow2 = switch_flow(g, flow, u, fset)
    base = extract_pddag(pattern, flow, fsets)
    sim = base
    stab = extraction_string(pattern, fset).string
    involved = {w for w in g.inputs if u in unfocussed(g, {w})}
    ext2 = {w: s ^ frozenset(fset) if w in involved else s
            for w, s in base.tableau.x_corrections.items()}
    if not stab.is_identity_string():
        if u in sim.nodes:
            sim = sim.stabilizer_rewrite_by_string(u, stab)
        tab = sim.tableau
        if u in g.inputs:
            tab = tab.multiply_input_by_string(u, "z", stab)
        for w in sorted(involved):
            tab = tab.multiply_input_by_string(w, "x", stab)
        sim = sim.with_tableau(tab)
    return RewriteReport(
        pattern, flow2, tuple(fsets),
        extract_pddag(pattern, flow2, fsets, extension_sets=ext2), sim,
    )
