"""Pattern rewrites with exact bookkeeping and their PDDAG simulations.

Every operation returns a RewriteReport holding the rewritten pattern,
the updated flow and focussed sets, and two Pddags: one extracted from
the rewritten pattern, one produced by replaying the rewrite as moves on
the Pddag extracted from the original pattern.  The two must agree
node-for-node and row-for-row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .extract import (_check_ids, _extract_pddag, _string, extract_pddag, extraction_string,
                      trailing_nodes)
from .flow import (
    FlowMasks,
    FlowOrder,
    FocussedSet,
    PauliFlowData,
    _focussed,
    _unfocussed,
    _verify,
    switch_flow,
)
from .graph import (BitView, LabelledOpenGraph, MeasurementPattern, TrailingGate,
                    complemented_among)
from .pauli import HALF, Rotation
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


def _require_focussed(pattern: MeasurementPattern, flow: PauliFlowData) -> FlowMasks:
    """The one check of a rewrite's input flow; returns the flow's masks,
    which ``_base_pddag`` and the rewrite's updates read."""
    bad, masks = _verify(pattern.graph, flow)
    if bad:
        raise ValueError(f"flow is invalid: {bad}")
    if not _focussed(masks):
        raise ValueError("rewrites need a focussed flow")
    return masks


def _base_pddag(pattern: MeasurementPattern, flow: PauliFlowData, masks: FlowMasks,
                fsets: Sequence[FocussedSet]) -> Pddag:
    """The input's Pddag, extracted without checking its flow again."""
    _check_ids(pattern.graph)
    return _extract_pddag(pattern, flow, masks, fsets)


def _pull_new_trailing(dag: Pddag, pattern: MeasurementPattern,
                       pattern2: MeasurementPattern) -> Pddag:
    """Pull the nodes of the trailing gates pattern2 prepends to pattern's.

    dag ends with pattern's trailing nodes; the new ones go just before them,
    ahead of the previously accumulated trailing gates."""
    new = trailing_nodes(pattern2.trailing)
    old = len(trailing_nodes(pattern.trailing))
    pos = len(dag.node_ids) - old
    for i, (nid, rot) in enumerate(new[:len(new) - old]):
        dag = dag.pull_to(rot, pos + i, nid)
    return dag


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
    masks = _require_focussed(pattern, flow)
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
    bv = masks.bv

    def shifted(s, m=None, odd=None):
        # a quarter turn adds p(u) to every set with u in it or its odd neighbourhood
        if quarter and m is None:
            m = bv.mask(s)
            odd = bv.odd(m)
        return s ^ flow.p[u] if quarter and (m | odd) & bv.bit[u] else s

    flow2 = PauliFlowData({v: s if v == u else shifted(s, masks.p[v], masks.odd[v])
                           for v, s in flow.p.items()}, flow.order)
    fsets2 = tuple(map(shifted, fsets))
    base = _base_pddag(pattern, flow, masks, fsets)
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
    masks = _require_focussed(pattern, flow)
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

    base = _base_pddag(pattern, flow, masks, fsets)
    ext2 = dict(base.tableau.x_corrections)  # u never appears in them
    sim = base
    if g.is_planar(u) and u in sim.nodes:
        sim = sim.push_clifford_front(u)
    if a:
        sim = _pull_new_trailing(sim, pattern, pattern2)
        for n in flow.order.emission_order(g.measured):
            if n in nbrs and g.labels[n] == "XY" and n in sim.nodes:
                sim = sim.pull_into(Rotation(sim.nodes[n].string.unsigned(), 1), n)
    return RewriteReport(
        pattern2, flow2, fsets2,
        extract_pddag(pattern2, flow2, fsets2, extension_sets=ext2), sim,
    )


# -- local complementation --------------------------------------------------------

# label -> (new label, s, c) for the complemented vertex and its neighbours
# under LC(+1): the new angle is s * angle + c.  LC(-1) undoes LC(+1), so
# its entries are the inverse maps: (new label, _, _) -> (label, s * (angle - c)).
_LC_CENTER = {
    "XY": ("XZ", 1, HALF), "XZ": ("XY", -1, HALF), "YZ": ("YZ", 1, HALF),
    "X": ("X", 1, 0), "Y": ("Z", 1, 1), "Z": ("Y", 1, 0),
}
_LC_NEIGHBOUR = {
    "XY": ("XY", 1, HALF), "XZ": ("YZ", 1, 0), "YZ": ("XZ", -1, 0),
    "X": ("Y", 1, 0), "Y": ("X", 1, 1), "Z": ("Z", 1, 0),
}


def _lc_measurement(table, direction: int, label: str, angle):
    """(label, angle) of a measurement after LC(direction), by the table."""
    if direction == 1:
        new, s, c = table[label]
        return new, s * angle + c
    for old, (new, s, c) in table.items():
        if new == label:
            return old, s * (angle - c)


# Quarter angle of the rotation merged into the node of the complemented
# vertex itself, per direction and old label.  The values are forced by the
# centre angle-update table above: merging (P', phi) into the transported
# node must land on ((-1)^D' P', alpha') up to the (-P, -t) identification.
_LC_CENTER_PULL = {
    1: {"XY": HALF, "XZ": HALF, "YZ": -HALF},
    -1: {"XY": HALF, "XZ": -HALF, "YZ": HALF},
}


def _lc_step(sim: Pddag, order: FlowOrder, pattern: MeasurementPattern, masks: FlowMasks,
             fsets: Sequence[Tuple[int, int]], ext: Dict[str, Tuple[int, int]],
             u: str, direction: int):
    """Locally complement the pattern about u, with its flow's masks and its
    focussed and X-row sets as (set, odd neighbourhood) masks; returns them
    rewritten, and sim with the quarter rotations pulled in."""
    g = pattern.graph
    bv, ubit = masks.bv, masks.bv.bit[u]
    around = bv.around(u)
    nbrs = bv.unmask(around)
    labels = dict(g.labels)
    angles = dict(pattern.angles)
    if u in g.measured:
        labels[u], angles[u] = _lc_measurement(
            _LC_CENTER, direction, g.labels[u], pattern.angles[u])
    for w in nbrs:
        if w in g.measured:
            labels[w], angles[w] = _lc_measurement(
                _LC_NEIGHBOUR, direction, g.labels[w], pattern.angles[w])
    graph2 = LabelledOpenGraph(g.vertices, complemented_among(g.edges, nbrs),
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
    # lies in it or in its odd neighbourhood.  Odd neighbourhoods in the
    # original graph follow the same XORs.
    sources = [(w, bv.bit[w]) for w in nbrs | {u} if w in g.measured
               and (g.is_planar(u) if w == u else g.labels[w] == "XY")]
    p2: Dict[str, int] = {}
    odd_g: Dict[str, int] = {}

    def updated(m, odd, skip=None):
        hit = m | odd
        if odd & ubit:
            m, odd = m ^ ubit, odd ^ around
        for w, wbit in sources:
            if w != skip and hit & wbit:
                m, odd = m ^ p2[w], odd ^ odd_g[w]
        return m, odd

    def complemented(m, odd):
        # LC toggles the edges among u's neighbours N, so in the new graph
        # a set S has odd neighbourhood Odd(S) ^ (S & N), ^ N if |S & N| is odd
        inside = m & around
        return m, odd ^ inside ^ (around if inside.bit_count() & 1 else 0)

    for v in order.emission_order(g.measured):
        p2[v], odd_g[v] = updated(masks.p[v], masks.odd[v], skip=v)
    masks2 = FlowMasks(BitView(graph2, bv.verts), p2,
                       {v: complemented(m, odd_g[v])[1] for v, m in p2.items()})
    # the X-row sets follow the same update as the focussed sets: each is
    # the correction set of an input's extension vertex, which touches only
    # its input and so is never a neighbour of u
    fsets2 = [complemented(*updated(m, odd)) for m, odd in fsets]
    ext2 = {w: complemented(*updated(m, odd)) for w, (m, odd) in ext.items()}

    # the simulation pulls a quarter rotation into the node of u (if
    # planar) and of each XY neighbour
    sim = _pull_new_trailing(sim, pattern, pattern2)
    pauli_pi = masks2.bv.mask(pattern2.pauli_pi_vertices())
    for w in order.emission_order(g.measured):
        is_target = (w == u and g.is_planar(u)) or (w in nbrs and g.labels.get(w) == "XY")
        if not is_target or w not in sim.nodes:
            continue
        phi = _LC_CENTER_PULL[direction][g.labels[u]] if w == u else direction * HALF
        string = _string(masks2.bv, pauli_pi, p2[w], masks2.odd[w], w).string
        sim = sim.pull_into(Rotation(string, phi), w)
    return (pattern2, masks2, fsets2, ext2), sim


def _lc_rewrite(pattern: MeasurementPattern, flow: PauliFlowData, masks: FlowMasks,
                fsets: Sequence[FocussedSet], steps) -> RewriteReport:
    """Local complementations about the (vertex, direction) steps in turn,
    of a pattern whose flow has the masks."""
    base = _base_pddag(pattern, flow, masks, fsets)
    bv = masks.bv

    def with_odd(s):
        m = bv.mask(s)
        return m, bv.odd(m)

    state = (pattern, masks, [with_odd(fs) for fs in fsets],
             {w: with_odd(s) for w, s in base.tableau.x_corrections.items()})
    sim = base
    for u, direction in steps:
        state, sim = _lc_step(sim, flow.order, *state, u, direction)
    pattern2, masks2, fsets2, ext2 = state
    # every step keeps the vertices and their listing, so bv reads the masks
    flow2 = PauliFlowData({v: bv.unmask(m) for v, m in masks2.p.items()}, flow.order)
    fsets2 = tuple(bv.unmask(m) for m, _ in fsets2)
    ext2 = {w: bv.unmask(m) for w, (m, _) in ext2.items()}
    return RewriteReport(
        pattern2, flow2, fsets2,
        extract_pddag(pattern2, flow2, fsets2, extension_sets=ext2), sim,
    )


def local_complement_pattern(pattern: MeasurementPattern, flow: PauliFlowData,
                             fsets: Sequence[FocussedSet], u: str,
                             direction: int = 1) -> RewriteReport:
    """Locally complement about a non-input vertex, updating labels, angles,
    flow and focussed sets; simulated by pulling quarter rotations."""
    masks = _require_focussed(pattern, flow)
    if u in pattern.graph.inputs:
        raise ValueError(f"{u!r} is an input")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return _lc_rewrite(pattern, flow, masks, fsets, [(u, direction)])


def pivot_pattern(pattern: MeasurementPattern, flow: PauliFlowData,
                  fsets: Sequence[FocussedSet], u: str, v: str) -> RewriteReport:
    """Pivot about an edge as three alternating local complementations."""
    masks = _require_focussed(pattern, flow)
    g = pattern.graph
    if u in g.inputs or v in g.inputs:
        raise ValueError("pivot endpoints must not be inputs")
    if not g.adjacent(u, v):
        raise ValueError(f"{u!r} and {v!r} are not adjacent")
    return _lc_rewrite(pattern, flow, masks, fsets, [(u, 1), (v, -1), (u, 1)])


# -- switching between focussed flows ----------------------------------------------


def switch_flow_rewrite(pattern: MeasurementPattern, flow: PauliFlowData,
                        fsets: Sequence[FocussedSet], u: str,
                        fset: FocussedSet) -> RewriteReport:
    """Add a focussed set to p(u); the pattern itself is unchanged.

    Simulated by a stabilizer rewrite on u's node (planar u) and free
    actions on the tableau rows whose derivation involved p(u): the Z row
    of u and the X row of each input w with {w} not focussed over u.
    """
    masks = _require_focussed(pattern, flow)
    g = pattern.graph
    flow2 = switch_flow(g, flow, u, fset)
    base = _base_pddag(pattern, flow, masks, fsets)
    sim = base
    stab = extraction_string(pattern, fset).string
    bv = masks.bv
    involved = [w for w in sorted(g.inputs)
                if _unfocussed(bv, bv.bit[w], bv.around(w)) & bv.bit[u]]
    ext2 = {w: s ^ frozenset(fset) if w in involved else s
            for w, s in base.tableau.x_corrections.items()}
    if not stab.is_identity_string():
        if u in sim.nodes:
            sim = sim.stabilizer_rewrite_by_string(u, stab)
        tab = sim.tableau
        if u in g.inputs:
            tab = tab.multiply_input_by_string(u, "z", stab)
        for w in involved:
            tab = tab.multiply_input_by_string(w, "x", stab)
        sim = sim.with_tableau(tab)
    return RewriteReport(
        pattern, flow2, tuple(fsets),
        extract_pddag(pattern, flow2, fsets, extension_sets=ext2), sim,
    )
