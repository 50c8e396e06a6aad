"""Ancilla-free circuit extraction: measurement pattern -> Pddag -> circuit.

Each planar measurement contributes one rotation node whose string is the
primary extraction string of its correction set, with an exact sign
ledger: one flip per edge inside the set, one per Y pair, one per absorbed
Pauli measurement at angle pi.  The nodes follow the flow's temporal order
of the planar vertices: the paper measures the Pauli vertices first, which
only drops pairs that end at a Pauli vertex, so it orders them alike.
Tableau rows come from the inputs' extraction strings and the focussed-set
generators.  An input u's X row is the stabilizer of the set {u} focussed
over every measured vertex, u included: the correction set the paper gives
a fresh XY vertex u' tied to u (its input extension).  u' touches only u
and no correction set holds an input, so the focussed set, its odd
neighbourhood and its sign ledger are the same in the pattern's own graph,
where it is computed; the extended graph is never built.  Once the flow is
focussed, that set is {u} XOR the correction sets of the measured vertices
{u} is not focussed over (see ``flow``).

Extraction reads the mask context that verifying the flow built
(``flow.FlowMasks``): the primary strings and the inputs' Z rows take p(v)
and Odd(p(v)) from it, and an X row's set takes its odd neighbourhood by
linearity, Odd({u}) = adj[u] XOR the odd masks of the sets it adds.  Only
a focussed set or a supplied extension set has its odd neighbourhood
computed here.  A string's sign counts the edges inside its set in one
pass over the members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import f2
from .flow import (
    FlowMasks,
    FocussedSet,
    NoPauliFlowError,
    PauliFlowData,
    _focus,
    _focussed,
    _unfocussed,
    _verify,
    find_pauli_flow_detailed,
    focussed_set_generators,
)
from .graph import BitView, LabelledOpenGraph, MeasurementPattern, TrailingGate
from .pauli import GATE_ROTATIONS, Rotation, SignedPauliString, single
from .pddag import Circuit, IsometryTableau, Pddag, build_pddag, synthesize


@dataclass(frozen=True)
class ExtractionString:
    """Axis Pauli on the measured vertex plus a signed string over outputs."""

    axis: Optional[str]  # X/Y/Z for primary strings, None for focussed sets
    string: SignedPauliString  # sign carried in the string phase


# Pauli on a vertex by its membership of (a set, the set's odd neighbourhood)
_AXIS = {(True, False): "X", (True, True): "Y", (False, True): "Z"}


def primary_axis(graph: LabelledOpenGraph, flow: PauliFlowData, v: str) -> str:
    """X / Y / Z by membership of v in p(v) and Odd(p(v))."""
    p = graph.bit_view.mask(flow.p[v])
    return _axis(graph.bit_view, v, p, graph.bit_view.odd(p))


def _axis(bv: BitView, v: str, p: int, odd: int) -> str:
    b = bv.bit.get(v, 0)
    axis = _AXIS.get((p & b != 0, odd & b != 0))
    if axis is None:
        raise ValueError(f"{v!r} is in neither its correction set nor its odd neighbourhood")
    return axis


def extraction_string(pattern: MeasurementPattern, flow_or_fset, v: Optional[str] = None) -> ExtractionString:
    """Primary extraction string of a vertex, or the stabilizer of a focussed set."""
    bv = pattern.graph.bit_view
    members = bv.mask(flow_or_fset.p[v] if v is not None else flow_or_fset)
    return _string(bv, bv.mask(pattern.pauli_pi_vertices()), members, bv.odd(members), v)


def _string(bv: BitView, pauli_pi: int, members: int, odd: int,
            v: Optional[str] = None) -> ExtractionString:
    """``extraction_string`` of the member set with odd neighbourhood odd,
    as masks over a view of the pattern's graph; pauli_pi masks the
    pattern's Pauli vertices measured at angle pi."""
    axis = _axis(bv, v, members, odd) if v is not None else None
    # sign: one flip per edge inside the set, per Y pair, per absorbed
    # Pauli measurement at angle pi (other than v itself)
    overlap = (members & odd).bit_count()
    if overlap % 2:
        raise ValueError("correction set overlaps its odd neighbourhood oddly")
    adj, twice_inside, m = bv.adj, 0, members
    while m:  # each inside edge is counted from both ends
        low = m & -m
        twice_inside += (adj[low.bit_length() - 1] & members).bit_count()
        m ^= low
    pauli_pi &= ~bv.bit.get(v, 0)
    c = twice_inside // 2 + overlap // 2 + ((members | odd) & pauli_pi).bit_count()
    string = SignedPauliString.from_xz(bv.unmask(members & bv.outputs),
                                       bv.unmask(odd & bv.outputs), 2 * (c % 2))
    return ExtractionString(axis, string)


# -- the pipeline -----------------------------------------------------------------


def extract_pddag(pattern: MeasurementPattern, flow: Optional[PauliFlowData] = None,
                  fsets: Optional[Sequence[FocussedSet]] = None,
                  extension_sets: Optional[Mapping[str, FrozenSet[str]]] = None) -> Pddag:
    """Pattern -> Pddag: find/focus a flow, emit one node per planar vertex,
    then one per trailing gate, and derive tableau rows from the inputs and
    the focussed sets.

    extension_sets optionally pins, per input u, the focussed set its X row
    is read from (see the module docstring); it must hold u and no other
    input and be focussed over the measured vertices.  By default it is
    the set {u} focussed.  Rewrites thread updated sets through here so
    both report sides use the same tableau-row representatives.
    """
    g = pattern.graph
    _check_ids(g)
    if flow is None:
        flow, stuck = find_pauli_flow_detailed(g)
        if flow is None:
            raise NoPauliFlowError(stuck)
    bad, masks = _verify(g, flow)
    if bad:
        raise ValueError(f"supplied flow is invalid: {bad}")
    if not _focussed(masks):  # one focus check per flow
        flow, masks = _focus(g, flow, masks)
    return _extract_pddag(pattern, flow, masks, fsets, extension_sets)


def _check_ids(graph: LabelledOpenGraph) -> None:
    if any(str(v).startswith("t:") for v in graph.vertices):
        raise ValueError("vertex ids starting with 't:' are reserved")


def _extract_pddag(pattern: MeasurementPattern, flow: PauliFlowData, masks: FlowMasks,
                   fsets: Optional[Sequence[FocussedSet]] = None,
                   extension_sets: Optional[Mapping[str, FrozenSet[str]]] = None) -> Pddag:
    """``extract_pddag`` of a flow already checked to be valid and focussed,
    on a graph whose ids ``_check_ids`` passed, given the masks of the
    flow's correction sets; the focussed sets and extension sets are still
    checked here."""
    g = pattern.graph
    bv = masks.bv
    pauli_pi = bv.mask(pattern.pauli_pi_vertices())

    def focussed(s) -> Optional[Tuple[int, int]]:
        """(mask, odd mask) of a set of graph vertices focussed over the
        measured vertices; None for any other set."""
        if not g.vertices.issuperset(s):
            return None
        m = bv.mask(s)
        odd = bv.odd(m)
        return None if _unfocussed(bv, m, odd) else (m, odd)

    free = [focussed(fs) for fs in (focussed_set_generators(g) if fsets is None else fsets)]
    bad = [sorted(fs) for fs, f in zip(fsets or (), free) if f is None]
    if bad:
        raise ValueError(f"supplied focussed sets are not focussed: {bad}")
    supplied = {}
    for u, s in (extension_sets or {}).items():
        if u not in g.inputs:
            raise ValueError(f"extension set for {u!r}: not an input")
        s = frozenset(s)
        supplied[u] = s, focussed(s)
        if supplied[u][1] is None or s & g.inputs != {u}:
            raise ValueError(f"extension set for {u!r}: not a focussed set holding "
                             f"{u!r} and no other input")

    # Rotation nodes, one per planar measured vertex, earliest first.
    # Identity-string nodes (a measured vertex whose angle cannot reach the
    # outputs) are kept: they are global phases, and rewrites may turn them
    # into real rotations and back.
    nodes: List[Tuple[str, Rotation]] = []
    for v in flow.order.temporal_order(v for v in g.measured if g.is_planar(v)):
        string = _string(bv, pauli_pi, masks.p[v], masks.odd[v], v).string
        nodes.append((v, Rotation(-string if g.labels[v] == "YZ" else string,
                                  pattern.angles[v])))
    nodes += trailing_nodes(pattern.trailing)

    # Tableau rows.  By default an X row's set is {u} XOR the correction
    # sets of the measured vertices {u} is not focussed over, and its odd
    # neighbourhood adj[u] XOR theirs.
    z_rows: Dict[str, SignedPauliString] = {}
    x_rows: Dict[str, SignedPauliString] = {}
    corrections: Dict[str, FrozenSet[str]] = {}
    for u in sorted(g.inputs):
        if u in g.outputs:
            z_rows[u] = single(u, "Z")
        else:
            zs = _string(bv, pauli_pi, masks.p[u], masks.odd[u], u)
            if zs.axis != "Z":
                raise ValueError(f"input {u!r} does not give a Z extraction string")
            z_rows[u] = zs.string
        if u in supplied:
            corrections[u], (members, odd) = supplied[u]
        else:
            members, odd = bv.bit[u], bv.around(u)
            for w in f2.bits(_unfocussed(bv, members, odd)):
                members, odd = members ^ masks.p[bv.verts[w]], odd ^ masks.odd[bv.verts[w]]
            corrections[u] = bv.unmask(members)
        x_rows[u] = _string(bv, pauli_pi, members, odd).string

    tableau = IsometryTableau(
        inputs=tuple(sorted(g.inputs)),
        outputs=tuple(sorted(g.outputs)),
        z_rows=z_rows,
        x_rows=x_rows,
        free_rows=tuple(_string(bv, pauli_pi, m, odd).string for m, odd in free),
        x_corrections=corrections,
    )
    return build_pddag(tableau, nodes)


def trailing_nodes(trailing: Sequence[TrailingGate]) -> List[Tuple[str, Rotation]]:
    """The trailing gates' rotations as end-of-circuit nodes, earliest first,
    skipping zero angles.  A node's id counts from the outermost gate, so
    rewrites that prepend new trailing gates keep existing ids unchanged."""
    nodes = []
    for i, tg in enumerate(trailing):
        if tg.name not in GATE_ROTATIONS:
            raise ValueError(f"unsupported trailing gate {tg.name!r}")
        rots = GATE_ROTATIONS[tg.name](tg.qubit, tg.angle)
        base = f"t:{len(trailing) - 1 - i}"
        nodes += [(base if len(rots) == 1 else f"{base}.{j}", rot)
                  for j, rot in enumerate(rots) if rot.angle != 0]
    return nodes


def extract_circuit(pattern: MeasurementPattern, flow: Optional[PauliFlowData] = None,
                    lower_exp: bool = False) -> Circuit:
    """Pattern -> gate circuit with no measurements and no ancillae beyond
    the |O|-|I| fresh-wire initializations of the isometry."""
    return synthesize(extract_pddag(pattern, flow), lower_exp=lower_exp)
