"""Reference extraction, kept from the implementation the library replaced.

Each input's X row is read from an *input extension*, as in the paper: a
fresh XY vertex u' at angle 0 is tied to input u and becomes the input in
its place, with correction set {u}; the X row is the primary extraction
string of u' once that set is focussed over the other measured vertices of
the extended graph, in the extended flow's temporal order.  Every call
builds the extended graph, pattern and flow order, and the Pddag is built
once and rebuilt with the trailing gates appended.

Flow finding, flow focussing and the focussed-set generators are the
library's.  The Pauli-first order is built here from the flow's pairs,
and the X-row sweep and the extraction strings use the string-set code
of ``reference_flow``.  The differential tests compare the library
against this module; nothing in ``src/`` imports it.
"""

from fractions import Fraction

from pauliflow.extract import trailing_nodes
from pauliflow.flow import (
    FlowOrder,
    NoPauliFlowError,
    PauliFlowData,
    find_pauli_flow_detailed,
    focus_flow,
    focussed_set_generators,
    is_flow_focussed,
    verify_flow,
)
from pauliflow.graph import LabelledOpenGraph, edge
from pauliflow.pauli import Rotation, single
from pauliflow.pddag import IsometryTableau, Pddag, build_pddag
from tests import reference_flow as ref


def input_extend(graph, inputs):
    """Add a fresh XY-labelled vertex u' tied to each given input u; u'
    becomes the input.  Returns the graph and {u: u'}.  Inputs are taken
    in sorted order, each id getting ' appended while it is a vertex or an
    earlier extension id."""
    ext = {}
    for u in sorted(set(inputs)):
        if u not in graph.inputs:
            raise ValueError(f"{u!r} is not an input")
        new = u + "'"
        while new in graph.vertices or new in ext.values():
            new += "'"
        ext[u] = new
    fresh = frozenset(ext.values())
    g = LabelledOpenGraph(
        graph.vertices | fresh,
        graph.edges | {edge(u, new) for u, new in ext.items()},
        (graph.inputs - ext.keys()) | fresh,
        graph.outputs,
        {**graph.labels, **dict.fromkeys(fresh, "XY")},
    )
    return g, ext


def paulis_first(graph, flow):
    """The flow with its Pauli vertices measured first, as the paper orders
    it for extraction: its order keeps only the pairs whose later vertex is
    not Pauli-labelled."""
    pairs = [(a, b) for a, b in flow.order.pair_lists(graph.vertices)
             if not graph.is_pauli(b)]
    return PauliFlowData(dict(flow.p), FlowOrder.from_pairs(pairs))


def extend_all_inputs(pattern, flow):
    """Extend every input; returns (pattern', flow', {input: extension vertex})."""
    g, ext = input_extend(pattern.graph, pattern.graph.inputs)
    angles = {**pattern.angles, **dict.fromkeys(ext.values(), Fraction(0))}
    p = {**flow.p, **{new: frozenset({u}) for u, new in ext.items()}}
    # an extension vertex ties only to its input
    extra = [(new, w) for u, new in ext.items() for w in pattern.graph.neighbours(u) | {u}]
    new_pattern = pattern.with_graph(g, angles=angles, trailing=())
    new_flow = PauliFlowData(p, flow.order.extended(pattern.graph.vertices, extra))
    return new_pattern, new_flow, ext


def append_trailing(dag, trailing):
    """Append trailing gates as rotation nodes after everything else."""
    new = trailing_nodes(trailing)
    return Pddag(dag.tableau, dag.node_ids + tuple(nid for nid, _ in new),
                 {**dag.nodes, **dict(new)})


def extract_pddag(pattern, flow=None, fsets=None, extension_sets=None):
    """Pattern -> Pddag with X rows from input extensions.  Returns the
    Pddag and, per input, the vertices whose correction sets the X-row
    sweep added (none for a supplied extension set)."""
    g = pattern.graph
    if flow is None:
        flow, stuck = find_pauli_flow_detailed(g)
        if flow is None:
            raise NoPauliFlowError(stuck)
    bad = verify_flow(g, flow)
    if bad:
        raise ValueError(f"supplied flow is invalid: {bad}")
    if not is_flow_focussed(g, flow):
        flow = focus_flow(g, flow)
    flow = paulis_first(g, flow)
    if fsets is None:
        fsets = focussed_set_generators(g)

    nodes = []
    for v in flow.order.temporal_order(g.measured):
        if g.is_planar(v):
            string = ref.extraction_string(pattern, flow, v).string
            nodes.append((v, Rotation(-string if g.labels[v] == "YZ" else string,
                                      pattern.angles[v])))

    epattern, eflow, ext_ids = extend_all_inputs(pattern, flow)
    eg = epattern.graph
    ep = dict(eflow.p)
    eodd = {}
    sweep = eflow.order.temporal_order(eg.measured)
    z_rows, x_rows, traces, corrections = {}, {}, {}, {}
    for u in sorted(g.inputs):
        if u in g.outputs:
            z_rows[u] = single(u, "Z")
        else:
            zs = ref.extraction_string(pattern, flow, u)
            if zs.axis != "Z":
                raise ValueError(f"input {u!r} does not give a Z extraction string")
            z_rows[u] = zs.string
        up = ext_ids[u]
        if extension_sets is not None and u in extension_sets:
            focussed, trace = frozenset(extension_sets[u]), frozenset()
            if not ref.verify_focussed(eg, focussed, eg.measured - {up}):
                raise ValueError(f"supplied extension set for {u!r} is not focussed")
            eodd.pop(up, None)
        else:
            focussed, eodd[up], trace = ref.focus_over(eg, ep, eodd, sweep, up)
        ep[up] = focussed
        xs = ref.extraction_string(epattern, PauliFlowData(ep, eflow.order), up)
        if xs.axis != "Z":
            raise ValueError(f"extension of input {u!r} does not give a Z string")
        x_rows[u] = xs.string
        traces[u] = trace
        corrections[u] = focussed

    tableau = IsometryTableau(
        inputs=tuple(sorted(g.inputs)),
        outputs=tuple(sorted(g.outputs)),
        z_rows=z_rows,
        x_rows=x_rows,
        free_rows=tuple(ref.extraction_string(pattern, fs).string for fs in fsets),
        x_corrections=corrections,
    )
    return append_trailing(build_pddag(tableau, nodes), pattern.trailing), traces
