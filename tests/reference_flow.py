"""Reference flow and focus checks and extraction strings, kept from the
string-set code the bit-mask implementations replaced.

Neighbourhoods are recomputed from the edge list on every call, so these
functions share nothing with the graph's bit view.  Besides the shape
check, which did not change, ``order.precedes`` is the only library query
they make.  The differential tests compare the
library against them; nothing in ``src/`` imports this module.
"""

from pauliflow.extract import ExtractionString
from pauliflow.flow import _check_shape
from pauliflow.pauli import SignedPauliString


def odd_neighbourhood(graph, subset):
    subset = frozenset(subset)
    unknown = subset - graph.vertices
    if unknown:
        raise KeyError(sorted(unknown)[0])
    odd = set()
    for a, b in graph.edges:
        if a in subset:
            odd ^= {b}
        if b in subset:
            odd ^= {a}
    return frozenset(odd)


def edges_inside(graph, subset):
    subset = frozenset(subset)
    return sum(a in subset and b in subset for a, b in graph.edges)


# PF4-PF9: label -> (condition, allowed (u in p(u), u in Odd(p(u))) pairs)
_PF_SELF = {
    "XY": ("PF4", {(False, True)}), "XZ": ("PF5", {(True, True)}),
    "YZ": ("PF6", {(True, False)}), "X": ("PF7", {(False, True), (True, True)}),
    "Z": ("PF8", {(True, False), (True, True)}), "Y": ("PF9", {(True, False), (False, True)}),
}


def verify_flow(graph, flow):
    _check_shape(graph, flow)
    out = []
    lab = graph.labels
    before = flow.order.precedes
    ys = [v for v in graph.measured if lab[v] == "Y"]
    for u in sorted(graph.measured):
        p = flow.p[u]
        odd = odd_neighbourhood(graph, p)
        if any(v != u and lab.get(v) not in ("X", "Y") and not before(u, v) for v in p):
            out.append((u, "PF1"))
        if any(v != u and lab.get(v) not in ("Y", "Z") and not before(u, v) for v in odd):
            out.append((u, "PF2"))
        if any(v != u and not before(u, v) and (v in p) != (v in odd) for v in ys):
            out.append((u, "PF3"))
        condition, allowed = _PF_SELF[lab[u]]
        if (u in p, u in odd) not in allowed:
            out.append((u, condition))
    return out


def unfocussed(graph, members, odd=None):
    members = frozenset(members)
    odd = odd_neighbourhood(graph, members) if odd is None else odd
    lab = graph.labels
    bad = {w for w in members if lab.get(w) in ("XZ", "YZ", "Z")}
    bad.update(w for w in odd if lab.get(w) in ("XY", "X"))
    bad.update(w for w in members ^ odd if lab.get(w) == "Y")
    return bad


def verify_focussed(graph, members, over):
    return unfocussed(graph, members).isdisjoint(over)


def is_flow_focussed(graph, flow):
    return all(unfocussed(graph, flow.p[v]) <= {v} for v in graph.measured)


def focus_over(graph, p, odd, order, v):
    current = p[v]
    cur_odd = odd_neighbourhood(graph, current)
    bad = unfocussed(graph, current, cur_odd)
    fired = set()
    for w in order:
        if w != v and w in bad:
            if w not in odd:
                odd[w] = odd_neighbourhood(graph, p[w])
            current, cur_odd = current ^ p[w], cur_odd ^ odd[w]
            fired.add(w)
            bad = unfocussed(graph, current, cur_odd)
    return current, cur_odd, frozenset(fired)


_AXIS = {(True, False): "X", (True, True): "Y", (False, True): "Z"}


def primary_axis(graph, flow, v):
    p = flow.p[v]
    axis = _AXIS.get((v in p, v in odd_neighbourhood(graph, p)))
    if axis is None:
        raise ValueError(f"{v!r} is in neither its correction set nor its odd neighbourhood")
    return axis


def extraction_string(pattern, flow_or_fset, v=None):
    g = pattern.graph
    if v is not None:
        members = flow_or_fset.p[v]
        axis = primary_axis(g, flow_or_fset, v)
    else:
        members = frozenset(flow_or_fset)
        axis = None
    odd = odd_neighbourhood(g, members)
    overlap = members & odd
    if len(overlap) % 2:
        raise ValueError("correction set overlaps its odd neighbourhood oddly")
    pauli_pi = pattern.pauli_pi_vertices() - {v}
    c = edges_inside(g, members) + len(overlap) // 2 + len((members | odd) & pauli_pi)
    string = SignedPauliString.from_xz(members & g.outputs, odd & g.outputs, 2 * (c % 2))
    return ExtractionString(axis, string)
