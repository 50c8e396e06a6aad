"""Reference flow code, kept from the implementations the library replaced.

The flow and focus checks and the extraction strings are the string-set
code the bit-mask implementations replaced.  Neighbourhoods are
recomputed from the edge list on every call, so these functions share
nothing with the graph's bit view.  Besides the shape check, which did not
change, ``order.precedes`` is the only library query they make.

``find_pauli_flow_detailed`` and ``focussed_set_generators`` are the
identification and generator code that solved each GF(2) system through
``_Ctx``'s own vertex masks, a column-compressed copy of every row
(``_restrict``) and the ``F2Matrix`` routines of ``reference_f2``.
``solve_witness_bits`` is the later per-candidate solve on a
``graph.BitView``: one ``pauliflow.f2.solve`` of the whole witness system
for every candidate vertex and plane, with no state shared across them.

The differential tests compare the library against them; nothing in
``src/`` imports this module.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional

from pauliflow import f2 as bit_f2
from pauliflow.extract import ExtractionString
from pauliflow.f2 import bits
from pauliflow.flow import FlowOrder, PauliFlowData, _check_shape
from pauliflow.pauli import SignedPauliString
from tests import reference_f2 as f2


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


class _Ctx:
    """Bit-mask view of a labelled open graph, for the GF(2) systems."""

    def __init__(self, graph):
        self.verts = sorted(graph.vertices)
        self.idx = {v: i for i, v in enumerate(self.verts)}
        n = len(self.verts)
        self.full = (1 << n) - 1
        self.adj = [0] * n
        for a, b in graph.edges:
            self.adj[self.idx[a]] |= 1 << self.idx[b]
            self.adj[self.idx[b]] |= 1 << self.idx[a]
        self.inputs = self.mask(graph.inputs)
        self.outputs = self.mask(graph.outputs)
        self.lx = self.mask(v for v in graph.measured if graph.labels[v] == "X")
        self.ly = self.mask(v for v in graph.measured if graph.labels[v] == "Y")
        self.lz = self.mask(v for v in graph.measured if graph.labels[v] == "Z")

    def mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self.idx[v]
        return m

    def unmask(self, m: int) -> FrozenSet[str]:
        return frozenset(self.verts[i] for i in bits(m))


def _solve_witness(ctx: _Ctx, u: int, a_mask: int, plane: str) -> Optional[int]:
    """Solve the witness system for vertex u at a depth round; return K mask."""
    ubit = 1 << u
    lyu = ctx.ly & ~ubit
    lzu = ctx.lz & ~ubit
    lxu = ctx.lx & ~ubit
    k_univ = (a_mask | lxu | lyu) & ~ctx.inputs & ~ubit
    p_rows = ctx.full & ~(a_mask | lyu | lzu)
    y_rows = lyu & ~a_mask
    cols = list(bits(k_univ))
    nbr = ctx.adj[u]

    rows: List[int] = []
    rhs: List[int] = []
    for w in bits(p_rows):
        rows.append(_restrict(ctx.adj[w], cols))
        if plane == "XY":
            rhs.append(1 if w == u else 0)
        elif plane == "XZ":
            rhs.append(((nbr >> w) & 1) ^ (1 if w == u else 0))
        else:
            rhs.append((nbr >> w) & 1)
    for w in bits(y_rows):
        rows.append(_restrict(ctx.adj[w] ^ (1 << w), cols))
        rhs.append(0 if plane == "XY" else (nbr >> w) & 1)

    x = f2.solve(f2.F2Matrix(rows, len(cols)), rhs)
    if x is None:
        return None
    k = 0
    for j in bits(x):
        k |= 1 << cols[j]
    return k


def solve_witness_bits(bv, noninput: int, u: int, a_mask: int, plane: str) -> Optional[int]:
    """Solve the witness system for vertex u at a depth round; return K mask.

    The unknowns are the vertex bits of K, so each row is an adjacency mask
    cut to them; the right-hand side b rides at the bit above every vertex."""
    ubit = 1 << u
    lab, adj, n = bv.label, bv.adj, len(bv.verts)
    lyu = lab["Y"] & ~ubit
    k_univ = (a_mask | lab["X"] | lyu) & noninput & ~ubit
    p_rows = ((1 << n) - 1) & ~(a_mask | lyu | lab["Z"] & ~ubit)
    b = ubit if plane == "XY" else adj[u] ^ ubit if plane == "XZ" else adj[u]
    rows = [adj[w] & k_univ | ((b >> w) & 1) << n for w in bits(p_rows)]
    rows += [(adj[w] ^ (1 << w)) & k_univ | ((b >> w) & 1) << n for w in bits(lyu & ~a_mask)]
    return bit_f2.solve(rows, k_univ, 1 << n)


def _restrict(mask: int, cols: List[int]) -> int:
    row = 0
    for j, c in enumerate(cols):
        row |= ((mask >> c) & 1) << j
    return row


def find_pauli_flow_detailed(graph):
    """Run the delayed-layer identification; return (flow or None, stuck front)."""
    ctx = _Ctx(graph)
    lab = graph.labels
    depth: Dict[str, int] = {v: 0 for v in graph.outputs}
    p: Dict[str, FrozenSet[str]] = {}
    solved = ctx.outputs
    k = 0
    while True:
        a_mask = 0 if k == 0 else solved
        found = 0
        for v in sorted(graph.measured):
            i = ctx.idx[v]
            if solved & (1 << i):
                continue
            lu = lab[v]
            planes = []
            if lu in ("XY", "X", "Y"):
                planes.append("XY")
            if lu in ("XZ", "X", "Z") and v not in graph.inputs:
                planes.append("XZ")
            if lu in ("YZ", "Y", "Z") and v not in graph.inputs:
                planes.append("YZ")
            for plane in planes:
                kmask = _solve_witness(ctx, i, a_mask, plane)
                if kmask is not None:
                    if plane != "XY":
                        kmask |= 1 << i
                    p[v] = ctx.unmask(kmask)
                    depth[v] = k
                    found |= 1 << i
                    break
        if found:
            solved |= found
            k += 1
            continue
        if k == 0:
            k += 1
            continue
        if solved == ctx.full:
            return PauliFlowData(p, FlowOrder.from_depth(depth)), frozenset()
        return None, ctx.unmask(ctx.full & ~solved & ~ctx.outputs)


def focussed_set_generators(graph):
    """The null-space basis of the focussed-set system, one generator per
    free variable (without the library's rank and focus checks)."""
    lab = graph.labels
    variables = sorted(
        v for v in graph.prepared
        if v in graph.outputs or lab.get(v) in ("XY", "X", "Y")
    )
    col = {v: j for j, v in enumerate(variables)}

    def row(w: str, include_self: bool) -> int:
        r = sum(1 << col[v] for v in neighbours(graph, w) if v in col)
        return r ^ (1 << col[w]) if include_self and w in col else r

    measured = sorted(graph.measured)
    rows = [row(w, False) for w in measured if lab[w] in ("XY", "X")]
    rows += [row(w, True) for w in measured if lab[w] == "Y"]
    basis = f2.null_space(f2.F2Matrix(rows, len(variables)))
    return [frozenset(variables[j] for j in bits(vec)) for vec in basis]


def neighbours(graph, v):
    return odd_neighbourhood(graph, (v,))
