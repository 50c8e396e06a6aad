"""Pauli flow: verification, maximally delayed identification and focussing.

The identification algorithm works backwards from the outputs, one depth
round at a time.  Each candidate vertex u and plane poses a GF(2) witness
system on a ``graph.BitView`` (the unknowns are the vertex bits of the
correction set, each row an adjacency mask cut to them), and the systems
of one round share one matrix M up to a rank-1 edit: u's column is dropped
when u is X or Y, u's row is added when u is Z.  So a round eliminates M
once, with identity bits recording the row operations, and a right-hand
side reads off a solution of M or a left-null row it fails.  Dropping
column u trades u for the lowest other column of its echelon row; adding
row u flips its parity with the null vector of the lowest bit it keeps
after reduction.  Either answer is supported on the edited system's greedy
column basis, so it is the unique solution ``f2.solve`` of that system
returns, and the correction sets stay the same bit for bit.

Every flow order is a ``FlowOrder``: a strict partial order held as closed
successor bit masks over a vertex index.  Identification builds it from a
depth map (depth counts from the outputs, so ``u`` before ``v`` iff
``d(u) > d(v)``), flow switching extends it by pairs, Z-elimination
restricts it and extraction reads it as it is (see ``extract``).

Verifying a flow builds its mask context (``FlowMasks``): p(v) and
Odd(p(v)) of every measured vertex as masks over one ``BitView`` of the
graph, one odd neighbourhood each.  The focus check, focussing, extraction
and the rewrites read them instead of recomputing them; they are passed
explicitly, never memoised, so they are read only for the graph and the
correction sets they were built from.

Focussing takes one pass.  The focus conditions FOC1-FOC3 are linear over
GF(2), and a focussed correction set p(w) fails them only at w, so the
focussed set reached from a start set is unique: the start set XOR the
focussed sets of the measured vertices it is not focussed over.  For p(v)
those vertices other than v come after v (PF1-PF3), so visiting the
vertices latest first finds every set it needs already focussed.  Odd
neighbourhoods are linear too, so the focussed sets' masks follow by XOR.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import f2
from .graph import BitView, LabelledOpenGraph, PLANAR_LABELS


class FlowFormatError(ValueError):
    """Malformed flow data (as opposed to a flow that violates conditions)."""


class NoPauliFlowError(ValueError):
    def __init__(self, stuck: FrozenSet[str]):
        self.stuck = stuck
        super().__init__(f"no Pauli flow; stuck vertex front {sorted(stuck)}")


_DIGITS = bytes.maketrans(b"01", b"\0\1")


class FlowOrder:
    """A strict partial order on vertex ids, as closed successor bit masks.

    Bit j of ``succ[i]`` is set iff ``verts[i]`` is measured strictly before
    ``verts[j]``.  ``verts`` lists later vertices first, so the highest bit
    of a successor mask is a covering (Hasse) successor.  Vertices outside
    ``verts`` are incomparable to all.  Instances are immutable; emission
    orders are memoised.  ``depth`` is the depth map the order was built
    from, if any, so flow documents can be written back in depth form.
    """

    def __init__(self, verts: Sequence[str], succ: Sequence[int],
                 depth: Optional[Mapping[str, int]] = None):
        self.verts = tuple(verts)
        self.index = {v: i for i, v in enumerate(self.verts)}
        self.succ = tuple(succ)
        self.depth = dict(depth) if depth is not None else None
        self._emission: Dict[FrozenSet[str], Tuple[str, ...]] = {}

    @classmethod
    def from_depth(cls, depth: Mapping[str, int],
                   vertices: Iterable[str] = ()) -> "FlowOrder":
        """The order of a depth map; the given vertices it omits sit at depth 0."""
        full = dict.fromkeys(vertices, 0)
        full.update(depth)
        verts = sorted(full, key=lambda v: (full[v], v))
        first: Dict[int, int] = {}  # depth -> index of its first vertex
        for i, v in enumerate(verts):
            first.setdefault(full[v], i)
        return cls(verts, [(1 << first[full[v]]) - 1 for v in verts], depth)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, str]]) -> "FlowOrder":
        """Transitive closure of the (before, after) pairs; cycles are rejected.

        The vertices are listed by ascending number of pairs they start,
        then by id.  A closed order listed so has every successor listed
        first (it has fewer successors), so ``_close`` closes it in one
        pass; other pair sets may need Kahn's algorithm."""
        pairs = list(pairs)
        starts = Counter(map(itemgetter(0), pairs))
        verts = sorted(starts.keys() | set(map(itemgetter(1), pairs)),
                       key=lambda v: (starts[v], v))
        index = {v: i for i, v in enumerate(verts)}
        bit = {v: 1 << i for i, v in enumerate(verts)}
        direct = [0] * len(verts)
        for a, b in pairs:
            direct[index[a]] |= bit[b]
        return cls(*_close(verts, direct))

    def precedes(self, u: str, v: str) -> bool:
        """True iff u is strictly before v (measured earlier)."""
        i = self.index.get(u)
        j = self.index.get(v)
        return i is not None and j is not None and (self.succ[i] >> j) & 1 == 1

    def _mask(self, vertices: Iterable[str]) -> int:
        index = self.index
        return sum(1 << index[v] for v in set(vertices) if v in index)

    def pair_lists(self, vertices: Iterable[str]) -> List[List[str]]:
        """The (before, after) pairs among the vertices as sorted lists."""
        vertices = sorted(self.index.keys() & set(vertices))
        sel = self._mask(vertices)
        out: List[List[str]] = []
        for a in vertices:
            # the binary digits of a's successor mask, lowest first, as 0/1
            # bytes select a's successors from the listing
            digits = bin(self.succ[self.index[a]] & sel)[:1:-1].encode().translate(_DIGITS)
            out += [[a, b] for b in sorted(compress(self.verts, digits))]
        return out

    def restricted(self, vertices: Iterable[str]) -> "FlowOrder":
        """This order on the given vertices (still closed)."""
        vertices = frozenset(vertices)
        sel = self._mask(vertices)
        succ = [s & sel if (sel >> i) & 1 else 0 for i, s in enumerate(self.succ)]
        depth = None
        if self.depth is not None:
            depth = {v: d for v, d in self.depth.items() if v in vertices}
        return FlowOrder(self.verts, succ, depth)

    def extended(self, vertices: Iterable[str], extra: Iterable[Tuple[str, str]]) -> "FlowOrder":
        """This order on the given vertices plus the extra pairs, closed: a
        pair (a, b) puts everything up to a before everything from b on.
        New vertices are listed last; each pair is one more successor bit,
        and ``_close`` relists the vertices if a pair runs against the
        listing and rejects a cycle."""
        extra = list(extra)
        fresh = sorted({v for pair in extra for v in pair} - self.index.keys())
        verts = self.verts + tuple(fresh)
        index = {v: i for i, v in enumerate(verts)}
        succ = list(self.restricted(vertices).succ) + [0] * len(fresh)
        for a, b in extra:
            succ[index[a]] |= 1 << index[b]
        return FlowOrder(*_close(verts, succ))

    def emission_order(self, vertices: Iterable[str]) -> List[str]:
        """Latest-measured first, deterministic (lexicographic tie-break)."""
        key = frozenset(vertices)
        out = self._emission.get(key)
        if out is None:
            out = self._emission[key] = self._emit(key)
        return list(out)

    def _emit(self, vertices: FrozenSet[str]) -> Tuple[str, ...]:
        """Kahn's algorithm over the covering pairs among the vertices,
        latest first, smallest id first among the ready ones."""
        verts, succ = self.verts, self.succ
        sel = self._mask(vertices)
        covers = {}  # vertex -> number of its covering successors not yet out
        covered_by: Dict[int, List[int]] = {}
        for i in f2.bits(sel):
            m = succ[i] & sel
            n = 0
            while m:
                j = m.bit_length() - 1
                covered_by.setdefault(j, []).append(i)
                n += 1
                m &= ~(succ[j] | (1 << j))
            covers[i] = n
        heap = [(v, -1) for v in vertices if v not in self.index]
        heap += [(verts[i], i) for i, n in covers.items() if n == 0]
        heapq.heapify(heap)
        out: List[str] = []
        while heap:
            v, j = heapq.heappop(heap)
            out.append(v)
            for i in covered_by.get(j, ()):
                covers[i] -= 1
                if covers[i] == 0:
                    heapq.heappush(heap, (verts[i], i))
        return tuple(out)

    def temporal_order(self, vertices: Iterable[str]) -> List[str]:
        """Earliest-measured first."""
        return list(reversed(self.emission_order(vertices)))


def _close(verts: Sequence[str], direct: List[int]) -> Tuple[List[str], List[int]]:
    """Transitive closure of successor masks, listed later vertices first.

    If every vertex's successors are listed before it, one pass in listing
    order closes the masks: it takes the highest successor not yet reached
    and adds everything after it, so a closed mask costs one step per
    covering successor.  Otherwise Kahn's algorithm relists the vertices
    (a vertex is listed once all its successors are)."""
    if not any(m >> i for i, m in enumerate(direct)):
        reached: List[int] = []
        for m in direct:
            reach = m
            while m:
                j = m.bit_length() - 1
                reach |= reached[j]
                m &= ~(reached[j] | 1 << j)
            reached.append(reach)
        return list(verts), reached
    n = len(direct)
    pending = [m.bit_count() for m in direct]
    before: List[List[int]] = [[] for _ in range(n)]
    for i, m in enumerate(direct):
        for j in f2.bits(m):
            before[j].append(i)
    rank = [0] * n
    closed: List[int] = []
    listed: List[str] = []
    ready = [i for i in range(n) if not pending[i]]
    while ready:
        j = ready.pop()
        reach = 0
        for k in f2.bits(direct[j]):
            reach |= closed[rank[k]] | (1 << rank[k])
        rank[j] = len(closed)
        closed.append(reach)
        listed.append(verts[j])
        for i in before[j]:
            pending[i] -= 1
            if not pending[i]:
                ready.append(i)
    if len(closed) < n:
        stuck = sorted(verts[i] for i in range(n) if pending[i])
        raise FlowFormatError(f"order has a cycle through some of {stuck}")
    return listed, closed


@dataclass(frozen=True)
class PauliFlowData:
    p: Mapping[str, FrozenSet[str]]
    order: FlowOrder


FocussedSet = FrozenSet[str]


# -- verification --------------------------------------------------------


def _check_shape(graph: LabelledOpenGraph, flow: PauliFlowData) -> None:
    measured = graph.measured
    extra = set(flow.p) - set(measured)
    if extra:
        raise FlowFormatError(f"correction sets on non-measured vertices {sorted(extra)}")
    missing = set(measured) - set(flow.p)
    if missing:
        raise FlowFormatError(f"missing correction sets for {sorted(missing)}")
    for v, s in flow.p.items():
        bad = set(s) & graph.inputs
        if bad:
            raise FlowFormatError(f"correction set of {v!r} contains inputs {sorted(bad)}")
        if not set(s) <= graph.vertices:
            raise FlowFormatError(f"correction set of {v!r} leaves the graph")


# PF4-PF9: label -> (condition, allowed (u in p(u), u in Odd(p(u))) pairs)
_PF_SELF = {
    "XY": ("PF4", {(False, True)}), "XZ": ("PF5", {(True, True)}),
    "YZ": ("PF6", {(True, False)}), "X": ("PF7", {(False, True), (True, True)}),
    "Z": ("PF8", {(True, False), (True, True)}), "Y": ("PF9", {(True, False), (False, True)}),
}


class FlowMasks(NamedTuple):
    """Each measured vertex's correction set p(v) and its odd neighbourhood
    Odd(p(v)), as masks over one view of the graph, built once per (graph,
    flow) and passed explicitly to what reads that graph and flow."""

    bv: BitView
    p: Dict[str, int]
    odd: Dict[str, int]


def verify_flow(graph: LabelledOpenGraph, flow: PauliFlowData) -> List[Tuple[str, str]]:
    """Return all (vertex, condition) violations of the nine flow conditions."""
    return _verify(graph, flow)[0]


def _verify(graph: LabelledOpenGraph, flow: PauliFlowData) -> Tuple[list, FlowMasks]:
    """``verify_flow``'s violations and the flow's masks, as mask tests over
    the order's listing followed by the graph vertices it lacks: ``succ`` of
    u holds the vertices after u, ``free`` the others."""
    _check_shape(graph, flow)
    order = flow.order
    bv = BitView(graph, order.verts + tuple(sorted(graph.vertices - order.index.keys())))
    masks = FlowMasks(bv, {}, {})
    lab = bv.label
    out: List[Tuple[str, str]] = []
    for u in sorted(graph.measured):
        ubit = bv.bit[u]
        p = masks.p[u] = bv.mask(flow.p[u])
        odd = masks.odd[u] = bv.odd(p)
        free = ~(ubit | (order.succ[order.index[u]] if u in order.index else 0))
        if p & free & ~(lab["X"] | lab["Y"]):
            out.append((u, "PF1"))
        if odd & free & ~(lab["Y"] | lab["Z"]):
            out.append((u, "PF2"))
        if lab["Y"] & free & (p ^ odd):
            out.append((u, "PF3"))
        condition, allowed = _PF_SELF[graph.labels[u]]
        if (p & ubit != 0, odd & ubit != 0) not in allowed:
            out.append((u, condition))
    return out, masks


# -- identification (maximally delayed) -----------------------------------


# label -> the planes whose witness systems identification tries, in order;
# an input tries only XY
_PLANES = {"XY": ("XY",), "XZ": ("XZ",), "YZ": ("YZ",), "X": ("XY", "XZ"),
           "Y": ("XY", "YZ"), "Z": ("XZ", "YZ")}


def _round_solver(bv: BitView, noninput: int, a_mask: int):
    """Eliminate the matrix M shared by the witness systems of one depth
    round; return solve(u, plane) -> K mask or None (see the module docstring).

    M has columns C = (A | X | Y) minus the inputs, for the solved set A, a
    row ``adj[w] & C`` per w outside A, Y and Z, and a row ``(adj[w] ^ w) & C``
    per Y vertex w outside A.  Row w carries its identity bit n + w."""
    lab, adj, n = bv.label, bv.adj, len(bv.verts)
    cols = (a_mask | lab["X"] | lab["Y"]) & noninput
    plain = ((1 << n) - 1) & ~(a_mask | lab["Y"] | lab["Z"])
    rows = [adj[w] & cols | 1 << (n + w) for w in f2.bits(plain)]
    rows += [(adj[w] ^ (1 << w)) & cols | 1 << (n + w) for w in f2.bits(lab["Y"] & ~a_mask)]
    reduced, pivots = f2.gauss(rows, cols)
    echelon = {c: x & cols for c, x in zip(pivots, reduced)}
    pivot_mask = sum(1 << c for c in pivots)
    # reach[w]: the pivots that the right-hand-side bit of row w reaches, and
    # at bit n + i every left-null row i it meets
    reach = [0] * n
    for i, x in enumerate(reduced):
        code = 1 << pivots[i] if i < len(pivots) else 1 << (n + i)
        for w in f2.bits(x >> n):
            reach[w] ^= code

    def null(j: int) -> int:
        """The null vector of M at the non-pivot column j."""
        return (1 << j) | sum(1 << c for c, x in echelon.items() if (x >> j) & 1)

    def solve(u: int, plane: str) -> Optional[int]:
        ubit = 1 << u
        b = ubit if plane == "XY" else adj[u] ^ ubit if plane == "XZ" else adj[u]
        x = 0
        for w in f2.bits(b):
            x ^= reach[w]
        if x >> n:  # b meets a left-null row: M x = b has no solution
            return None
        if x & ubit:  # drop column u: trade it for the lowest other column of its row
            rest = echelon[u] & ~ubit
            return x ^ null((rest & -rest).bit_length() - 1) if rest else None
        if lab["Z"] & ubit:  # add u's own row; fix its parity with a new pivot
            row = adj[u] & cols
            if (row & x).bit_count() & 1 != (b >> u) & 1:
                for c in f2.bits(row & pivot_mask):
                    row ^= echelon[c]
                return x ^ null((row & -row).bit_length() - 1) if row else None
        return x

    return solve


def find_pauli_flow_detailed(graph: LabelledOpenGraph):
    """Run the delayed-layer identification; return (flow or None, stuck front).

    Round k gives depth k to every unsolved vertex whose witness system in
    some allowed plane is solvable given the vertices solved before round k
    (at k = 0, not even the outputs); one ``_round_solver`` answers all the
    systems of a round.  A round after k = 0 that solves nothing leaves the
    unsolved vertices as the stuck front."""
    bv = BitView(graph)  # not the graph's cached view: flow finding caches nothing on it
    full = (1 << len(bv.verts)) - 1
    noninput = full & ~bv.mask(graph.inputs)
    depth: Dict[str, int] = {v: 0 for v in graph.outputs}
    p: Dict[str, FrozenSet[str]] = {}
    solved = bv.outputs
    k = 0
    while solved != full:
        solve = _round_solver(bv, noninput, solved if k else 0)
        found = 0
        for i in f2.bits(full & ~solved):
            v = bv.verts[i]
            for plane in _PLANES[graph.labels[v]]:
                if plane != "XY" and not (noninput >> i) & 1:
                    continue
                kmask = solve(i, plane)
                if kmask is not None:
                    p[v] = bv.unmask(kmask if plane == "XY" else kmask | 1 << i)
                    depth[v] = k
                    found |= 1 << i
                    break
        if found:
            solved |= found
        elif k:
            return None, bv.unmask(full & ~solved)
        k += 1
    return PauliFlowData(p, FlowOrder.from_depth(depth)), frozenset()


def find_pauli_flow(graph: LabelledOpenGraph) -> Optional[PauliFlowData]:
    return find_pauli_flow_detailed(graph)[0]


# -- focussing -------------------------------------------------------------


def _unfocussed(bv: BitView, members: int, odd: Optional[int] = None) -> int:
    """Mask of the measured vertices the set is not focussed over (FOC1-FOC3),
    given the set and, if known, its odd neighbourhood."""
    lab = bv.label
    odd = bv.odd(members) if odd is None else odd
    return ((members & (lab["XZ"] | lab["YZ"] | lab["Z"])) | (odd & (lab["XY"] | lab["X"]))
            | ((members ^ odd) & lab["Y"]))


def unfocussed(graph: LabelledOpenGraph, members: Iterable[str]) -> FrozenSet[str]:
    """The measured vertices the member set is not focussed over (FOC1-FOC3)."""
    bv = graph.bit_view
    return bv.unmask(_unfocussed(bv, bv.mask(members)))


def verify_focussed(graph: LabelledOpenGraph, members: Iterable[str],
                    over: Iterable[str]) -> bool:
    """FOC1-FOC3 for the member set over the given measured vertices."""
    return unfocussed(graph, members).isdisjoint(over)


def focus_flow(graph: LabelledOpenGraph, flow: PauliFlowData) -> PauliFlowData:
    """Make every correction set focussed over the other measured vertices.

    One pass, latest vertex first: p(v) becomes p(v) XOR the focussed sets
    of the vertices w != v it is not focussed over, which PF1-PF3 put after
    v, so those sets are final (see the module docstring).
    """
    bad, masks = _verify(graph, flow)
    if bad:
        raise ValueError(f"cannot focus an invalid flow: {bad}")
    return _focus(graph, flow, masks)[0]


def _focus(graph: LabelledOpenGraph, flow: PauliFlowData,
           masks: FlowMasks) -> Tuple[PauliFlowData, FlowMasks]:
    """``focus_flow`` of a valid flow given its masks, and the focussed
    flow's masks (an odd neighbourhood follows its set's XORs)."""
    bv, index = masks.bv, flow.order.index
    out = FlowMasks(bv, {}, {})
    # the order lists later vertices first; the vertices it lacks have no successors
    for v in sorted(graph.measured, key=lambda v: index.get(v, -1)):
        p, odd = masks.p[v], masks.odd[v]
        for w in f2.bits(_unfocussed(bv, p, odd) & ~bv.bit[v]):
            p, odd = p ^ out.p[bv.verts[w]], odd ^ out.odd[bv.verts[w]]
        out.p[v], out.odd[v] = p, odd
    return PauliFlowData({v: bv.unmask(out.p[v]) for v in flow.p}, flow.order), out


def is_flow_focussed(graph: LabelledOpenGraph, flow: PauliFlowData) -> bool:
    _check_shape(graph, flow)
    bv = graph.bit_view
    return all(not _unfocussed(bv, bv.mask(flow.p[v])) & ~bv.bit[v]
               for v in graph.measured)


def _focussed(masks: FlowMasks) -> bool:
    """``is_flow_focussed`` read from the flow's masks."""
    bv = masks.bv
    return all(not _unfocussed(bv, p, masks.odd[v]) & ~bv.bit[v] for v, p in masks.p.items())


# -- focussed set generators ------------------------------------------------


class FocussedRankError(ValueError):
    pass


def focussed_set_generators(graph: LabelledOpenGraph) -> List[FocussedSet]:
    """|O|-|I| independent generators of the focussed-set group.

    Solves the homogeneous membership/odd-neighbourhood system over GF(2);
    each null-space basis vector (one per free variable) is one generator.
    """
    bv = graph.bit_view
    lab = bv.label
    variables = (bv.outputs | lab["XY"] | lab["X"] | lab["Y"]) & ~bv.mask(graph.inputs)
    rows = [bv.adj[w] & variables for w in f2.bits(lab["XY"] | lab["X"])]
    rows += [(bv.adj[w] ^ (1 << w)) & variables for w in f2.bits(lab["Y"])]
    gens = [bv.unmask(vec) for vec in f2.null_space(rows, variables)]
    expected = len(graph.outputs) - len(graph.inputs)
    if len(gens) != expected:
        raise FocussedRankError(
            f"focussed-set system has {len(gens)} generators, expected {expected}"
        )
    for g in gens:
        if not verify_focussed(graph, g, graph.measured):
            raise FocussedRankError(f"generator {sorted(g)} is not focussed")
    return gens


# -- flow surgery ------------------------------------------------------------


def add_correction_sets(flow: PauliFlowData, u: str, v: str) -> PauliFlowData:
    """Replace p(u) by p(u) symmetric-difference p(v); needs u before v."""
    if u == v:
        raise ValueError("u and v must differ")
    if not flow.order.precedes(u, v):
        raise ValueError(f"{u!r} does not precede {v!r}")
    p = dict(flow.p)
    p[u] = p[u] ^ p[v]
    return PauliFlowData(p, flow.order)


def switch_flow(graph: LabelledOpenGraph, flow: PauliFlowData, u: str,
                fset: FocussedSet) -> PauliFlowData:
    """Add a focussed set to p(u), extending the order past its support."""
    if u not in graph.measured:
        raise ValueError(f"{u!r} is not measured")
    affected = frozenset(fset) | graph.odd_neighbourhood(fset)
    for w in sorted(affected):
        if graph.labels.get(w) in PLANAR_LABELS:
            if w == u or flow.order.precedes(w, u):
                raise ValueError(f"switch at {u!r} blocked by planar vertex {w!r}")
    p = dict(flow.p)
    p[u] = p[u] ^ frozenset(fset)
    # planar vertices so their rotations stay ahead of u; outputs so the
    # ordering conditions (which count unlabelled vertices) stay satisfied
    extra = {
        (u, w) for w in affected
        if graph.labels.get(w) in PLANAR_LABELS or w in graph.outputs
    }
    return PauliFlowData(p, flow.order.extended(graph.vertices, extra))
