"""Reference order queries, kept from the pair-set code the bit-mask
implementations replaced.

They are deliberately naive: a fixed-point transitive closure over a pair
set, the max-scan emission order (rescan every remaining vertex for one
with no remaining successor), the first-fit linearisation, and the
O(n^3) Pddag partial order and Hasse diagram built from pairwise
commutation tests.  The differential tests compare the library against
them; nothing in ``src/`` imports this module.
"""

from pauliflow.flow import FlowFormatError
from pauliflow.pauli import commutes


def transitive_closure(pairs):
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a in list(succ):
            new = set()
            for b in succ[a]:
                new |= succ.get(b, set())
            if not new <= succ[a]:
                succ[a] |= new
                changed = True
    return {(a, b) for a, bs in succ.items() for b in bs}


def closed_order(pairs):
    """Closure of the pairs; raises FlowFormatError on a cycle."""
    closed = transitive_closure(set(pairs))
    for a, b in closed:
        if a == b or (b, a) in closed:
            raise FlowFormatError(f"order has a cycle through {a!r}")
    return frozenset(closed)


def restrict(pairs, vertices):
    vs = set(vertices)
    return frozenset((a, b) for a, b in pairs if a in vs and b in vs)


def depth_pairs(depth, vertices):
    vs = list(vertices)
    return frozenset(
        (a, b) for a in vs for b in vs if depth.get(a, 0) > depth.get(b, 0))


def emission_order(pairs, vertices):
    """Latest-measured first, smallest id among the maximal ones."""
    remaining = set(vertices)
    out = []
    while remaining:
        maximal = sorted(
            v for v in remaining
            if not any((v, w) in pairs for w in remaining if w != v)
        )
        if not maximal:
            raise FlowFormatError("order is cyclic")
        out.append(maximal[0])
        remaining.remove(maximal[0])
    return out


def linearize(ids, pairs):
    """Topological order consistent with pairs, preferring the given order."""
    remaining = list(ids)
    out = []
    while remaining:
        pick = next(
            v for v in remaining
            if not any((w, v) in pairs for w in remaining if w != v)
        )
        out.append(pick)
        remaining.remove(pick)
    return tuple(out)


def pddag_partial_order(dag):
    """Closure of the anticommutation-forced orderings of a Pddag."""
    ids = dag.node_ids
    succ = {a: set() for a in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if not commutes(dag.nodes[a].string, dag.nodes[b].string):
                succ[a].add(b)
    for a in reversed(ids):
        for b in list(succ[a]):
            succ[a] |= succ[b]
    return frozenset((a, b) for a, bs in succ.items() for b in bs)


def hasse(ids, po):
    return frozenset(
        (a, b) for a, b in po
        if not any((a, c) in po and (c, b) in po for c in ids)
    )


def stabilizer_relinearized(dag, nid, string):
    """Node order of dag.stabilizer_rewrite_by_string(nid, string)."""
    from pauliflow.pauli import multiply

    new = multiply(dag.nodes[nid].string, string)
    po = pddag_partial_order(dag)
    extra = {
        (nid, x) for x in dag.node_ids
        if x != nid and (x, nid) not in po and (nid, x) not in po
        and not commutes(new, dag.nodes[x].string)
    }
    return linearize(dag.node_ids, po | extra)
