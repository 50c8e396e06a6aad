"""Labelled open graphs and measurement patterns.

A labelled open graph is a simple undirected graph with input/output
subsets (possibly overlapping) and a measurement label in
{XY, XZ, YZ, X, Y, Z} on every non-output vertex.  Together with an
angle map it forms a measurement pattern; single-qubit gates accumulated
on outputs by rewrites ride along as a trailing-gate list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .f2 import bits
from .pauli import angle_mod2

PLANAR_LABELS = ("XY", "XZ", "YZ")
PAULI_LABELS = ("X", "Y", "Z")
ALL_LABELS = PLANAR_LABELS + PAULI_LABELS

Edge = Tuple[str, str]


def edge(u: str, v: str) -> Edge:
    if u == v:
        raise ValueError(f"self-loop on {u!r}")
    return (u, v) if u < v else (v, u)


def complemented_among(edges: FrozenSet[Edge], vertices: Iterable[str]) -> FrozenSet[Edge]:
    """The edge set with the edges among the given vertices complemented."""
    vs = sorted(vertices)
    return edges ^ frozenset((a, b) for i, a in enumerate(vs) for b in vs[i + 1:])


@dataclass(frozen=True)
class LabelledOpenGraph:
    vertices: FrozenSet[str]
    edges: FrozenSet[Edge]
    inputs: FrozenSet[str]
    outputs: FrozenSet[str]
    labels: Mapping[str, str]

    def __post_init__(self):
        for e in self.edges:
            if e != edge(*e) or not set(e) <= self.vertices:
                raise ValueError(f"bad edge {e!r}")
        if not self.inputs <= self.vertices or not self.outputs <= self.vertices:
            raise ValueError("inputs/outputs must be vertices")
        for v in self.measured:
            if self.labels.get(v) not in ALL_LABELS:
                raise ValueError(f"measured vertex {v!r} needs a label")
        for v in self.labels:
            if v in self.outputs:
                raise ValueError(f"output {v!r} must not carry a label")

    @classmethod
    def make(cls, vertices: Iterable[str], edges: Iterable[Sequence[str]],
             inputs: Iterable[str], outputs: Iterable[str],
             labels: Mapping[str, str]) -> "LabelledOpenGraph":
        return cls(
            frozenset(vertices),
            frozenset(edge(u, v) for u, v in edges),
            frozenset(inputs),
            frozenset(outputs),
            dict(labels),
        )

    # -- basic queries ---------------------------------------------------

    @property
    def measured(self) -> FrozenSet[str]:
        """Non-output vertices (the measured ones)."""
        return self.vertices - self.outputs

    @property
    def prepared(self) -> FrozenSet[str]:
        """Non-input vertices."""
        return self.vertices - self.inputs

    @cached_property
    def bit_view(self) -> "BitView":
        """The graph as bit masks over its sorted vertex list, built once."""
        return BitView(self)

    def is_planar(self, v: str) -> bool:
        return self.labels.get(v) in PLANAR_LABELS

    def is_pauli(self, v: str) -> bool:
        return self.labels.get(v) in PAULI_LABELS

    def neighbours(self, v: str) -> FrozenSet[str]:
        return self.odd_neighbourhood((v,))

    def adjacent(self, u: str, v: str) -> bool:
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        return u in self.vertices and v in self.neighbours(u)

    def odd_neighbourhood(self, subset: Iterable[str]) -> FrozenSet[str]:
        """Vertices adjacent to an odd number of members of the subset."""
        return self.bit_view.unmask(self.bit_view.odd(self.bit_view.mask(subset)))

    # -- structural operations (pure) -------------------------------------

    def local_complement(self, u: str) -> "LabelledOpenGraph":
        """Complement the edges among u's neighbours; everything else fixed."""
        return replace(self, edges=complemented_among(self.edges, self.neighbours(u)))

    def pivot(self, u: str, v: str) -> "LabelledOpenGraph":
        """G * u * v * u for adjacent u, v."""
        if not self.adjacent(u, v):
            raise ValueError(f"{u!r} and {v!r} are not adjacent")
        return self.local_complement(u).local_complement(v).local_complement(u)

    def remove_vertex(self, u: str) -> "LabelledOpenGraph":
        if u in self.inputs or u in self.outputs:
            raise ValueError(f"{u!r} is an input or output")
        labels = {v: l for v, l in self.labels.items() if v != u}
        return LabelledOpenGraph(
            self.vertices - {u},
            frozenset(e for e in self.edges if u not in e),
            self.inputs,
            self.outputs,
            labels,
        )

    def relabel(self, v: str, label: str) -> "LabelledOpenGraph":
        if v in self.outputs:
            raise ValueError(f"{v!r} is an output")
        labels = dict(self.labels)
        labels[v] = label
        return replace(self, labels=labels)


class BitView:
    """A labelled open graph as bit masks.  ``verts`` lists the vertices,
    sorted, or as given together with other ids (no edges, no label);
    ``bit[verts[i]]`` is ``1 << i``, ``adj[i]`` masks the neighbours of
    ``verts[i]``, ``label[l]`` the vertices labelled l, ``outputs`` the
    outputs.  An odd neighbourhood is an XOR of adjacency masks, a label
    test an AND.  ``mask`` raises ``KeyError`` for an id not listed; the
    graph's queries still take and return frozensets of ids."""

    __slots__ = ("verts", "bit", "adj", "label", "outputs")

    def __init__(self, graph: LabelledOpenGraph, verts: Optional[Sequence[str]] = None):
        self.verts = tuple(sorted(graph.vertices) if verts is None else verts)
        self.bit = bit = {v: 1 << i for i, v in enumerate(self.verts)}
        self.adj = adj = [0] * len(self.verts)
        for a, b in graph.edges:
            adj[bit[a].bit_length() - 1] |= bit[b]
            adj[bit[b].bit_length() - 1] |= bit[a]
        self.label = dict.fromkeys(ALL_LABELS, 0)
        for v in graph.measured:
            self.label[graph.labels[v]] |= bit[v]
        self.outputs = self.mask(graph.outputs)

    def mask(self, vertices: Iterable[str]) -> int:
        return reduce(or_, map(self.bit.__getitem__, vertices), 0)

    def unmask(self, m: int) -> FrozenSet[str]:
        return frozenset(map(self.verts.__getitem__, bits(m)))

    def odd(self, m: int) -> int:
        """Mask of the odd neighbourhood of the set m (the hottest loop here)."""
        adj, out = self.adj, 0
        while m:
            low = m & -m
            out ^= adj[low.bit_length() - 1]
            m ^= low
        return out

    def around(self, v: str) -> int:
        """Mask of v's neighbours."""
        return self.adj[self.bit[v].bit_length() - 1]


@dataclass(frozen=True)
class TrailingGate:
    """A single-qubit gate applied to an output wire after the pattern."""

    qubit: str
    name: str  # Z | X | S | Sdg | H | RZ | RX
    angle: Optional[Fraction] = None  # units of pi, for RZ/RX


@dataclass(frozen=True)
class MeasurementPattern:
    graph: LabelledOpenGraph
    angles: Mapping[str, Fraction]  # units of pi, in [0, 2)
    trailing: Tuple[TrailingGate, ...] = ()

    def __post_init__(self):
        norm = {v: angle_mod2(a) for v, a in self.angles.items()}
        if set(norm) != set(self.graph.measured):
            raise ValueError("angles must be defined exactly on measured vertices")
        for v, a in norm.items():
            if self.graph.is_pauli(v) and a.denominator != 1:
                raise ValueError(f"Pauli-measured {v!r} needs an angle of 0 or pi")
        object.__setattr__(self, "angles", norm)
        for tg in self.trailing:
            if tg.qubit not in self.graph.outputs:
                raise ValueError(f"trailing gate on non-output {tg.qubit!r}")

    @classmethod
    def make(cls, vertices, edges, inputs, outputs, labels, angles,
             trailing=()) -> "MeasurementPattern":
        g = LabelledOpenGraph.make(vertices, edges, inputs, outputs, labels)
        return cls(g, dict(angles), tuple(trailing))

    def with_graph(self, graph: LabelledOpenGraph, angles=None, trailing=None) -> "MeasurementPattern":
        return MeasurementPattern(
            graph,
            dict(self.angles if angles is None else angles),
            self.trailing if trailing is None else tuple(trailing),
        )

    def pauli_pi_vertices(self) -> FrozenSet[str]:
        """Pauli-measured vertices whose angle is an odd multiple of pi."""
        return self._pauli_pi

    @cached_property
    def _pauli_pi(self) -> FrozenSet[str]:
        return frozenset(v for v in self.graph.measured
                         if self.graph.is_pauli(v) and self.angles[v] == 1)
