"""Seeded input generators for the benchmark.

Everything here depends only on the ``random.Random`` passed in, so one
seed always gives the same patterns and graphs.  Nothing is imported from
the test suite: the benchmark keeps its own generators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pauliflow.graph import ALL_LABELS, LabelledOpenGraph, MeasurementPattern

NON_CLIFFORD_DENOMINATORS = (3, 4, 5, 8)
PAULI_SHARE = 0.3  # of measured vertices, labelled X or Y
CLIFFORD_SHARE = 1 / 3  # of XY vertices, with a Clifford angle
CZ_PER_VERTEX = 0.5


def planar_angle(rng: random.Random, clifford: bool) -> Fraction:
    """A measurement angle in units of pi: a multiple of 1/2 when clifford,
    else one with denominator 3, 4, 5 or 8 that is not."""
    if clifford:
        return Fraction(rng.randrange(4), 2)
    den = rng.choice(NON_CLIFFORD_DENOMINATORS)
    while True:
        angle = Fraction(rng.randrange(1, 2 * den), den)
        if (angle * 2).denominator != 1:
            return angle


def circuit_pattern(rng: random.Random, n_vertices: int, wires: int,
                    prepared: int = 0) -> MeasurementPattern:
    """A pattern shaped like a translated circuit, with exactly n_vertices.

    Each wire is a path of vertices ending in an output, and wire lengths
    differ by at most one.  CZ edges join the current ends of two wires.
    The first ``prepared`` wires start from a prepared vertex instead of an
    input, so |O| - |I| = prepared.  PAULI_SHARE of the measured vertices
    are labelled X or Y, the rest XY; CLIFFORD_SHARE of the XY vertices have
    a Clifford angle.  The shares are exact, so patterns of one size differ
    only in where things are.  Wire successors give a causal flow, so
    every such pattern has a Pauli flow.
    """
    added = n_vertices - wires
    if not 0 <= prepared <= wires or added < wires:
        raise ValueError("need 0 <= prepared <= wires and two vertices per wire")
    moves = list(range(wires)) * (added // wires) + rng.sample(range(wires), added % wires)
    moves += [None] * round(added * CZ_PER_VERTEX)  # None: a CZ move
    rng.shuffle(moves)
    head = [f"q{w}x0" for w in range(wires)]
    vertices = list(head)
    edges = set()
    length = [0] * wires
    pairs = [(a, b) for a in range(wires) for b in range(a + 1, wires)]
    deck = []
    for w in moves:
        if w is None:
            # a CZ between two wire ends; pairs of wires come from a shuffled
            # deck, skipping pairs whose ends are already joined
            for _ in range(len(pairs)):
                if not deck:
                    deck = list(pairs)
                    rng.shuffle(deck)
                a, b = deck.pop()
                e = tuple(sorted((head[a], head[b])))
                if e not in edges:
                    edges.add(e)
                    break
            continue
        length[w] += 1
        nv = f"q{w}x{length[w]}"
        vertices.append(nv)
        edges.add((head[w], nv))
        head[w] = nv
    outputs = set(head)
    measured = [v for v in vertices if v not in outputs]
    pauli = set(rng.sample(measured, round(PAULI_SHARE * len(measured))))
    planar = [v for v in measured if v not in pauli]
    clifford = set(rng.sample(planar, round(CLIFFORD_SHARE * len(planar))))
    labels, angles = {}, {}
    for v in measured:
        if v in pauli:
            labels[v] = rng.choice(("X", "Y"))
            angles[v] = Fraction(rng.randrange(2))
        else:
            labels[v] = "XY"
            angles[v] = planar_angle(rng, v in clifford)
    inputs = [f"q{w}x0" for w in range(prepared, wires)]
    return MeasurementPattern.make(vertices, sorted(edges), inputs, head, labels, angles)


def labelled_graph(rng: random.Random, n_vertices: int) -> LabelledOpenGraph:
    """A random open graph labelled over all six labels; usually has no flow."""
    verts = [f"v{i}" for i in range(n_vertices)]
    p_edge = min(0.8, 2.5 / n_vertices)
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
             if rng.random() < p_edge]
    n_out = rng.randrange(1, n_vertices // 2 + 1)
    outputs = verts[-n_out:]
    n_in = rng.randrange(min(n_out, n_vertices - n_out) + 1)
    inputs = verts[:n_in]
    labels = {v: rng.choice(ALL_LABELS) for v in verts if v not in outputs}
    return LabelledOpenGraph.make(verts, edges, inputs, outputs, labels)

