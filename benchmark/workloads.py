"""The three benchmark workloads: inputs, one operation, and its checks.

Each workload builds its inputs from the seed (``build``), then hands out
operations one at a time (``next_op``).  An operation is a pair of
closures: ``op`` is the user's work and is the only part that is timed;
``check`` verifies its output and returns an ``Outcome``.  Every call into
pauliflow goes through the tracer, so a traced run sees each layer.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from pauliflow import cli, extract, flow, oracle, pddag, rewrite

import inputs

REWRITE_KINDS = ("relabel", "zelim", "lc", "pivot", "switch")


@dataclass
class Outcome:
    ok: bool
    docs: List[str] = field(default_factory=list)  # emitted documents, for the digest
    counts: Counter = field(default_factory=Counter)
    note: str = ""


Op = Tuple[Callable[[], object], Callable[[object], Outcome]]


def nonclifford_nodes(dag) -> int:
    return sum(1 for r in dag.nodes.values()
               if not r.is_identity() and (r.angle * 2).denominator != 1)


def circuit_counts(circuit) -> Counter:
    gates = [g for g in circuit.gates if g.name != "INIT0"]
    return Counter(cx=sum(1 for g in gates if g.name == "CX"), gates=len(gates))


def parse_text(text: str):
    return cli.parse_pattern_document(json.loads(text))


def hasse_probe(tr, dag) -> Counter:
    """Time the Pddag's Hasse diagram outside the operation (traced runs only)."""
    if not tr.enabled:
        return Counter()
    return Counter(hasse_edges=len(tr.call("pddag.hasse", dag.hasse)))


# -- compile-160 -----------------------------------------------------------------


class Compile:
    """A compiler user's batch: pattern document -> flow -> Pddag -> circuit."""

    def __init__(self, n_vertices=160, wires=16, batch=16, prefix=10):
        self.n_vertices, self.wires, self.batch, self.prefix = n_vertices, wires, batch, prefix

    def build(self, seed: int, tr) -> List[str]:
        rng = random.Random(seed)
        return [cli.dumps(cli.pattern_document(
                    inputs.circuit_pattern(rng, self.n_vertices, self.wires)))
                for _ in range(self.batch)]

    def start(self, docs, seed):
        return docs

    def next_op(self, docs, i: int, tr) -> Op:
        text = docs[i % len(docs)]

        def op():
            pattern, _, _ = tr.call("cli.parse", parse_text, text)
            g = pattern.graph
            found = tr.call("flow.find", flow.find_pauli_flow, g)
            if found is None:
                raise ValueError("circuit-shaped pattern has no flow")
            focussed = tr.call("flow.focus", flow.focus_flow, g, found)
            fsets = tr.call("flow.fsets", flow.focussed_set_generators, g)
            dag = tr.call("extract.pddag", extract.extract_pddag, pattern, focussed, fsets)
            circuit = tr.call("pddag.synth", pddag.synthesize, dag, lower_exp=True)
            docs_out = tr.call("cli.emit", lambda: [
                cli.dumps(cli.pddag_json(dag)), cli.dumps(cli.circuit_json(circuit))])
            return pattern, found, focussed, dag, circuit, docs_out

        def check(out) -> Outcome:
            pattern, found, focussed, dag, circuit, docs_out = out
            g = pattern.graph
            planar = sum(1 for v in g.measured if g.is_planar(v))
            ok = (tr.call("flow.verify", flow.verify_flow, g, focussed) == []
                  and tr.call("flow.is_focussed", flow.is_flow_focussed, g, focussed)
                  and len(dag.nodes) == planar)
            counts = circuit_counts(circuit) + Counter(
                nonclifford=nonclifford_nodes(dag), nodes=len(dag.nodes),
                found=1, find_calls=1, bytes=sum(len(d) for d in docs_out))
            counts["depth_max"] = max(found.order.depth.values())
            return Outcome(ok, docs_out, counts + hasse_probe(tr, dag))

        return op, check


# -- rewrite-chain -----------------------------------------------------------------


def applicable(pattern, flow_data, fsets) -> dict:
    """Targets of each rewrite kind that applies, in a deterministic order."""
    g = pattern.graph
    moves = {kind: [] for kind in REWRITE_KINDS}
    for v in sorted(g.measured):
        if g.is_planar(v) and (pattern.angles[v] * 2).denominator == 1:
            moves["relabel"].append(v)
        if g.labels[v] in ("XZ", "YZ", "Z") and pattern.angles[v] in (0, 1):
            moves["zelim"].append(v)
    moves["lc"] = sorted(g.vertices - g.inputs)
    moves["pivot"] = [e for e in sorted(g.edges) if not set(e) & g.inputs]
    for i, fs in enumerate(fsets):
        planar = [w for w in fs | g.odd_neighbourhood(fs) if g.is_planar(w)]
        for v in sorted(g.measured):
            if not any(w == v or flow_data.order.precedes(w, v) for w in planar):
                moves["switch"].append((v, i))
    return {k: v for k, v in moves.items() if v}


def emit_report(report):
    """The document ``pauliflow rewrite`` prints, as a dict and as text."""
    doc = {
        "pattern_after": cli.pattern_document(
            report.pattern_after, report.flow_after, report.fsets_after),
        "pddag_via_pattern": cli.pddag_json(report.pddag_via_pattern),
        "pddag_via_simulation": cli.pddag_json(report.pddag_via_simulation),
        "consistent": report.consistent,
    }
    return doc, cli.dumps(doc)


@dataclass
class ChainState:
    pool: list
    seed: int
    chain: int = -1
    step: int = 0
    rng: random.Random = None
    deck: list = None  # rewrite kinds this chain has not drawn yet
    current: tuple = None  # (text, pattern, flow, fsets)


class RewriteChain:
    """An optimiser chaining rewrites on CLI documents that carry a flow."""

    def __init__(self, n_vertices=80, wires=8, prepared=2, starts=6, chain_len=5, prefix=120):
        self.n_vertices, self.wires, self.prepared = n_vertices, wires, prepared
        self.starts, self.chain_len, self.prefix = starts, chain_len, prefix

    def build(self, seed: int, tr) -> list:
        rng = random.Random(seed)
        pool = []
        for _ in range(self.starts):
            pattern = inputs.circuit_pattern(rng, self.n_vertices, self.wires, self.prepared)
            g = pattern.graph
            found = tr.call("flow.find", flow.find_pauli_flow, g)
            focussed = tr.call("flow.focus", flow.focus_flow, g, found)
            fsets = tr.call("flow.fsets", flow.focussed_set_generators, g)
            text = cli.dumps(cli.pattern_document(pattern, focussed, fsets))
            pool.append((text, pattern, focussed, fsets))
        return pool

    def start(self, pool, seed) -> ChainState:
        return ChainState(pool, seed)

    def _restart(self, st: ChainState) -> None:
        st.chain += 1
        st.step = 0
        st.rng = random.Random(f"{st.seed}-chain-{st.chain}")
        st.deck = list(REWRITE_KINDS)
        st.rng.shuffle(st.deck)
        st.current = st.pool[st.chain % len(st.pool)]

    @staticmethod
    def _draw_kind(st: ChainState, moves: dict) -> str:
        """Draw kinds without replacement, so each chain applies every kind
        that applies once; when none left in the deck applies, draw freely."""
        for kind in st.deck:
            if kind in moves:
                st.deck.remove(kind)
                return kind
        return st.rng.choice(sorted(moves))

    def next_op(self, st: ChainState, i: int, tr) -> Op:
        if st.current is None or st.step >= self.chain_len:
            self._restart(st)
        text, pattern, flow_data, fsets = st.current
        moves = applicable(pattern, flow_data, fsets)
        if not moves:
            self._restart(st)
            return self.next_op(st, i, tr)
        st.step += 1
        kind = self._draw_kind(st, moves)
        target = st.rng.choice(moves[kind])
        direction = st.rng.choice((1, -1))

        def op():
            pat, fl, fs = tr.call("cli.parse", parse_text, text)
            name = f"rewrite.{kind}"
            if kind == "relabel":
                report = tr.call(name, rewrite.relabel_pauli, pat, fl, fs, target)
            elif kind == "zelim":
                report = tr.call(name, rewrite.eliminate_z, pat, fl, fs, target)
            elif kind == "lc":
                report = tr.call(name, rewrite.local_complement_pattern,
                                 pat, fl, fs, target, direction)
            elif kind == "pivot":
                report = tr.call(name, rewrite.pivot_pattern, pat, fl, fs, *target)
            else:
                v, k = target
                report = tr.call(name, rewrite.switch_flow_rewrite, pat, fl, fs, v, fs[k])
            return (report, *tr.call("cli.emit", emit_report, report))

        def check(out) -> Outcome:
            report, doc, text_out = out
            g2 = report.pattern_after.graph
            ok = (doc["consistent"]
                  and tr.call("flow.verify", flow.verify_flow, g2, report.flow_after) == []
                  and tr.call("flow.is_focussed", flow.is_flow_focussed, g2, report.flow_after))
            counts = Counter({f"rewrite.{kind}": 1, "consistent": int(doc["consistent"]),
                              "nodes": len(report.pddag_via_pattern.nodes),
                              "bytes": len(text_out)})
            if not ok:
                st.step = self.chain_len  # restart from a fresh pattern
                return Outcome(False, [text_out], counts, f"{kind} at {target}")
            st.current = (cli.dumps(doc["pattern_after"]), report.pattern_after,
                          report.flow_after, report.fsets_after)
            if st.step >= self.chain_len:
                # the optimiser's product: the circuit of the chain's last pattern
                dag = report.pddag_via_pattern
                circuit = tr.call("pddag.synth", pddag.synthesize, dag, lower_exp=True)
                counts += circuit_counts(circuit) + hasse_probe(tr, dag)
                counts["nonclifford"] += nonclifford_nodes(dag)
            return Outcome(True, [text_out], counts)

        return op, check


# -- verify-mixed -----------------------------------------------------------------


class VerifyMixed:
    """A verifier fed a seeded mix: small patterns checked against the dense
    oracle (kind a) and larger random graphs sent to flow finding (kind b)."""

    def __init__(self, a_vertices=(12, 18), a_wires=(2, 4), b_vertices=(40, 60),
                 blocks=12, prefix_blocks=6):
        self.a_sizes = [(n, w) for n in range(a_vertices[0], a_vertices[1] + 1)
                        for w in range(a_wires[0], a_wires[1] + 1)]
        self.b_sizes = list(range(b_vertices[0], b_vertices[1] + 1))
        self.blocks = blocks
        self.prefix = prefix_blocks * (len(self.a_sizes) + len(self.b_sizes))
        self.cap = a_vertices[1]

    def build(self, seed: int, tr) -> list:
        """Blocks holding every (a) size and every (b) size once, in seeded
        order, so each run sees the same mix of sizes."""
        rng = random.Random(seed)
        items = []
        for _ in range(self.blocks):
            block = [("a", s) for s in self.a_sizes] + [("b", n) for n in self.b_sizes]
            rng.shuffle(block)
            for kind, size in block:
                if kind == "a":
                    items.append(("a", inputs.circuit_pattern(rng, *size)))
                else:
                    items.append(("b", inputs.labelled_graph(rng, size)))
        return items

    def start(self, items, seed):
        return items

    def next_op(self, items, i: int, tr) -> Op:
        kind, item = items[i % len(items)]
        return self._oracle_op(item, tr) if kind == "a" else self._flow_op(item, tr)

    def _oracle_op(self, pattern, tr) -> Op:
        cap = self.cap

        def op():
            dag = tr.call("extract.pddag", extract.extract_pddag, pattern)
            circuit = tr.call("pddag.synth", pddag.synthesize, dag, lower_exp=True)
            want = tr.call("oracle.pattern", oracle.pattern_semantics, pattern, cap=cap)
            via_dag = tr.call("oracle.pddag", oracle.pddag_semantics, dag, cap=cap)
            via_circuit = tr.call("oracle.circuit", oracle.circuit_semantics, circuit, cap=cap)
            equal = (tr.call("oracle.compare", oracle.equal_up_to_phase, want, via_dag),
                     tr.call("oracle.compare", oracle.equal_up_to_phase, want, via_circuit))
            return dag, circuit, equal

        def check(out) -> Outcome:
            dag, circuit, equal = out
            verdict = cli.dumps({"equal": list(equal), "circuit": cli.circuit_json(circuit)})
            counts = circuit_counts(circuit) + Counter(
                nonclifford=nonclifford_nodes(dag), nodes=len(dag.nodes))
            return Outcome(all(equal), [verdict], counts + hasse_probe(tr, dag),
                           "" if all(equal) else "oracle maps differ")

        return op, check

    def _flow_op(self, graph, tr) -> Op:
        def op():
            return tr.call("flow.find", flow.find_pauli_flow_detailed, graph)

        def check(out) -> Outcome:
            found, stuck = out
            counts = Counter(find_calls=1)
            if found is not None:
                ok = tr.call("flow.verify", flow.verify_flow, graph, found) == []
                counts.update(found=1)
                counts["depth_max"] = max(found.order.depth.values())
            else:
                # a negative verdict has no certificate yet; count it
                ok = bool(stuck) and stuck <= graph.measured
                counts.update(negative=1)
            verdict = cli.dumps({"flow": found is not None, "stuck": sorted(stuck)})
            return Outcome(ok, [verdict], counts)

        return op, check


WORKLOADS = {
    "compile-160": Compile,
    "rewrite-chain": RewriteChain,
    "verify-mixed": VerifyMixed,
}
