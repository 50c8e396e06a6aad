"""Command-line front end: JSON I/O for patterns, flows, Pddags and circuits.

Exit codes: 0 success, 1 negative result (no flow, failed verification,
inequivalent maps), 2 usage or parse errors, and also 2 with error kind
"cap" when ``verify-equal`` cannot check because a map is wider than the
dense oracle's qubit cap (``PAULIFLOW_MAX_QUBITS``).  Errors go to stderr
as a single JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional

from . import extract as extract_mod
from . import f2
from . import flow as flow_mod
from . import oracle as oracle_mod
from . import rewrite as rewrite_mod
from .graph import ALL_LABELS, LabelledOpenGraph, MeasurementPattern, TrailingGate
from .pauli import Rotation, parse_string
from .pddag import Circuit, Gate, GATE_NAMES, IsometryTableau, Pddag, synthesize

DOC_VERSION = "1"


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- fractions ----------------------------------------------------------------


def parse_angle(obj, path: str, float_angles: bool = False) -> Fraction:
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra:
            raise SchemaError(path, f"unknown angle fields {sorted(extra)}")
        if type(obj.get("num")) is not int or type(obj.get("den")) is not int:
            raise SchemaError(path, "angle needs integer num and den")
        if obj["den"] == 0:
            raise SchemaError(path, "angle denominator must not be zero")
        return Fraction(obj["num"], obj["den"])
    if type(obj) in (int, float) and float_angles and math.isfinite(obj):
        frac = Fraction(obj).limit_denominator(10 ** 6)
        if abs(frac - Fraction(obj)) > Fraction(1, 10 ** 12):
            raise SchemaError(path, f"{obj} is not close to a rational multiple of pi")
        return frac
    raise SchemaError(path, "angle must be {num, den}" + (" or a float" if float_angles else ""))


def angle_json(a: Fraction) -> Dict[str, int]:
    if type(a) is not Fraction:
        a = Fraction(a)
    return {"num": a.numerator, "den": a.denominator}


# -- pattern documents -----------------------------------------------------------


def _expect_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"{path}/{sorted(unknown)[0]}", "unknown field")
    missing = set(required) - set(obj)
    if missing:
        raise SchemaError(f"{path}/{sorted(missing)[0]}", "missing field")


def _str_list(obj, path):
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise SchemaError(path, "expected a list of strings")
    return obj


def parse_pattern_document(doc, float_angles: bool = False):
    """Parse and validate; returns (pattern, flow or None, fsets or None)."""
    _expect_keys(doc, ["version", "vertices", "edges", "inputs", "outputs",
                       "labels", "angles", "trailing", "flow", "fsets"],
                 ["version", "vertices", "edges", "inputs", "outputs",
                  "labels", "angles"], "")
    if doc["version"] != DOC_VERSION:
        raise SchemaError("/version", f"unsupported version {doc['version']!r}")
    vertices = _str_list(doc["vertices"], "/vertices")
    if len(set(vertices)) != len(vertices):
        raise SchemaError("/vertices", "duplicate vertex ids")
    for v in vertices:
        if v.startswith("t:"):
            raise SchemaError(f"/vertices/{v}", "ids starting with 't:' are reserved")
        if not v or any(ch in v for ch in "()") or v != v.strip():
            raise SchemaError(f"/vertices/{v}", "ids must be non-empty, without parentheses")
    vset = set(vertices)
    edges = []
    if not isinstance(doc["edges"], list):
        raise SchemaError("/edges", "expected a list")
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise SchemaError(f"/edges/{i}", "expected a pair of vertex ids")
        if e[0] == e[1] or e[0] not in vset or e[1] not in vset:
            raise SchemaError(f"/edges/{i}", f"bad edge {e}")
        edges.append((e[0], e[1]))
    for field in ("inputs", "outputs"):
        for v in _str_list(doc[field], f"/{field}"):
            if v not in vset:
                raise SchemaError(f"/{field}/{v}", "not a vertex")
    outputs = set(doc["outputs"])
    if not isinstance(doc["labels"], dict):
        raise SchemaError("/labels", "expected an object")
    labels = {}
    for v, lab in doc["labels"].items():
        if v not in vset:
            raise SchemaError(f"/labels/{v}", "not a vertex")
        if lab not in ALL_LABELS:
            raise SchemaError(f"/labels/{v}", f"bad label {lab!r}")
        labels[v] = lab
    for v in vset - outputs:
        if v not in labels:
            raise SchemaError(f"/labels/{v}", "measured vertex needs a label")
    if not isinstance(doc["angles"], dict):
        raise SchemaError("/angles", "expected an object")
    angles = {}
    for v, a in doc["angles"].items():
        if v not in vset - outputs:
            raise SchemaError(f"/angles/{v}", "angles only on measured vertices")
        angles[v] = parse_angle(a, f"/angles/{v}", float_angles)
    trailing = []
    if not isinstance(doc.get("trailing", []), list):
        raise SchemaError("/trailing", "expected a list")
    for i, tg in enumerate(doc.get("trailing", [])):
        _expect_keys(tg, ["qubit", "gate", "angle"], ["qubit", "gate"], f"/trailing/{i}")
        if not isinstance(tg["qubit"], str) or tg["qubit"] not in outputs:
            raise SchemaError(f"/trailing/{i}/qubit", "not an output")
        if tg["gate"] not in ("Z", "X", "S", "Sdg", "H", "RZ", "RX"):
            raise SchemaError(f"/trailing/{i}/gate", f"bad gate {tg['gate']!r}")
        angle = parse_angle(tg["angle"], f"/trailing/{i}/angle", float_angles) \
            if "angle" in tg else None
        if (tg["gate"] in ("RZ", "RX")) != (angle is not None):
            raise SchemaError(f"/trailing/{i}", "RZ/RX need an angle, others must not have one")
        trailing.append(TrailingGate(tg["qubit"], tg["gate"], angle))
    try:
        pattern = MeasurementPattern.make(
            vertices, edges, doc["inputs"], doc["outputs"], labels, angles, trailing)
    except ValueError as exc:
        raise SchemaError("", str(exc))

    flow = parse_flow(doc["flow"], "/flow", vertices) if "flow" in doc else None
    fsets = None
    if "fsets" in doc:
        fsets = parse_fsets(doc["fsets"], pattern.graph)
    return pattern, flow, fsets


def parse_fsets(obj, graph: LabelledOpenGraph) -> List[frozenset]:
    """Parse |O| - |I| independent focussed sets, focussed over the measured vertices."""
    expected = len(graph.outputs) - len(graph.inputs)
    if not isinstance(obj, list) or len(obj) != expected:
        raise SchemaError("/fsets", f"expected a list of |O| - |I| = {expected} sets")
    fsets = []
    for i, fs in enumerate(obj):
        members = frozenset(_str_list(fs, f"/fsets/{i}"))
        if not members <= graph.prepared:
            raise SchemaError(f"/fsets/{i}", "members must be non-input vertices")
        if not flow_mod.verify_focussed(graph, members, graph.measured):
            raise SchemaError(f"/fsets/{i}", "not focussed over the measured vertices")
        fsets.append(members)
    masks = [graph.bit_view.mask(fs) for fs in fsets]
    if f2.rank(masks) < len(masks):
        raise SchemaError("/fsets", "the sets are dependent over GF(2)")
    return fsets


def parse_flow(obj, path: str, vertices) -> flow_mod.PauliFlowData:
    """Parse a flow naming only the given vertices; those the depth map omits sit at 0."""
    _expect_keys(obj, ["p", "depth", "order"], ["p"], path)
    if ("depth" in obj) == ("order" in obj):
        raise SchemaError(path, "exactly one of depth/order required")
    for key, kind in (("p", dict), ("depth", dict), ("order", list)):
        if key in obj and not isinstance(obj[key], kind):
            raise SchemaError(f"{path}/{key}", f"expected {'a list' if kind is list else 'an object'}")
    p = {
        v: frozenset(_str_list(s, f"{path}/p/{v}"))
        for v, s in obj["p"].items()
    }
    vset = frozenset(vertices)
    if "depth" in obj:
        for v, d in obj["depth"].items():
            if type(d) is not int or d < 0:
                raise SchemaError(f"{path}/depth/{v}", "expected a non-negative integer")
            if v not in vset:
                raise SchemaError(f"{path}/depth/{v}", "not a vertex")
        order = flow_mod.FlowOrder.from_depth(obj["depth"], vertices)
    else:
        pairs = obj["order"]
        if _pair_member_types(pairs) not in ({str}, set()):  # find the first bad pair
            for i, pair in enumerate(pairs):
                if not isinstance(pair, list) or len(pair) != 2 \
                        or not all(isinstance(x, str) for x in pair):
                    raise SchemaError(f"{path}/order/{i}", "expected a pair")
        if not vset.issuperset(chain.from_iterable(pairs)):
            i = next(i for i, pair in enumerate(pairs) if not vset.issuperset(pair))
            raise SchemaError(f"{path}/order/{i}", "not a pair of vertices")
        order = flow_mod.FlowOrder.from_pairs(pairs)
    return flow_mod.PauliFlowData(p, order)


def pattern_document(pattern: MeasurementPattern,
                     flow: Optional[flow_mod.PauliFlowData] = None,
                     fsets=None) -> dict:
    g = pattern.graph
    doc = {
        "version": DOC_VERSION,
        "vertices": sorted(g.vertices),
        "edges": sorted([list(e) for e in g.edges]),
        "inputs": sorted(g.inputs),
        "outputs": sorted(g.outputs),
        "labels": {v: g.labels[v] for v in sorted(g.labels)},
        "angles": {v: angle_json(a) for v, a in sorted(pattern.angles.items())},
    }
    if pattern.trailing:
        doc["trailing"] = [
            {"qubit": tg.qubit, "gate": tg.name,
             **({"angle": angle_json(tg.angle)} if tg.angle is not None else {})}
            for tg in pattern.trailing
        ]
    if flow is not None:
        doc["flow"] = flow_json(flow, pattern.graph)
    if fsets is not None:
        doc["fsets"] = [sorted(fs) for fs in fsets]
    return doc


def flow_json(flow: flow_mod.PauliFlowData, graph: LabelledOpenGraph) -> dict:
    out = {"p": {v: sorted(s) for v, s in sorted(flow.p.items())}}
    if flow.order.depth is not None:
        out["depth"] = dict(sorted(flow.order.depth.items()))
    else:
        out["order"] = flow.order.pair_lists(graph.vertices)
    return out


# -- pddag and circuit documents ---------------------------------------------------


def pddag_json(dag: Pddag) -> dict:
    tab = dag.tableau
    order = list(dag.node_ids)
    index = {nid: i for i, nid in enumerate(order)}
    return {
        "tableau": {
            "outputs": list(tab.outputs),
            "inputs": [
                {"id": u, "z": tab.z_rows[u].format(tab.outputs),
                 "x": tab.x_rows[u].format(tab.outputs)}
                for u in tab.inputs
            ],
            "free": [r.format(tab.outputs) for r in tab.free_rows],
        },
        "nodes": [
            {"id": nid, "string": dag.nodes[nid].string.format(tab.outputs),
             "angle": angle_json(dag.nodes[nid].angle)}
            for nid in order
        ],
        "deps": sorted([index[a], index[b]] for a, b in dag.hasse()),
    }


def _pauli(text, path: str):
    if not isinstance(text, str):
        raise SchemaError(path, "expected a Pauli string")
    try:
        return parse_string(text)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def parse_pddag(doc) -> Pddag:
    """Parse and validate; a document the tableau or the Pddag rejects
    (commuting Z/X rows, duplicate node ids, ...) is a schema error."""
    _expect_keys(doc, ["tableau", "nodes", "deps"], ["tableau", "nodes"], "")
    tab = doc["tableau"]
    _expect_keys(tab, ["outputs", "inputs", "free"], ["outputs", "inputs", "free"],
                 "/tableau")
    outputs = _str_list(tab["outputs"], "/tableau/outputs")
    for key in ("inputs", "free"):
        if not isinstance(tab[key], list):
            raise SchemaError(f"/tableau/{key}", "expected a list")
    if not isinstance(doc["nodes"], list):
        raise SchemaError("/nodes", "expected a list")
    z_rows, x_rows, inputs = {}, {}, []
    for i, row in enumerate(tab["inputs"]):
        path = f"/tableau/inputs/{i}"
        _expect_keys(row, ["id", "z", "x"], ["id", "z", "x"], path)
        if not isinstance(row["id"], str):
            raise SchemaError(f"{path}/id", "expected a string")
        inputs.append(row["id"])
        z_rows[row["id"]] = _pauli(row["z"], f"{path}/z")
        x_rows[row["id"]] = _pauli(row["x"], f"{path}/x")
    free = tuple(_pauli(s, f"/tableau/free/{i}") for i, s in enumerate(tab["free"]))
    ids, rotations = [], []
    for i, node in enumerate(doc["nodes"]):
        _expect_keys(node, ["id", "string", "angle"], ["string", "angle"], f"/nodes/{i}")
        ids.append(node.get("id", f"n{i}"))
        if not isinstance(ids[-1], str):
            raise SchemaError(f"/nodes/{i}/id", "expected a string")
        rotations.append((_pauli(node["string"], f"/nodes/{i}/string"),
                          parse_angle(node["angle"], f"/nodes/{i}/angle")))
    try:
        tableau = IsometryTableau(tuple(inputs), tuple(outputs), z_rows, x_rows, free)
    except ValueError as exc:
        raise SchemaError("/tableau", str(exc))
    try:
        return Pddag(tableau, tuple(ids), {nid: Rotation(*r) for nid, r in zip(ids, rotations)})
    except ValueError as exc:
        raise SchemaError("/nodes", str(exc))


def circuit_json(circuit: Circuit) -> dict:
    """The circuit document.  Identical gates share one entry dict, so a
    caller that mutates the document must deep-copy it first."""
    entries, by_id = {}, {id(g): g for g in circuit.gates}  # one visit per Gate object
    for i, g in by_id.items():
        entry = entries.get(g)
        if entry is None:
            entry = entries[g] = {"gate": g.name, "qubits": list(g.qubits)}
            if g.angle is not None:
                entry["angle"] = angle_json(g.angle)
            if g.string is not None:
                entry["string"] = g.string.format(sorted(g.string.support))
        by_id[i] = entry
    return {"wires": circuit.n_wires, "gates": [by_id[id(g)] for g in circuit.gates]}


def parse_circuit(doc) -> Circuit:
    """Parse and validate: distinct wire indices in range, each gate's
    arity, and the angle and string a gate needs."""
    _expect_keys(doc, ["wires", "gates"], ["wires", "gates"], "")
    wires = doc["wires"]
    if type(wires) is not int or wires < 0 or not isinstance(doc["gates"], list):
        raise SchemaError("", "wires must be a non-negative integer and gates a list")
    gates = []
    for i, g in enumerate(doc["gates"]):
        path = f"/gates/{i}"
        _expect_keys(g, ["gate", "qubits", "angle", "string"], ["gate", "qubits"], path)
        name, qubits = g["gate"], g["qubits"]
        if name not in GATE_NAMES:
            raise SchemaError(f"{path}/gate", f"unknown gate {name!r}")
        arity = {"CZ": 2, "CX": 2, "EXP": None}.get(name, 1)
        if not isinstance(qubits, list) \
                or any(type(q) is not int or not 0 <= q < wires for q in qubits) \
                or len(set(qubits)) != len(qubits) or arity not in (None, len(qubits)):
            raise SchemaError(f"{path}/qubits", f"{name} needs {arity or 'its'} distinct "
                              f"wire indices in [0, {wires})")
        if name in ("RZ", "RX", "EXP") and "angle" not in g or name == "EXP" and "string" not in g:
            raise SchemaError(path, f"{name} lacks its angle or string")
        angle = parse_angle(g["angle"], f"{path}/angle") if "angle" in g else None
        string = None
        if "string" in g:
            raw = _pauli(g["string"], f"{path}/string")
            if not all(q.isdigit() and int(q) in qubits for q in raw.support):
                raise SchemaError(f"{path}/string", "string leaves the gate's wires")
            string = raw.relabelled({q: int(q) for q in raw.support})
        gates.append(Gate(name, tuple(qubits), angle, string))
    return Circuit(wires, tuple(gates))


def dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, byte for
    byte.  Dicts with str keys, lists and ``_LEAF`` types are written here
    (str by the C ``encode_basestring_ascii``, a list of one leaf type in one
    join, a list of two-item lists of one leaf type, such as edges and flow
    orders, in one join of the joined pairs); anything else (floats,
    tuples, non-str keys) by ``json.dumps``.  A dict listed again in the
    same list is encoded once."""
    return _encode(doc, "\n") + "\n"


_LEAF = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
         bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _pair_member_types(items: list) -> Optional[set]:
    """The types of the members of the items if every item is a two-item
    list, else None."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        return set(map(type, chain.from_iterable(items)))
    return None


def _encode(obj, nl: str) -> str:
    """obj as JSON text; nl is a newline plus the indent of obj's line."""
    kind = type(obj)
    if kind in _LEAF:
        return _LEAF[kind](obj)
    inner = nl + "  "
    if kind is dict and obj and set(map(type, obj)) == {str}:
        return "{" + inner + ("," + inner).join(
            [_LEAF[str](k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]) + nl + "}"
    if kind is list and obj:
        leaf = _LEAF.get(type(obj[0])) if len(set(map(type, obj))) == 1 else None
        members = None if leaf else _pair_member_types(obj)
        if members is not None and len(members) == 1 and members <= _LEAF.keys():
            return _encode_pairs(obj, _LEAF[members.pop()], inner, nl)
        body = (map(leaf, obj) if leaf else _encode_once(obj, inner) if type(obj[0]) is dict
                else [_encode(x, inner) for x in obj])
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def _encode_pairs(pairs: list, leaf, inner: str, nl: str) -> str:
    """_encode of a non-empty list of two-item lists whose members the
    leaf encoder writes; inner is nl indented once more."""
    deeper = inner + "  "
    texts = map(("," + deeper).join, zip(map(leaf, map(itemgetter(0), pairs)),
                                          map(leaf, map(itemgetter(1), pairs))))
    return ("[" + inner + "[" + deeper + (inner + "]," + inner + "[" + deeper).join(texts)
            + inner + "]" + nl + "]")


def _encode_once(items: list, nl: str) -> List[str]:
    """_encode of each item at indent nl, each distinct object (by id) once."""
    text = {id(x): x for x in items}
    text = {i: _encode(x, nl) for i, x in text.items()}
    return [text[id(x)] for x in items]


# -- subcommands --------------------------------------------------------------------


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("", "a document must be a JSON object")
    return doc


def _emit(doc) -> None:
    sys.stdout.write(dumps(doc))


def _need_flow(pattern, flow):
    if flow is not None:
        return flow
    found, stuck = flow_mod.find_pauli_flow_detailed(pattern.graph)
    if found is None:
        raise flow_mod.NoPauliFlowError(stuck)
    return found


def _flow_table(flow, graph) -> str:
    lines = ["vertex  label  p(v)"]
    for v in sorted(flow.p):
        lines.append(f"{v:7} {graph.labels.get(v, '-'):6} {','.join(sorted(flow.p[v]))}")
    return "\n".join(lines) + "\n"


def cmd_flow(args) -> int:
    pattern, flow, _ = parse_pattern_document(_load(args.file), args.float_angles)
    g = pattern.graph
    if args.action == "find":
        flow = _need_flow(pattern, None)
    elif args.action == "focus":
        flow = flow_mod.focus_flow(g, _need_flow(pattern, flow))
    else:  # verify
        if flow is None:
            raise SchemaError("/flow", "document carries no flow to verify")
        violations = flow_mod.verify_flow(g, flow)
        _emit({"violations": [{"vertex": v, "condition": c} for v, c in violations]})
        return 1 if violations else 0
    if args.format == "table":
        sys.stdout.write(_flow_table(flow, g))
    else:
        _emit(flow_json(flow, g))
    return 0


def cmd_fsets(args) -> int:
    pattern, _, _ = parse_pattern_document(_load(args.file), args.float_angles)
    gens = flow_mod.focussed_set_generators(pattern.graph)
    if args.format == "table":
        for i, fs in enumerate(gens):
            sys.stdout.write(f"{i}: {','.join(sorted(fs))}\n")
    else:
        _emit({"fsets": [sorted(fs) for fs in gens]})
    return 0


def cmd_extract(args) -> int:
    pattern, flow, fsets = parse_pattern_document(_load(args.file), args.float_angles)
    dag = extract_mod.extract_pddag(pattern, flow, fsets)
    _emit(pddag_json(dag))
    return 0


def cmd_synth(args) -> int:
    doc = _load(args.file)
    if "tableau" in doc:
        dag = parse_pddag(doc)
    else:
        pattern, flow, fsets = parse_pattern_document(doc, args.float_angles)
        dag = extract_mod.extract_pddag(pattern, flow, fsets)
    _emit(circuit_json(synthesize(dag, lower_exp=args.lower_exp)))
    return 0


def cmd_rewrite(args) -> int:
    pattern, flow, fsets = parse_pattern_document(_load(args.file), args.float_angles)
    flow = _need_flow(pattern, flow)
    if not flow_mod.is_flow_focussed(pattern.graph, flow):
        flow = flow_mod.focus_flow(pattern.graph, flow)
    if fsets is None:
        fsets = flow_mod.focussed_set_generators(pattern.graph)
    kind = args.kind
    vertices = pattern.graph.vertices
    if args.at not in vertices:
        raise SchemaError("--at", f"{args.at!r} is not a vertex")
    if kind == "pivot" and args.with_ is not None and args.with_ not in vertices:
        raise SchemaError("--with", f"{args.with_!r} is not a vertex")
    if kind == "switch" and not 0 <= args.fset_index < len(fsets):
        raise SchemaError("--fset-index", f"{args.fset_index} is not in [0, {len(fsets)})")
    if kind == "relabel":
        report = rewrite_mod.relabel_pauli(pattern, flow, fsets, args.at)
    elif kind == "zelim":
        report = rewrite_mod.eliminate_z(pattern, flow, fsets, args.at)
    elif kind == "lc":
        direction = 1 if args.dir == "+" else -1
        report = rewrite_mod.local_complement_pattern(pattern, flow, fsets,
                                                      args.at, direction)
    elif kind == "pivot":
        if args.with_ is None:
            raise SchemaError("", "pivot needs --with")
        report = rewrite_mod.pivot_pattern(pattern, flow, fsets, args.at, args.with_)
    else:  # switch
        fset = fsets[args.fset_index]
        report = rewrite_mod.switch_flow_rewrite(pattern, flow, fsets, args.at, fset)
    _emit({
        "pattern_after": pattern_document(
            report.pattern_after, report.flow_after, report.fsets_after),
        "pddag_via_pattern": pddag_json(report.pddag_via_pattern),
        "pddag_via_simulation": pddag_json(report.pddag_via_simulation),
        "consistent": report.consistent,
    })
    return 0 if report.consistent else 1


def _semantics_of(doc, float_angles):
    if "tableau" in doc:
        return oracle_mod.pddag_semantics(parse_pddag(doc))
    if "wires" in doc:
        return oracle_mod.circuit_semantics(parse_circuit(doc))
    pattern, _, _ = parse_pattern_document(doc, float_angles)
    return oracle_mod.pattern_semantics(pattern)


def cmd_verify_equal(args) -> int:
    if not math.isfinite(args.tol) or args.tol < 0:
        raise SchemaError("--tol", f"{args.tol} is not a finite non-negative number")
    try:
        oracle_mod.qubit_cap()
    except ValueError:
        raise SchemaError("PAULIFLOW_MAX_QUBITS", "expected an integer")
    a = _semantics_of(_load(args.a), args.float_angles)
    b = _semantics_of(_load(args.b), args.float_angles)
    equal = oracle_mod.equal_up_to_phase(a, b, args.tol)
    _emit({"equal": bool(equal), "tol": args.tol})
    return 0 if equal else 1


def random_flowful_document(n_vertices: int, seed: int, attempts: int = 20000) -> dict:
    """Rejection-sample labelled open graphs until one admits a Pauli flow."""
    rng = random.Random(seed)
    for _ in range(attempts):
        verts = [f"v{i}" for i in range(n_vertices)]
        p_edge = min(0.8, 2.5 / max(n_vertices, 2))
        edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
                 if rng.random() < p_edge]
        n_out = rng.randrange(1, max(2, n_vertices // 2 + 1))
        outputs = verts[-n_out:]
        n_in = rng.randrange(0, min(n_out, n_vertices - n_out) + 1)
        inputs = verts[:n_in]
        labels = {}
        angles = {}
        for v in verts:
            if v in outputs:
                continue
            labels[v] = rng.choice(("XY", "XY", "XY", "XZ", "YZ", "X", "Y", "Z"))
            if labels[v] in ("X", "Y", "Z"):
                angles[v] = Fraction(rng.choice((0, 1)))
            else:
                den = rng.choice((1, 2, 3, 4, 5, 8))
                angles[v] = Fraction(rng.randrange(0, 2 * den), den)
        try:
            graph = LabelledOpenGraph.make(verts, edges, inputs, outputs, labels)
        except ValueError:
            continue
        flow = flow_mod.find_pauli_flow(graph)
        if flow is None:
            continue
        pattern = MeasurementPattern(graph, angles)
        return pattern_document(pattern, flow)
    raise RuntimeError(f"no flowful graph found in {attempts} attempts")


def cmd_gen(args) -> int:
    if args.vertices < 1:
        raise SchemaError("--vertices", "need at least one vertex")
    _emit(random_flowful_document(args.vertices, args.seed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliflow",
        description="Pauli flow identification, circuit extraction and pattern rewriting",
    )
    parser.add_argument("--float-angles", action="store_true",
                        help="accept float angles (units of pi) and snap to rationals")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="find, focus or verify a Pauli flow")
    p_flow.add_argument("action", choices=["find", "focus", "verify"])
    p_flow.add_argument("file")
    p_flow.set_defaults(func=cmd_flow)

    p_fsets = sub.add_parser("fsets", help="focussed set generators")
    p_fsets.add_argument("file")
    p_fsets.set_defaults(func=cmd_fsets)

    p_extract = sub.add_parser("extract", help="pattern -> Pddag")
    p_extract.add_argument("file")
    p_extract.set_defaults(func=cmd_extract)

    p_synth = sub.add_parser("synth", help="Pddag (or pattern) -> circuit")
    p_synth.add_argument("file")
    p_synth.add_argument("--lower-exp", action="store_true",
                         help="lower EXP rotations to CX ladders")
    p_synth.set_defaults(func=cmd_synth)

    p_rw = sub.add_parser("rewrite", help="apply a pattern rewrite")
    p_rw.add_argument("kind", choices=["relabel", "zelim", "lc", "pivot", "switch"])
    p_rw.add_argument("file")
    p_rw.add_argument("--at", required=True, help="vertex to rewrite at")
    p_rw.add_argument("--with", dest="with_", default=None, help="second pivot vertex")
    p_rw.add_argument("--dir", choices=["+", "-"], default="+")
    p_rw.add_argument("--fset-index", type=int, default=0)
    p_rw.set_defaults(func=cmd_rewrite)

    p_eq = sub.add_parser("verify-equal", help="compare two artifacts up to scalar")
    p_eq.add_argument("a")
    p_eq.add_argument("b")
    p_eq.add_argument("--tol", type=float, default=1e-9)
    p_eq.set_defaults(func=cmd_verify_equal)

    p_gen = sub.add_parser("gen", help="rejection-sample a flowful pattern")
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except flow_mod.NoPauliFlowError as exc:
        error, code = {"error": "no-pauli-flow", "stuck": sorted(exc.stuck)}, 1
    except SchemaError as exc:
        error, code = {"error": "schema", "path": exc.path, "message": str(exc)}, 2
    except flow_mod.FlowFormatError as exc:
        error, code = {"error": "schema", "path": "/flow", "message": str(exc)}, 2
    except (OSError, json.JSONDecodeError) as exc:
        error, code = {"error": "io", "message": str(exc)}, 2
    except oracle_mod.QubitCapExceeded as exc:
        error, code = {"error": "cap", "message": str(exc)}, 2
    except ValueError as exc:
        error, code = {"error": "value", "message": str(exc)}, 1
    sys.stderr.write(dumps(error))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
