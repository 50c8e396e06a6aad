"""The CLI's JSON emitter writes exactly what ``json.dumps`` writes.

``cli.dumps`` has its own encoder for the document shapes; on any nesting
of dicts, lists, strings (quotes, backslashes, control and non-ASCII
characters included), ints of any size and sign, bools, None, floats and
tuples it must give the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline.  Lists of two-item lists of one leaf type
(edges, flow orders) have a path of their own, so they are drawn apart,
alone and mixed with other items.  ``dumps`` encodes a dict listed again in one
list once; hypothesis never draws shared objects, so the shared-identity
cases are written out, and ``circuit_json`` of a synthesized circuit, whose
identical gates share one entry dict, is checked at n = 160.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.cli import circuit_json, dumps
from pauliflow.extract import extract_pddag
from pauliflow.pddag import synthesize
from tests.conftest import sized_circuit_pattern

TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", " ",
                                              "\U0001f600", "\ud800", "id", ""])
LEAVES = (TEXT | st.integers() | st.integers(-10 ** 30, 10 ** 30) | st.booleans()
          | st.none() | st.floats())
DOCS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)
                   | st.tuples(inner, inner)),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(DOCS)
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_document_shapes():
    doc = {"b": [], "a": {}, "deps": [[0, 1], [1, 2]], "ids": ["x", "y"],
           "flag": True, "none": None, "nested": [{"k": [-1, 2 ** 70]}, "s"]}
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _same_as_json_dumps(doc):
    return dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dict_repeated_in_one_list():
    entry = {"gate": "H", "qubits": [0], "nested": {"k": [1, {"deep": None}]}}
    assert _same_as_json_dumps([entry, entry, entry])
    assert _same_as_json_dumps({"gates": [entry] * 5})


def test_dict_shared_across_depths():
    """One object at two indents: each list encodes it at its own depth."""
    entry = {"a": [1, 2], "b": {"c": "d"}}
    doc = {"top": [entry, entry], "deeper": {"list": [entry, {"x": [entry, entry]}]},
           "nested": [[entry], [entry, entry]], "alone": entry}
    assert _same_as_json_dumps(doc)
    assert _same_as_json_dumps([doc, doc, entry])


def test_shared_and_distinct_dicts_mixed():
    a, b = {"k": 1}, {"k": 2}
    equal_but_distinct = {"k": 1}
    items = [a, b, a, equal_but_distinct, {}, {}, b, a, "s", [a], None]
    assert _same_as_json_dumps(items)
    assert _same_as_json_dumps({"items": items, "again": items, "inner": [items, items]})


def test_circuit_entries_shared_per_distinct_gate():
    """synthesize builds each distinct H/S/Sdg/CX gate once and circuit_json
    gives each distinct gate one entry dict; dumps still writes the bytes of
    json.dumps."""
    dag = extract_pddag(sized_circuit_pattern(160, 16, seed=160))
    circuit = synthesize(dag, lower_exp=True)
    clifford = [g for g in circuit.gates if g.name in ("H", "S", "Sdg", "CX", "X", "Z")]
    assert len({id(g) for g in clifford}) == len(set(clifford))
    doc = circuit_json(circuit)
    distinct = len(set(circuit.gates))
    assert len({id(entry) for entry in doc["gates"]}) == distinct < len(circuit.gates) // 4
    assert _same_as_json_dumps(doc)


PAIR_MEMBERS = st.sampled_from([TEXT, st.integers(), st.booleans(), st.none()])
PAIR_LISTS = PAIR_MEMBERS.flatmap(
    lambda member: st.lists(st.lists(member, min_size=2, max_size=2), max_size=6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(PAIR_LISTS, st.lists(LEAVES | st.lists(LEAVES, max_size=3), max_size=2))
def test_pair_lists_match_json_dumps(pairs, others):
    """Lists of two-item lists of one leaf type take the pair path; mixed
    in with other items or nested, they do not, and the bytes stay the same."""
    assert _same_as_json_dumps(pairs)
    assert _same_as_json_dumps({"order": pairs, "edges": [pairs, pairs]})
    assert _same_as_json_dumps(pairs + others)
    assert _same_as_json_dumps(others + pairs)


def test_pair_lists_written_out():
    ids = ['a"b', "c\\d", "e\nf", "é", "\U0001f600", "\x00", "plain", ""]
    pairs = [[a, b] for a in ids for b in ids if a != b]
    assert _same_as_json_dumps(pairs)
    assert _same_as_json_dumps({"flow": {"order": pairs, "p": {}}, "edges": []})
    for mixed in ([["a", "b"], ["c", 1]], [["a", "b"], ["c", "d", "e"]],
                  [["a", "b"], [["c"], "d"]], [["a", "b"], "c"], [["a", "b"], []],
                  [["a", "b"], ("c", "d")], [[1, True]], [[1.5, 2.5]], [[None, None]],
                  [[[1, 2], [3, 4]]], [{"a": 1}, ["b", "c"]]):
        assert _same_as_json_dumps(mixed)
        assert _same_as_json_dumps({"k": [mixed, mixed]})
