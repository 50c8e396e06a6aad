"""CLI subcommands, JSON schemas and round-trips."""

import json
import pathlib
from fractions import Fraction

import pytest

from pauliflow.cli import (
    SchemaError,
    dumps,
    parse_pattern_document,
    parse_pddag,
    pattern_document,
    pddag_json,
    run,
)
from tests.conftest import worked_example, worked_example_flow, worked_example_fset

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def worked_doc(**kwargs):
    return pattern_document(worked_example(**kwargs), worked_example_flow(),
                            [worked_example_fset()])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_round_trip_byte_stable():
    doc = worked_doc()
    text = dumps(doc)
    pattern, flow, fsets = parse_pattern_document(json.loads(text))
    again = dumps(pattern_document(pattern, flow, fsets))
    assert again == text


def test_schema_rejects_unknown_field():
    doc = worked_doc()
    doc["surprise"] = 1
    with pytest.raises(SchemaError) as err:
        parse_pattern_document(doc)
    assert "surprise" in str(err.value)


def test_schema_missing_label_path():
    doc = worked_doc()
    del doc["labels"]["b"]
    with pytest.raises(SchemaError) as err:
        parse_pattern_document(doc)
    assert err.value.path == "/labels/b"


def test_schema_rejects_paren_ids():
    doc = {
        "version": "1", "vertices": ["a(b"], "edges": [], "inputs": [],
        "outputs": ["a(b"], "labels": {}, "angles": {},
    }
    with pytest.raises(SchemaError):
        parse_pattern_document(doc)


def test_schema_zero_denominator():
    doc = worked_doc()
    doc["angles"]["i"] = {"num": 1, "den": 0}
    with pytest.raises(SchemaError) as err:
        parse_pattern_document(doc)
    assert err.value.path == "/angles/i"


def test_float_angle_snapping():
    doc = worked_doc()
    doc["angles"]["i"] = 0.25
    pattern, _, _ = parse_pattern_document(doc, float_angles=True)
    assert pattern.angles["i"] == F(1, 4)
    with pytest.raises(SchemaError):
        parse_pattern_document(doc)  # floats rejected without the flag


@pytest.mark.parametrize("angle", [{"num": True, "den": 2}, {"num": 1, "den": True}])
@pytest.mark.parametrize("float_angles", [False, True])
def test_schema_rejects_boolean_num_den(angle, float_angles):
    # {"num": true, "den": 2} used to extract as pi/2
    doc = worked_doc()
    doc["angles"]["i"] = angle
    with pytest.raises(SchemaError) as err:
        parse_pattern_document(doc, float_angles)
    assert err.value.path == "/angles/i"


@pytest.mark.parametrize("angle", [True, float("nan"), float("inf")])
def test_float_angles_reject_booleans_and_non_finite(tmp_path, capsys, angle):
    # true used to read as pi, NaN ended in exit 1 and Infinity in a traceback
    doc = worked_doc()
    doc["angles"]["i"] = angle
    path = write(tmp_path, "p.json", doc)
    assert schema_error_path(capsys, "--float-angles", "extract", path) == "/angles/i"


def test_schema_rejects_boolean_depth(tmp_path, capsys):
    # true read as depth 1, so this flow used to verify with exit 0
    fixture = FIXTURES / "measured-v0.json"
    doc = json.loads(fixture.read_text())
    doc["flow"] = {"p": doc["flow"]["p"], "depth": {"a": True, "c": 1, "i": 1}}
    path = write(tmp_path, "p.json", doc)
    assert schema_error_path(capsys, "flow", "verify", path) == "/flow/depth/a"
    doc["flow"]["depth"]["a"] = 1
    code, out, _ = run_cli(capsys, "flow", "verify", write(tmp_path, "p.json", doc))
    assert code == 0 and json.loads(out) == {"violations": []}


def test_flow_find_cli(tmp_path, capsys):
    doc = worked_doc()
    del doc["flow"]
    path = write(tmp_path, "p.json", doc)
    code, out, err = run_cli(capsys, "flow", "find", path)
    assert code == 0
    flow = json.loads(out)
    assert set(flow["p"]) == {"i", "a", "b", "c", "d"}
    assert flow["depth"]["o1"] == 0


def test_flow_verify_cli(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, _ = run_cli(capsys, "flow", "verify", path)
    assert code == 0 and json.loads(out) == {"violations": []}
    bad = worked_doc()
    bad["flow"]["p"]["b"] = []
    path = write(tmp_path, "bad.json", bad)
    code, out, _ = run_cli(capsys, "flow", "verify", path)
    assert code == 1
    assert {"vertex": "b", "condition": "PF4"} in json.loads(out)["violations"]


def test_flow_find_no_flow_exit_1(tmp_path, capsys):
    doc = {
        "version": "1",
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "inputs": [], "outputs": [],
        "labels": {"a": "XY", "b": "XY", "c": "XY"},
        "angles": {v: {"num": 1, "den": 4} for v in "abc"},
    }
    path = write(tmp_path, "noflow.json", doc)
    code, out, err = run_cli(capsys, "flow", "find", path)
    assert code == 1
    assert json.loads(err)["error"] == "no-pauli-flow"


def test_flow_focus_cli(tmp_path, capsys):
    doc = worked_doc()
    del doc["flow"]
    path = write(tmp_path, "p.json", doc)
    code, out, _ = run_cli(capsys, "flow", "focus", path)
    assert code == 0
    focussed = json.loads(out)
    from pauliflow.cli import parse_flow
    from pauliflow.flow import is_flow_focussed
    from tests.conftest import worked_example

    g = worked_example().graph
    flow = parse_flow(focussed, "/flow", sorted(g.vertices))
    assert is_flow_focussed(g, flow)


def test_fsets_cli(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, _ = run_cli(capsys, "fsets", path)
    assert code == 0
    assert json.loads(out) == {"fsets": [["c", "o2"]]}


def test_extract_synth_verify_pipeline(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, _ = run_cli(capsys, "extract", path)
    assert code == 0
    dag_doc = json.loads(out)
    assert len(dag_doc["nodes"]) == 4
    dag_path = write(tmp_path, "dag.json", dag_doc)

    code, out, _ = run_cli(capsys, "synth", dag_path, "--lower-exp")
    assert code == 0
    circ_doc = json.loads(out)
    assert all(g["gate"] != "EXP" for g in circ_doc["gates"])
    circ_path = write(tmp_path, "circ.json", circ_doc)

    code, out, _ = run_cli(capsys, "verify-equal", path, circ_path)
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run_cli(capsys, "verify-equal", path, dag_path)
    assert code == 0


def test_pddag_document_round_trip():
    from pauliflow.extract import extract_pddag

    dag = extract_pddag(worked_example(), worked_example_flow(), [worked_example_fset()])
    doc = pddag_json(dag)
    again = parse_pddag(json.loads(dumps(doc)))
    assert again.structurally_equal(dag)


def test_verify_equal_same_file(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, _ = run_cli(capsys, "verify-equal", path, path)
    assert code == 0


@pytest.mark.parametrize("name", ["worked-example", "measured-v0", "no-flow"])
def test_verify_equal_same_fixture_at_zero_tolerance(capsys, name):
    # a map divided by its own pivot used to leave a residual of ~3e-17,
    # so two identical files were "not equal" at --tol 0
    path = str(FIXTURES / f"{name}.json")
    code, out, _ = run_cli(capsys, "verify-equal", path, path, "--tol", "0")
    assert code == 0 and json.loads(out)["equal"] is True


def test_verify_equal_different(tmp_path, capsys):
    a = write(tmp_path, "a.json", worked_doc())
    other = worked_doc(alpha_i=F(1, 3))
    b = write(tmp_path, "b.json", other)
    code, out, _ = run_cli(capsys, "verify-equal", a, b)
    assert code == 1 and json.loads(out)["equal"] is False


def test_verify_equal_over_cap_is_not_a_negative_result(tmp_path, capsys, monkeypatch):
    # exit 1 means "not equal"; a map the oracle cannot build is exit 2
    monkeypatch.delenv("PAULIFLOW_MAX_QUBITS", raising=False)
    code, out, _ = run_cli(capsys, "gen", "--vertices", "20", "--seed", "0")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "verify-equal", str(path), str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "cap", "message": "20 qubits exceeds cap 14"}


def test_verify_equal_rejects_out_of_range_qubit(tmp_path, capsys):
    # a CX on a wire the circuit does not have used to compare "equal" to
    # the empty circuit
    bad = write(tmp_path, "bad.json",
                {"wires": 2, "gates": [{"gate": "CX", "qubits": [0, 5]}]})
    empty = write(tmp_path, "empty.json", {"wires": 2, "gates": []})
    code, out, err = run_cli(capsys, "verify-equal", bad, empty)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "schema" and error["path"] == "/gates/0/qubits"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_equal_rejects_bad_tolerance(tmp_path, capsys, tol):
    # -1 used to exit 1 ("not equal"), nan to print "tol": NaN, which is
    # not JSON, and inf to call any two maps equal
    path = write(tmp_path, "p.json", worked_doc())
    assert schema_error_path(capsys, "verify-equal", path, path, "--tol", tol) == "--tol"


def test_verify_equal_rejects_non_integer_qubit_cap(tmp_path, capsys, monkeypatch):
    # "could not check" used to exit 1, which reads as "not equal"
    monkeypatch.setenv("PAULIFLOW_MAX_QUBITS", "abc")
    path = write(tmp_path, "p.json", worked_doc())
    assert schema_error_path(capsys, "verify-equal", path, path) == "PAULIFLOW_MAX_QUBITS"


@pytest.mark.parametrize("gates, path", [
    ([{"gate": "CX", "qubits": [1, 1]}], "/gates/0/qubits"),
    ([{"gate": "H", "qubits": [0, 1]}], "/gates/0/qubits"),
    ([{"gate": "CZ", "qubits": [0]}], "/gates/0/qubits"),
    ([{"gate": "X", "qubits": [-1]}], "/gates/0/qubits"),
    ([{"gate": "RZ", "qubits": [0]}], "/gates/0"),
    ([{"gate": "EXP", "qubits": [0], "angle": {"num": 1, "den": 4}, "string": 5}],
     "/gates/0/string"),
    ([{"gate": "EXP", "qubits": [0], "angle": {"num": 1, "den": 4}, "string": "Q(0)"}],
     "/gates/0/string"),
])
def test_parse_circuit_rejects_malformed_gates(gates, path):
    from pauliflow.cli import parse_circuit

    with pytest.raises(SchemaError) as err:
        parse_circuit({"wires": 2, "gates": gates})
    assert err.value.path == path


def test_rewrite_unknown_vertex_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, err = run_cli(capsys, "rewrite", "lc", path, "--at", "nosuch")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "schema" and error["path"] == "--at"


def test_rewrite_fset_index_out_of_range_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, err = run_cli(capsys, "rewrite", "switch", path, "--at", "b",
                             "--fset-index", "9")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "schema" and error["path"] == "--fset-index"


def schema_error_path(capsys, *argv):
    """Run the CLI, expect exit 2 with one schema error object; its path."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "schema"
    return error["path"]


def _depth_list(flow):
    del flow["order"]
    flow["depth"] = [1, 2]


def _depth_non_vertex(flow):
    del flow["order"]
    flow["depth"] = {"a": 1, "zzz": 7}


_MALFORMED_FLOWS = [
    ("depth-list", _depth_list, "/flow/depth"),
    ("p-list", lambda flow: flow.update(p=["a"]), "/flow/p"),
    ("order-int", lambda flow: flow.update(order=5), "/flow/order"),
    ("p-names-non-vertex", lambda flow: flow["p"].update(a=["zz"]), "/flow"),
    ("cyclic-order", lambda flow: flow["order"].append(["o1", "i"]), "/flow"),
    ("depth-names-non-vertex", _depth_non_vertex, "/flow/depth/zzz"),
    ("order-names-non-vertex", lambda flow: flow["order"].append(["zzz", "yyy"]),
     "/flow/order/13"),
    ("p-omits-measured", lambda flow: flow["p"].pop("a"), "/flow"),
]


# the flow verify cases keep their bare names; the rewrite cases add the command
@pytest.mark.parametrize("command, mutate, path", [
    pytest.param(command, mutate, path,
                 id=name if command[0] == "flow" else f"{name}-{'-'.join(command)}")
    for command in [("flow", "verify"), ("rewrite", "lc"), ("rewrite", "switch")]
    for name, mutate, path in _MALFORMED_FLOWS
])
def test_malformed_flow_exit_2(tmp_path, capsys, command, mutate, path):
    # each of these used to end in a traceback, in exit 1 "value" or, for
    # the non-vertices in the depth map or order, in exit 0; rewrite read
    # the correction sets before checking their shape (KeyError traceback)
    doc = worked_doc()
    mutate(doc["flow"])
    argv = [*command, write(tmp_path, "p.json", doc)]
    if command[0] == "rewrite":
        argv += ["--at", "c"]
    assert schema_error_path(capsys, *argv) == path


@pytest.mark.parametrize("field, value, path", [
    ("trailing", 5, "/trailing"),
    ("trailing", [{"qubit": ["o1"], "gate": "Z"}], "/trailing/0/qubit"),
    ("fsets", 3, "/fsets"),
    ("fsets", [], "/fsets"),
    ("fsets", [["zzz"]], "/fsets/0"),
    ("fsets", [["o1", "o2"]], "/fsets/0"),
    ("fsets", [["c", "d", "i", "o1"]], "/fsets/0"),
], ids=["int-trailing", "list-qubit", "int-fsets", "no-fsets", "non-vertex", "unfocussed",
        "input-member"])
@pytest.mark.parametrize("command", [("extract",), ("synth",), ("rewrite", "lc")])
def test_malformed_trailing_and_fsets_exit_2(tmp_path, capsys, field, value, path, command):
    # these used to end in a traceback, in exit 1, or (the unfocussed set)
    # in a circuit unequal to the pattern
    doc = worked_doc()
    doc[field] = value
    argv = [*command, write(tmp_path, "p.json", doc)]
    if command[0] == "rewrite":
        argv += ["--at", "a"]
    assert schema_error_path(capsys, *argv) == path


def _set_free_row(doc):
    doc["tableau"]["free"][0] = 3


def _commuting_rows(doc):
    row = doc["tableau"]["inputs"][0]
    row["x"] = row["z"]


@pytest.mark.parametrize("mutate, path", [
    (lambda doc: doc["nodes"][0].update(string=5), "/nodes/0/string"),
    (_set_free_row, "/tableau/free/0"),
    (lambda doc: doc["nodes"][0].update(string="Q(a)"), "/nodes/0/string"),
    (lambda doc: doc["nodes"][0].update(id=7), "/nodes/0/id"),
    (_commuting_rows, "/tableau"),
    (lambda doc: doc["nodes"][1].update(id=doc["nodes"][0]["id"]), "/nodes"),
    (lambda doc: doc["nodes"][0].update(string="iX(o1)"), "/nodes"),
], ids=["int-node-string", "int-free-row", "bad-letter", "int-node-id",
        "commuting-zx-rows", "duplicate-node-id", "imaginary-node"])
def test_malformed_pddag_exit_2(tmp_path, capsys, mutate, path):
    from pauliflow.extract import extract_pddag

    dag = extract_pddag(worked_example(), worked_example_flow(), [worked_example_fset()])
    doc = json.loads(dumps(pddag_json(dag)))
    mutate(doc)
    assert schema_error_path(capsys, "synth", write(tmp_path, "dag.json", doc)) == path


@pytest.mark.parametrize("command", ["synth", "verify-equal"])
def test_non_object_document_exit_2(tmp_path, capsys, command):
    path = str(tmp_path / "five.json")
    (tmp_path / "five.json").write_text("5\n")
    argv = [command, path] + ([path] if command == "verify-equal" else [])
    assert schema_error_path(capsys, *argv) == ""


def test_gen_zero_vertices_exit_2(capsys):
    assert schema_error_path(capsys, "gen", "--vertices", "0", "--seed", "1") == "--vertices"


def test_rewrite_cli(tmp_path, capsys):
    doc = worked_doc(alpha_c=F(1, 2))
    path = write(tmp_path, "p.json", doc)
    code, out, _ = run_cli(capsys, "rewrite", "relabel", path, "--at", "c")
    assert code == 0
    report = json.loads(out)
    assert report["consistent"] is True
    assert report["pattern_after"]["labels"]["c"] == "Y"

    code, out, _ = run_cli(capsys, "rewrite", "lc", path, "--at", "d")
    assert code == 0 and json.loads(out)["consistent"] is True

    code, out, _ = run_cli(capsys, "rewrite", "pivot", path, "--at", "a", "--with", "b")
    assert code == 0 and json.loads(out)["consistent"] is True

    code, out, _ = run_cli(capsys, "rewrite", "switch", path, "--at", "b")
    assert code == 0 and json.loads(out)["consistent"] is True


def test_rewrite_zelim_cli(tmp_path, capsys):
    doc = worked_doc(alpha_a=F(1))
    path = write(tmp_path, "p.json", doc)
    code, out, _ = run_cli(capsys, "rewrite", "zelim", path, "--at", "a")
    assert code == 0
    report = json.loads(out)
    assert "a" not in report["pattern_after"]["vertices"]


def test_gen_documents_round_trip_byte_stable():
    from pauliflow.cli import random_flowful_document

    for seed in range(5):
        doc = random_flowful_document(7, seed)
        text = dumps(doc)
        pattern, flow, fsets = parse_pattern_document(json.loads(text))
        assert dumps(pattern_document(pattern, flow, fsets)) == text


def test_gen_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--vertices", "6", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    pattern, flow, _ = parse_pattern_document(doc)
    from pauliflow.flow import verify_flow

    assert verify_flow(pattern.graph, flow) == []
    # determinism
    code, out2, _ = run_cli(capsys, "gen", "--vertices", "6", "--seed", "3")
    assert out2 == out


def test_usage_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "junk.json", {"version": "1"})
    code, out, err = run_cli(capsys, "flow", "find", path)
    assert code == 2
    assert json.loads(err)["error"] == "schema"


def test_table_format(tmp_path, capsys):
    path = write(tmp_path, "p.json", worked_doc())
    code, out, _ = run_cli(capsys, "--format", "table", "flow", "find", path)
    assert code == 0 and "vertex" in out
    code, out, _ = run_cli(capsys, "--format", "table", "fsets", path)
    assert code == 0 and "c,o2" in out


def test_shipped_fixtures_pipeline(tmp_path, capsys):
    for name in ("worked-example.json", "measured-v0.json"):
        src = str(FIXTURES / name)
        code, out, _ = run_cli(capsys, "extract", src)
        assert code == 0
        dag_path = write(tmp_path, "dag.json", json.loads(out))
        code, out, _ = run_cli(capsys, "synth", dag_path)
        assert code == 0
        circ_path = write(tmp_path, "circ.json", json.loads(out))
        code, out, _ = run_cli(capsys, "verify-equal", src, circ_path)
        assert code == 0, name
    code, _, err = run_cli(capsys, "flow", "find", str(FIXTURES / "no-flow.json"))
    assert code == 1 and json.loads(err)["error"] == "no-pauli-flow"


def test_dependent_fsets_exit_2(tmp_path, capsys):
    # the empty set is focussed but not independent; extraction used to
    # exit 1 with "free rows are dependent", a negative result
    doc = worked_doc()
    doc["fsets"] = [[]]
    for command in (("extract",), ("synth",), ("rewrite", "lc")):
        argv = [*command, write(tmp_path, "p.json", doc)]
        if command[0] == "rewrite":
            argv += ["--at", "a"]
        assert schema_error_path(capsys, *argv) == "/fsets"


def test_parse_fsets_rejects_dependent_sets():
    import random

    from pauliflow.cli import parse_fsets
    from pauliflow.flow import focussed_set_generators
    from tests.conftest import random_circuit_pattern, with_prepared_wires

    pattern = with_prepared_wires(random_circuit_pattern(random.Random(3), 3, 10), 2)
    g = pattern.graph
    a, b = focussed_set_generators(g)
    assert parse_fsets([sorted(a), sorted(a ^ b)], g) == [a, a ^ b]
    for sets in ([a, a], [a, frozenset()], [a ^ b, a ^ b]):
        with pytest.raises(SchemaError) as err:
            parse_fsets([sorted(s) for s in sets], g)
        assert err.value.path == "/fsets"
