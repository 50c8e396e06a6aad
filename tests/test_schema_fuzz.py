"""Schema fuzzing: one field of a valid document gets a value of the wrong
JSON type, and the CLI must answer with a documented outcome.

The pattern, Pddag and circuit documents of the worked example are mutated
at one path each; ``cli.run`` then runs in-process on ``extract``,
``synth``, ``rewrite lc`` and ``verify-equal``.  Every run must exit 0, 1
or 2, write either nothing or exactly one JSON object to stderr (always one
on exit 2), and raise nothing.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.cli import circuit_json, dumps, pddag_json, run
from pauliflow.extract import extract_pddag
from pauliflow.pddag import synthesize
from tests.test_cli import worked_doc
from tests.conftest import worked_example, worked_example_flow, worked_example_fset

VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    "float": st.floats(-4, 4, allow_nan=False),
    "str": st.sampled_from(["", "a", "o1", "X(o1)", "t:0"]) | st.text(max_size=3),
    "list": st.lists(st.sampled_from([0, 1, "a", "o1", None]), max_size=3),
    "object": st.dictionaries(st.sampled_from(["a", "num", "den", "id"]),
                              st.integers(0, 2), max_size=2),
}

COMMANDS = {
    "pattern": [("extract", "{}"), ("synth", "{}"), ("rewrite", "lc", "{}", "--at", "a"),
                ("verify-equal", "{}", "{}")],
    "pddag": [("synth", "{}"), ("verify-equal", "{}", "{}")],
    "circuit": [("verify-equal", "{}", "{}")],
}


def json_type(value) -> str:
    if value is None:
        return "null"
    return {bool: "bool", int: "int", float: "float", str: "str",
            list: "list", dict: "object"}[type(value)]


def paths(obj, prefix=()):
    """Every path below the root of a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@functools.lru_cache(maxsize=None)
def documents():
    pattern = worked_doc()
    pattern["trailing"] = [{"qubit": "o1", "gate": "RZ", "angle": {"num": 1, "den": 4}},
                           {"qubit": "o2", "gate": "H"}]
    dag = extract_pddag(worked_example(), worked_example_flow(), [worked_example_fset()])
    docs = {"pattern": pattern, "pddag": pddag_json(dag),
            "circuit": circuit_json(synthesize(dag))}
    return {kind: (json.loads(dumps(doc)), tuple(paths(doc))) for kind, doc in docs.items()}


@st.composite
def mutated_documents(draw):
    kind = draw(st.sampled_from(sorted(COMMANDS)))
    doc, doc_paths = documents()[kind]
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(doc_paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    wrong = [t for t in VALUES if t != json_type(parent[path[-1]])]
    parent[path[-1]] = draw(st.sampled_from(wrong).flatmap(VALUES.get))
    return kind, doc


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(mutated_documents())
def test_wrong_json_type_gives_a_documented_outcome(case):
    kind, doc = case
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "doc.json"
        path.write_text(dumps(doc), encoding="utf-8")
        for command in COMMANDS[kind]:
            argv = [a.format(path) for a in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), argv
            if code == 2 or err.getvalue():
                assert isinstance(json.loads(err.getvalue()), dict), (argv, err.getvalue())
