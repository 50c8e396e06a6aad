"""The CLI's JSON emitter writes exactly what ``json.dumps`` writes.

``cli.dumps`` has its own encoder for the document shapes; on any nesting
of dicts, lists, strings (quotes, backslashes, control and non-ASCII
characters included), ints of any size and sign, bools, None, floats and
tuples it must give the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.cli import dumps

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
