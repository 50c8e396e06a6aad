"""Golden CLI outputs: replay recorded invocations through ``cli.run``.

``tests/golden_cli.json`` lists command lines over ``fixtures/`` with the
sha256 of each one's stdout, stderr and exit code: every subcommand,
``--format table``, every rewrite kind at every vertex and edge (plus a
vertex the document lacks), ``gen`` seeds, and synth/verify-equal of the
extracted DAGs and synthesized circuits.  An argument ``out:K`` stands
for a file holding the stdout of case K.

Regenerate the file (only when an output change is intended) with::

    PYTHONPATH=src python -m tests.test_golden_cli
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from pauliflow.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
FIXTURES = ("worked-example", "measured-v0", "no-flow")
GEN_SIZES = (*range(1, 9), 12, 16, 20)
GEN_SEEDS = range(3)


def run_case(argv, outputs, scratch):
    """Run one case in-process; returns (stdout, exit code, digest)."""
    args = []
    for a in argv:
        if a.startswith("out:"):
            k = int(a[4:])
            path = Path(scratch) / f"out{k}.json"
            if not path.exists():
                path.write_text(outputs[k], encoding="utf-8")
            a = str(path)
        args.append(a)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    return out.getvalue(), code, hashlib.sha256(blob.encode()).hexdigest()


def record(scratch):
    """Build the case list, running each case as it is added."""
    cases, outputs = [], []

    def add(*argv):
        out, code, digest = run_case(argv, outputs, scratch)
        cases.append({"argv": list(argv), "sha256": digest})
        outputs.append(out)
        return len(cases) - 1 if code == 0 else None

    def derived(source):
        ext = add("extract", source)
        synth = add("synth", source)
        lowered = add("synth", source, "--lower-exp")
        if None in (ext, synth, lowered):
            return
        dag_synth = add("synth", f"out:{ext}")
        dag_lowered = add("synth", f"out:{ext}", "--lower-exp")
        pairs = [(source, f"out:{ext}"), (source, f"out:{synth}"),
                 (f"out:{ext}", f"out:{lowered}"), (f"out:{ext}", f"out:{dag_synth}"),
                 (f"out:{dag_lowered}", source)]
        for a, b in pairs:
            add("verify-equal", a, b)

    for name in FIXTURES:
        path = f"fixtures/{name}.json"
        doc = json.loads((ROOT / path).read_text(encoding="utf-8"))
        for fmt in ((), ("--format", "table")):
            for action in ("find", "focus", "verify"):
                add(*fmt, "flow", action, path)
            add(*fmt, "fsets", path)
        add("--float-angles", "flow", "find", path)
        derived(path)
        for v in doc["vertices"] + ["nosuch"]:
            for kind in ("relabel", "zelim"):
                add("rewrite", kind, path, "--at", v)
            for d in "+-":
                add("rewrite", "lc", path, "--at", v, "--dir", d)
            for k in range(3):
                add("rewrite", "switch", path, "--at", v, "--fset-index", str(k))
        for a, b in doc["edges"]:
            add("rewrite", "pivot", path, "--at", a, "--with", b)
            add("rewrite", "pivot", path, "--at", b, "--with", a)
        add("rewrite", "pivot", path, "--at", doc["vertices"][0], "--with", "nosuch")
        add("rewrite", "pivot", path, "--at", doc["vertices"][0])
    for n in GEN_SIZES:
        for seed in GEN_SEEDS:
            k = add("gen", "--vertices", str(n), "--seed", str(seed))
            if k is not None:
                derived(f"out:{k}")
    return cases


def test_golden_cli_outputs(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = []
    for k, case in enumerate(cases):
        out, _, digest = run_case(case["argv"], outputs, tmp_path)
        outputs.append(out)
        assert digest == case["sha256"], f"case {k} differs: pauliflow {' '.join(case['argv'])}"


if __name__ == "__main__":
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        recorded = record(scratch)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
