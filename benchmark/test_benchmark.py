"""Tests of the benchmark itself, at small sizes.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmark -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from pauliflow import extract, pddag  # noqa: E402
from pauliflow.pddag import Gate, Pddag  # noqa: E402
from tracing import Tracer, Untraced, module_group  # noqa: E402

SMALL = {
    "compile-160": lambda: workloads.Compile(n_vertices=40, wires=4, batch=3, prefix=3),
    "rewrite-chain": lambda: workloads.RewriteChain(n_vertices=24, wires=4, starts=2,
                                                    chain_len=5, prefix=10),
    "verify-mixed": lambda: workloads.VerifyMixed(a_vertices=(6, 8), a_wires=(2, 3),
                                                  b_vertices=(10, 12), blocks=2,
                                                  prefix_blocks=1),
}


def small_pass(name, seed, tr=None):
    wl = SMALL[name]()
    tr = tr or Untraced()
    data = wl.build(seed, tr)
    return run.run_pass(wl, data, seed, tr, 0, wl.prefix)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_digest_and_counts(name):
    first, second = small_pass(name, 5), small_pass(name, 5)
    assert first.failed == 0 and second.failed == 0, first.errors + second.errors
    assert first.digest == second.digest
    assert first.prefix_counts == second.prefix_counts
    assert small_pass(name, 6).digest != first.digest


def test_traced_pass_matches_untraced_and_records_spans():
    tr = Tracer()
    traced = small_pass("rewrite-chain", 3, tr)
    assert traced.digest == small_pass("rewrite-chain", 3).digest
    names = {s.name for s in tr.spans}
    assert {"op", "cli.parse", "cli.emit", "rewrite.lc", "flow.find"} <= names
    assert all(s.end >= s.start for s in tr.spans)
    assert sum(tr.self_seconds().values()) == pytest.approx(
        sum(s.seconds for s in tr.spans if s.parent is None))


def test_wrong_pddag_is_counted_as_failed(monkeypatch):
    real = extract.extract_pddag
    calls = []

    def drop_first_node(*args, **kwargs):
        dag = real(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            return dag
        nodes = {k: v for k, v in dag.nodes.items() if k != dag.node_ids[0]}
        return Pddag(dag.tableau, dag.node_ids[1:], nodes)

    monkeypatch.setattr(extract, "extract_pddag", drop_first_node)
    res = small_pass("compile-160", 5)
    assert res.failed == 1 and len(res.seconds) == 3


def test_wrong_circuits_are_counted_as_failed(monkeypatch):
    real = pddag.synthesize

    def extra_hadamard(dag, lower_exp=False):
        circuit = real(dag, lower_exp=lower_exp)
        return replace(circuit, gates=circuit.gates + (Gate("H", (0,)),))

    monkeypatch.setattr(pddag, "synthesize", extra_hadamard)
    res = small_pass("verify-mixed", 5)
    assert res.failed > 0
    metrics, details = run.end_to_end(res, len(res.seconds), 1.0, res.speed)
    assert details["failed_share"] > 0 and metrics["ok_share"][0] < 1


def test_result_lines_carry_exactly_the_declared_metrics(monkeypatch):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "GROWTH_SIZES", (20, 40))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = run.measure("verify-mixed", 2, 0, trace, SMALL["verify-mixed"]())
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "compile-160", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tail_and_profile_groups():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([1.0, 2.0, 3.0, 4.0]) == (3.0, 75.0)
    assert module_group("/x/src/pauliflow/flow.py") == "flow"
    assert module_group("/usr/lib/python3/fractions.py") == "fractions"
    assert module_group("/site-packages/numpy/linalg/_linalg.py") == "numpy"
    assert module_group("~") is None
