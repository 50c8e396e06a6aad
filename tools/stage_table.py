"""Per-stage wall times of the compile pipeline, as a Markdown table.

For ``sized_circuit_pattern(n, n // 10, seed=n)`` (tests/conftest.py) at
n = 80, 160 and 320 (with ``--large``, also 640 and 1280) it times, best
of 3, each stage on its own:

- find: ``find_pauli_flow``;
- focus: ``focus_flow`` of the found flow;
- fsets: ``focussed_set_generators``;
- extract: ``extract_pddag`` given the focussed flow and the sets;
- hasse: ``Pddag.hasse`` on a fresh copy of the extracted Pddag;
- synth: ``synthesize(dag, lower_exp=True)``;
- emit: ``dumps(pddag_json(dag))`` plus ``dumps(circuit_json(circuit))`` of
  that Pddag and circuit, the output path of a compile (the Pddag's Hasse
  diagram is cached after the first run);
- doc: ``parse_pattern_document`` of a loaded pattern document plus
  ``dumps(pattern_document(...))``, for the pattern with one input
  prepared instead, its focussed set and its focussed flow after one
  ``switch_flow``, which has no depth map, so the document lists the closed
  order pair by pair (the document I/O of a rewrite chain);
- verify: ``verify_flow`` of the focussed flow;
- lc: ``local_complement_pattern`` at the first measured non-input vertex,
  given the focussed flow and the sets;
- pivot: ``pivot_pattern`` about the first edge between measured non-input
  vertices, given the focussed flow and the sets.

It then prints each stage's growth exponent, the least-squares slope of
log time against log n over 80 -> 320, and with ``--large`` also over
320 -> 1280.  Run it from the root of a checkout:

    python tools/stage_table.py [--large]
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from pauliflow.cli import (  # noqa: E402
    circuit_json, dumps, parse_pattern_document, pattern_document, pddag_json)
from pauliflow.extract import extract_pddag  # noqa: E402
from pauliflow.flow import (  # noqa: E402
    find_pauli_flow, focus_flow, focussed_set_generators, switch_flow, verify_flow)
from pauliflow.pddag import Pddag, synthesize  # noqa: E402
from pauliflow.rewrite import local_complement_pattern, pivot_pattern  # noqa: E402
from tests.conftest import sized_circuit_pattern, with_prepared_wires  # noqa: E402

STAGES = ("find", "focus", "fsets", "extract", "hasse", "synth", "emit", "doc", "verify",
          "lc", "pivot")
SIZES = (80, 160, 320)
LARGE_SIZES = (640, 1280)


def _best(call: Callable[[], object], repeats: int):
    """(best wall time in seconds, result of the last call)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


def stage_times(n: int, repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` seconds per stage for the size-n pattern."""
    pattern = sized_circuit_pattern(n, n // 10, seed=n)
    g = pattern.graph
    times = {}
    times["find"], found = _best(lambda: find_pauli_flow(g), repeats)
    times["focus"], focussed = _best(lambda: focus_flow(g, found), repeats)
    times["fsets"], fsets = _best(lambda: focussed_set_generators(g), repeats)
    times["extract"], dag = _best(lambda: extract_pddag(pattern, focussed, fsets), repeats)
    fresh = [Pddag(dag.tableau, dag.node_ids, dag.nodes) for _ in range(repeats)]
    times["hasse"], _ = _best(lambda: fresh.pop().hasse(), repeats)
    times["synth"], circuit = _best(lambda: synthesize(dag, lower_exp=True), repeats)
    times["emit"], _ = _best(
        lambda: dumps(pddag_json(dag)) + dumps(circuit_json(circuit)), repeats)
    times["doc"], _ = _best(_document_io(pattern), repeats)
    times["verify"], _ = _best(lambda: verify_flow(g, focussed), repeats)
    inner = g.measured - g.inputs
    u = sorted(inner)[0]
    times["lc"], _ = _best(
        lambda: local_complement_pattern(pattern, focussed, fsets, u, 1), repeats)
    edge = next(e for e in sorted(g.edges) if inner.issuperset(e))
    times["pivot"], _ = _best(lambda: pivot_pattern(pattern, focussed, fsets, *edge), repeats)
    return times


def _document_io(pattern) -> Callable[[], object]:
    """The doc stage's call: read and write the document of the pattern with
    one input prepared, its focussed set and its focussed flow switched at
    the first measured vertex a switch by that set is not blocked at."""
    prepared = with_prepared_wires(pattern, 1)
    g = prepared.graph
    flow = focus_flow(g, find_pauli_flow(g))
    fsets = focussed_set_generators(g)
    for u in sorted(g.measured):
        try:
            switched = switch_flow(g, flow, u, fsets[0])
        except ValueError:  # blocked by a planar vertex
            continue
        break
    doc = json.loads(dumps(pattern_document(prepared, switched, fsets)))
    return lambda: (parse_pattern_document(doc),
                    dumps(pattern_document(prepared, switched, fsets)))


def growth_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def sizes(argv=None) -> Tuple[int, ...]:
    """The sizes the command line asks for."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--large", action="store_true",
                        help=f"also time n = {' and '.join(map(str, LARGE_SIZES))}")
    return SIZES + LARGE_SIZES if parser.parse_args(argv).large else SIZES


def main(argv=None) -> None:
    ns = sizes(argv)
    rows = {n: stage_times(n) for n in ns}
    print("| n | " + " | ".join(STAGES) + " |")
    print("| --- " * (len(STAGES) + 1) + "|")
    for n in ns:
        print(f"| {n} | " + " | ".join(f"{rows[n][s]:.4f}" for s in STAGES) + " |")
    spans = [SIZES] if ns == SIZES else [SIZES, (SIZES[-1],) + LARGE_SIZES]
    for span in spans:
        print()
        print(f"growth exponent over {span[0]} -> {span[-1]}:")
        for s in STAGES:
            print(f"  {s}: {growth_exponent(span, [rows[n][s] for n in span]):.2f}")


if __name__ == "__main__":
    main()
