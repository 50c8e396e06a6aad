"""Pattern rewrites: worked-example reproductions and random property sweeps.

Each rewrite is checked three ways: the rewritten pattern keeps its dense
semantics (trailing gates included), the updated flow stays valid and
focussed, and the Pddag extracted from the rewritten pattern equals the
Pddag obtained by replaying the rewrite as moves on the original Pddag.
"""

import random
from fractions import Fraction

import pytest

from pauliflow import extract as extract_mod
from pauliflow import flow as flow_mod
from pauliflow import graph as graph_mod
from pauliflow import rewrite as rewrite_mod
from pauliflow.extract import extract_pddag, extraction_string
from pauliflow.flow import (
    PauliFlowData,
    add_correction_sets,
    find_pauli_flow,
    focus_flow,
    focussed_set_generators,
    is_flow_focussed,
    verify_flow,
)
from pauliflow.graph import MeasurementPattern, TrailingGate
from pauliflow.oracle import equal_up_to_phase, pattern_semantics, pddag_semantics
from pauliflow.pauli import Rotation, from_letter_map, single
from pauliflow.pddag import Pddag
from pauliflow.rewrite import (
    eliminate_z,
    local_complement_pattern,
    pivot_pattern,
    relabel_pauli,
    switch_flow_rewrite,
)
from tests.conftest import (
    worked_example,
    worked_example_flow,
    worked_example_fset,
    random_flowful_pattern,
    sized_circuit_pattern,
)

F = Fraction
HALF = F(1, 2)


def sgn(k):
    return 1 if k % 2 == 0 else -1


def applied_semantics_match(pattern, report, tol=1e-9):
    return equal_up_to_phase(
        pattern_semantics(pattern), pattern_semantics(report.pattern_after), tol)


# -- relabelling a Clifford measurement as a Pauli ---------------------------------


@pytest.mark.parametrize("a_d", [0, 1])
def test_relabel_c_worked_example(a_d):
    pattern = worked_example(a_d=a_d, alpha_c=F(1, 2))
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    report = relabel_pauli(pattern, flow, fsets, "c")

    g2 = report.pattern_after.graph
    assert g2.labels["c"] == "Y"
    assert report.pattern_after.angles["c"] == 0
    assert report.flow_after.p == {
        "i": {"b", "o2"},
        "a": {"a", "c", "d", "o1", "o2"},
        "b": {"c", "d"},
        "c": {"o1"},
        "d": {"o2"},
    }
    assert report.fsets_after == (frozenset({"c", "o1", "o2"}),)
    assert verify_flow(g2, report.flow_after) == []
    assert is_flow_focussed(g2, report.flow_after)

    dag = report.pddag_via_simulation
    assert set(dag.node_ids) == {"i", "a", "b"}
    assert dag.nodes["i"].string == from_letter_map({"o2": "X"})
    # both routes give (-1)^a_d on the a node; the dense-oracle test below
    # confirms the opposite sign would change the map
    assert dag.nodes["a"].string == from_letter_map({"o1": "Y", "o2": "Y"}, sgn(a_d))
    assert dag.nodes["b"].string == from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d))
    tab = dag.tableau
    assert tab.x_rows["i"] == from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d))
    assert tab.z_rows["i"] == from_letter_map({"o2": "X"})
    assert tab.free_rows == (from_letter_map({"o1": "Y", "o2": "X"}),)
    assert dag.hasse() == {("i", "a"), ("i", "b")}

    assert report.consistent
    assert applied_semantics_match(pattern, report)
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(report.pattern_after), 1e-9)


def test_relabel_a_node_sign_oracle_confirmed():
    """Flipping the a node's sign would change the map; the produced sign
    is the one that reproduces the rewritten pattern's semantics."""
    pattern = worked_example(a_d=0, alpha_c=F(1, 2))
    report = relabel_pauli(pattern, worked_example_flow(),
                           [worked_example_fset()], "c")
    dag = report.pddag_via_simulation
    flipped_nodes = dict(dag.nodes)
    flipped_nodes["a"] = Rotation(-dag.nodes["a"].string, dag.nodes["a"].angle)
    flipped = Pddag(dag.tableau, dag.node_ids, flipped_nodes)
    want = pattern_semantics(report.pattern_after)
    assert equal_up_to_phase(pddag_semantics(dag), want, 1e-9)
    assert not equal_up_to_phase(pddag_semantics(flipped), want, 1e-9)


def test_relabel_angle_zero_flow_unchanged():
    pattern = worked_example(alpha_c=F(0))
    flow = worked_example_flow()
    report = relabel_pauli(pattern, flow, [worked_example_fset()], "c")
    assert report.pattern_after.graph.labels["c"] == "X"
    assert report.flow_after.p == dict(flow.p)
    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_relabel_table_exhaustive_oracle():
    """All 12 (plane, Clifford angle) relabelling cases preserve the map."""
    from pauliflow.rewrite import _RELABEL

    for plane in ("XY", "XZ", "YZ"):
        for alpha in (F(0), HALF, F(1), 3 * HALF):
            pattern = MeasurementPattern.make(
                ["u", "o"], [("u", "o")], [], ["o"], {"u": plane}, {"u": alpha})
            label, update = _RELABEL[(plane, 1 if alpha % 1 == HALF else 0)]
            pattern2 = MeasurementPattern(
                pattern.graph.relabel("u", label), {"u": update(alpha) % 2})
            assert equal_up_to_phase(
                pattern_semantics(pattern), pattern_semantics(pattern2), 1e-9
            ), (plane, alpha)


def test_zelim_angle_table_exhaustive_oracle():
    """Elimination angle updates for every neighbour label and both angles."""
    planar_angle = {"XY": F(1, 5), "XZ": F(1, 3), "YZ": F(2, 7)}
    for lu in ("XZ", "YZ", "Z"):
        for a in (0, 1):
            for lw in ("XY", "XZ", "YZ", "X", "Y", "Z"):
                aw = planar_angle.get(lw, F(1))
                pattern = MeasurementPattern.make(
                    ["u", "w", "o"], [("u", "w"), ("u", "o"), ("w", "o")],
                    [], ["o"], {"u": lu, "w": lw}, {"u": F(a), "w": aw})
                if lw in ("XY", "X", "Y"):
                    aw2 = (aw + a) % 2
                elif lw in ("XZ", "YZ"):
                    aw2 = (aw * (-1) ** a) % 2
                else:
                    aw2 = aw
                trailing = (TrailingGate("o", "Z"),) if a else ()
                pattern2 = MeasurementPattern.make(
                    ["w", "o"], [("w", "o")], [], ["o"], {"w": lw},
                    {"w": aw2}, trailing)
                assert equal_up_to_phase(
                    pattern_semantics(pattern), pattern_semantics(pattern2), 1e-9
                ), (lu, a, lw)


def test_relabel_rejects_bad_inputs(worked_pattern, worked_flow):
    with pytest.raises(ValueError):
        relabel_pauli(worked_pattern, worked_flow, [worked_example_fset()], "d")
    with pytest.raises(ValueError):  # pi/4 is not Clifford
        relabel_pauli(worked_pattern, worked_flow, [worked_example_fset()], "i")


# -- Z measurement elimination -----------------------------------------------------


@pytest.mark.parametrize("a_d", [0, 1])
def test_eliminate_a_worked_example(a_d):
    pattern = worked_example(a_d=a_d, alpha_a=F(1))
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    report = eliminate_z(pattern, flow, fsets, "a")

    p2 = report.pattern_after
    assert "a" not in p2.graph.vertices
    assert p2.angles["b"] == (pattern.angles["b"] + 1) % 2
    assert p2.angles["c"] == (pattern.angles["c"] + 1) % 2
    assert p2.angles["d"] == (pattern.angles["d"] + 1) % 2
    assert p2.trailing == ()  # a has no output neighbours
    assert report.fsets_after == (worked_example_fset(),)
    assert verify_flow(p2.graph, report.flow_after) == []

    # intermediate state: a's rotation pushed into the tableau
    base = extract_pddag(pattern, flow, fsets)
    step1 = base.push_clifford_front("a")
    assert step1.nodes["i"].string == -from_letter_map({"o2": "X"})
    assert step1.nodes["b"].string == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d + 1))
    assert step1.nodes["c"].string == from_letter_map({"o1": "X"})
    assert step1.tableau.x_rows["i"] == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d + 1))
    assert step1.tableau.z_rows["i"] == -from_letter_map({"o2": "X"})
    assert step1.tableau.free_rows[0] == -from_letter_map({"o1": "Z", "o2": "X"})

    dag = report.pddag_via_simulation
    assert set(dag.node_ids) == {"i", "b", "c"}
    assert dag.nodes["i"].string == from_letter_map({"o2": "X"})
    assert dag.nodes["i"].angle == pattern.angles["i"]
    assert dag.nodes["b"].string == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d))
    assert dag.nodes["b"].angle == (pattern.angles["b"] + 1) % 2
    assert dag.nodes["c"].string == from_letter_map({"o1": "X"})
    assert dag.nodes["c"].angle == (pattern.angles["c"] + 1) % 2
    tab = dag.tableau
    assert tab.x_rows["i"] == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d))
    assert tab.z_rows["i"] == from_letter_map({"o2": "X"})
    assert tab.free_rows == (from_letter_map({"o1": "Z", "o2": "X"}),)
    assert dag.hasse() == {("i", "b"), ("b", "c")}

    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_eliminate_z_label_angle_zero():
    pattern = MeasurementPattern.make(
        ["u", "m", "o"], [("u", "m"), ("m", "o")], [], ["o"],
        {"u": "Z", "m": "XY"}, {"u": 0, "m": F(1, 5)})
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    report = eliminate_z(pattern, flow, focussed_set_generators(g), "u")
    assert "u" not in report.pattern_after.graph.vertices
    assert report.pattern_after.angles["m"] == F(1, 5)
    assert report.pattern_after.trailing == ()
    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_eliminate_z_output_neighbour_trailing():
    pattern = MeasurementPattern.make(
        ["u", "o"], [("u", "o")], [], ["o"], {"u": "Z"}, {"u": 1})
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    report = eliminate_z(pattern, flow, focussed_set_generators(g), "u")
    assert report.pattern_after.trailing == (TrailingGate("o", "Z"),)
    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_eliminate_rejects_bad_inputs(worked_pattern, worked_flow):
    with pytest.raises(ValueError):
        eliminate_z(worked_pattern, worked_flow, [worked_example_fset()], "b")
    with pytest.raises(ValueError):  # YZ label but angle pi/3 rather than 0/pi
        eliminate_z(worked_pattern, worked_flow, [worked_example_fset()], "a")


# -- local complementation ----------------------------------------------------------


@pytest.mark.parametrize("a_d", [0, 1])
def test_local_complement_d_worked_example(a_d):
    pattern = worked_example(a_d=a_d)
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    report = local_complement_pattern(pattern, flow, fsets, "d")

    p2 = report.pattern_after
    g2 = p2.graph
    assert g2.labels == {"i": "XY", "a": "XZ", "b": "XY", "c": "XY", "d": "Z"}
    assert p2.angles["i"] == pattern.angles["i"]
    assert p2.angles["a"] == (-pattern.angles["a"]) % 2
    assert p2.angles["b"] == (pattern.angles["b"] + F(1, 2)) % 2
    assert p2.angles["c"] == (pattern.angles["c"] + F(1, 2)) % 2
    assert p2.angles["d"] == (pattern.angles["d"] + 1) % 2
    assert p2.trailing == (TrailingGate("o2", "RZ", F(-1, 2)),)
    assert report.flow_after.p == {
        "i": {"b", "c", "o2"},
        "a": {"a", "c", "o1", "o2"},
        "b": {"c"},
        "c": {"o1"},
        "d": {"d", "o2"},
    }
    assert report.fsets_after == (frozenset({"c", "o1", "o2"}),)
    assert verify_flow(g2, report.flow_after) == []
    assert is_flow_focussed(g2, report.flow_after)

    # step-by-step simulation states, checked one move at a time
    base = extract_pddag(pattern, flow, fsets)
    step1 = base.pull_to(Rotation(single("o2", "Z"), F(1, 2)), len(base.node_ids), "t:0")
    assert step1.nodes["i"].string == from_letter_map({"o2": "Y"})
    assert step1.nodes["a"].string == from_letter_map({"o1": "Z", "o2": "X"}, sgn(a_d + 1))
    assert step1.nodes["b"].string == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d + 1))
    assert step1.nodes["c"].string == from_letter_map({"o1": "X"})
    assert step1.nodes["t:0"] == Rotation(single("o2", "Z"), F(1, 2))
    assert step1.tableau.x_rows["i"] == from_letter_map({"o1": "Y", "o2": "Z"}, sgn(a_d + 1))
    assert step1.tableau.z_rows["i"] == from_letter_map({"o2": "Y"})
    assert step1.tableau.free_rows[0] == from_letter_map({"o1": "Z", "o2": "Y"})

    step2 = step1.pull_into(Rotation(from_letter_map({"o1": "X"}), F(1, 2)), "c")
    assert step2.nodes["a"].string == from_letter_map({"o1": "Y", "o2": "X"}, sgn(a_d))
    assert step2.nodes["b"].string == from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d + 1))
    assert step2.nodes["c"].angle == (pattern.angles["c"] + F(1, 2)) % 2
    assert step2.tableau.x_rows["i"] == from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d + 1))
    assert step2.tableau.free_rows[0] == -from_letter_map({"o1": "Y", "o2": "Y"})

    dag = report.pddag_via_simulation
    assert set(dag.node_ids) == {"i", "a", "b", "c", "t:0"}
    assert dag.nodes["i"].string == from_letter_map({"o1": "Z", "o2": "X"}, sgn(a_d))
    assert dag.nodes["a"].string == from_letter_map({"o1": "Y", "o2": "X"}, sgn(a_d))
    assert dag.nodes["a"].angle == pattern.angles["a"]
    assert dag.nodes["b"].string == from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d + 1))
    assert dag.nodes["b"].angle == (pattern.angles["b"] + F(1, 2)) % 2
    assert dag.nodes["c"] == Rotation(from_letter_map({"o1": "X"}),
                                      (pattern.angles["c"] + F(1, 2)) % 2)
    assert dag.nodes["t:0"] == Rotation(single("o2", "Z"), F(1, 2))
    tab = dag.tableau
    assert tab.x_rows["i"] == from_letter_map({"o1": "Z", "o2": "Z"}, sgn(a_d + 1))
    assert tab.z_rows["i"] == from_letter_map({"o1": "Z", "o2": "X"}, sgn(a_d))
    assert tab.free_rows == (-from_letter_map({"o1": "Y", "o2": "Y"}),)
    assert dag.hasse() == {
        ("i", "a"), ("i", "b"), ("a", "c"), ("a", "t:0"), ("b", "c")}

    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_local_complement_isolated_vertex():
    pattern = MeasurementPattern.make(
        ["u", "o"], [], [], ["o"], {"u": "Z"}, {"u": 0})
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    report = local_complement_pattern(pattern, flow, focussed_set_generators(g), "u")
    assert report.pattern_after.graph.labels["u"] == "Y"
    assert report.pattern_after.graph.edges == g.edges
    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_local_complement_directions_invert():
    pattern = worked_example()
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    fwd = local_complement_pattern(pattern, flow, fsets, "d", direction=1)
    back = local_complement_pattern(
        fwd.pattern_after, fwd.flow_after, fwd.fsets_after, "d", direction=-1)
    assert back.pattern_after.graph.edges == pattern.graph.edges
    assert back.pattern_after.graph.labels == pattern.graph.labels
    assert dict(back.pattern_after.angles) == dict(pattern.angles)
    assert applied_semantics_match(pattern, back)


def test_local_complement_rejects_input(worked_pattern, worked_flow):
    with pytest.raises(ValueError):
        local_complement_pattern(worked_pattern, worked_flow,
                                 [worked_example_fset()], "i")


def test_lc_minus_one_is_the_inverse_of_plus_one():
    """LC(-1) derived from the LC(+1) tables gives the values it was once
    tabulated with, and undoes LC(+1)."""
    from pauliflow.rewrite import _LC_CENTER, _LC_NEIGHBOUR, _lc_measurement

    angle = {"XY": F(1, 5), "XZ": F(1, 5), "YZ": F(1, 5), "X": F(1), "Y": F(1), "Z": F(1)}
    centre = {"XY": ("XZ", F(3, 10)), "XZ": ("XY", F(17, 10)), "YZ": ("YZ", F(17, 10)),
              "X": ("X", F(1)), "Y": ("Z", F(1)), "Z": ("Y", F(0))}
    neighbour = {"XY": ("XY", F(17, 10)), "XZ": ("YZ", F(9, 5)), "YZ": ("XZ", F(1, 5)),
                 "X": ("Y", F(0)), "Y": ("X", F(1)), "Z": ("Z", F(1))}
    for table, want in ((_LC_CENTER, centre), (_LC_NEIGHBOUR, neighbour)):
        for label, a in angle.items():
            new_label, new_angle = _lc_measurement(table, -1, label, a)
            assert (new_label, new_angle % 2) == want[label], label
            there = _lc_measurement(table, 1, label, a)
            back = _lc_measurement(table, -1, *there)
            assert (back[0], back[1] % 2) == (label, a % 2), label


def test_lc_label_tables_exhaustive_oracle():
    """Every (centre label, neighbour label, direction) case of the local
    complementation update tables preserves dense semantics, with the
    accompanying trailing gates on output neighbours."""
    from pauliflow.graph import LabelledOpenGraph
    from pauliflow.rewrite import _LC_CENTER, _LC_NEIGHBOUR, _lc_measurement

    planar_angle = {"XY": F(1, 5), "XZ": F(1, 3), "YZ": F(2, 7)}
    checked = 0
    for lu in ("XY", "XZ", "YZ", "X", "Y", "Z"):
        for lw in ("XY", "XZ", "YZ", "X", "Y", "Z"):
            for direction in (1, -1):
                au = planar_angle.get(lu, F(1))
                aw = planar_angle.get(lw, F(1))
                pattern = MeasurementPattern.make(
                    ["u", "w", "o"], [("u", "w"), ("u", "o")], [], ["o"],
                    {"u": lu, "w": lw}, {"u": au, "w": aw})
                g = pattern.graph
                new_label_u, new_au = _lc_measurement(_LC_CENTER, direction, lu, au)
                new_label_w, new_aw = _lc_measurement(_LC_NEIGHBOUR, direction, lw, aw)
                labels = {"u": new_label_u, "w": new_label_w}
                angles = {"u": new_au % 2, "w": new_aw % 2}
                graph2 = LabelledOpenGraph(
                    g.vertices, g.local_complement("u").edges, g.inputs,
                    g.outputs, labels)
                trailing = [TrailingGate("o", "RZ", -direction * HALF)]
                pattern2 = MeasurementPattern(graph2, angles, tuple(trailing))
                assert equal_up_to_phase(
                    pattern_semantics(pattern), pattern_semantics(pattern2), 1e-9
                ), (lu, lw, direction)
                checked += 1
    assert checked == 72


def test_lc_output_centre_exhaustive_oracle():
    """Local complementation about an output vertex: the RX trailing gate."""
    from pauliflow.graph import LabelledOpenGraph
    from pauliflow.rewrite import _LC_NEIGHBOUR, _lc_measurement

    planar_angle = {"XY": F(1, 5), "XZ": F(1, 3), "YZ": F(2, 7)}
    for lw in ("XY", "XZ", "YZ", "X", "Y", "Z"):
        for direction in (1, -1):
            aw = planar_angle.get(lw, F(1))
            pattern = MeasurementPattern.make(
                ["u", "w"], [("u", "w")], [], ["u"], {"w": lw}, {"w": aw})
            g = pattern.graph
            new_label_w, new_aw = _lc_measurement(_LC_NEIGHBOUR, direction, lw, aw)
            graph2 = LabelledOpenGraph(
                g.vertices, g.edges, g.inputs, g.outputs, {"w": new_label_w})
            pattern2 = MeasurementPattern(
                graph2, {"w": new_aw % 2},
                (TrailingGate("u", "RX", direction * HALF),))
            assert equal_up_to_phase(
                pattern_semantics(pattern), pattern_semantics(pattern2), 1e-9
            ), (lw, direction)


# -- pivot ---------------------------------------------------------------------------


def test_pivot_matches_direct_table():
    pattern = worked_example()
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    report = pivot_pattern(pattern, flow, fsets, "a", "b")
    g2 = report.pattern_after.graph
    assert g2.edges == pattern.graph.pivot("a", "b").edges
    # direct pivot tables: a: YZ -> XY with -alpha, b: XY -> YZ with -alpha
    assert g2.labels["a"] == "XY"
    assert report.pattern_after.angles["a"] == (-pattern.angles["a"]) % 2
    assert g2.labels["b"] == "YZ"
    assert report.pattern_after.angles["b"] == (-pattern.angles["b"]) % 2
    # d is a common neighbour with a Pauli label: Y -> Y with alpha + pi
    assert g2.labels["d"] == "Y"
    assert report.pattern_after.angles["d"] == (pattern.angles["d"] + 1) % 2
    # i neighbours b only: XY unchanged through the three steps
    assert g2.labels["i"] == "XY"
    assert report.pattern_after.angles["i"] == pattern.angles["i"]
    # c neighbours a only
    assert g2.labels["c"] == "XY"
    assert report.pattern_after.angles["c"] == pattern.angles["c"]
    assert verify_flow(g2, report.flow_after) == []
    assert is_flow_focussed(g2, report.flow_after)
    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_pivot_pendant_edge():
    pattern = MeasurementPattern.make(
        ["u", "v", "o"], [("u", "v"), ("v", "o")], [], ["o"],
        {"u": "XY", "v": "XY"}, {"u": F(1, 5), "v": F(1, 3)})
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    report = pivot_pattern(pattern, flow, focussed_set_generators(g), "u", "v")
    assert report.pattern_after.graph.labels["u"] == "YZ"
    assert report.pattern_after.graph.labels["v"] == "YZ"
    assert report.consistent
    assert applied_semantics_match(pattern, report)


def test_pivot_rejects_non_edge(worked_pattern, worked_flow):
    with pytest.raises(ValueError):
        pivot_pattern(worked_pattern, worked_flow, [worked_example_fset()], "a", "o1")


# -- switching flows ------------------------------------------------------------------


@pytest.mark.parametrize("a_d", [0, 1])
def test_switch_flow_at_b_worked_example(a_d):
    pattern = worked_example(a_d=a_d)
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    report = switch_flow_rewrite(pattern, flow, fsets, "b", worked_example_fset())
    assert report.pattern_after is pattern
    assert report.flow_after.p["b"] == {"d", "o1", "o2"}

    dag = report.pddag_via_simulation
    assert dag.nodes["b"].string == from_letter_map({"o1": "X", "o2": "Y"}, sgn(a_d))
    assert dag.nodes["b"].angle == pattern.angles["b"]
    assert dag.tableau.x_rows["i"] == from_letter_map({"o1": "X", "o2": "Y"}, sgn(a_d))
    assert dag.tableau.z_rows["i"] == from_letter_map({"o2": "X"})
    assert dag.tableau.free_rows == (from_letter_map({"o1": "Z", "o2": "X"}),)
    # unchanged nodes
    assert dag.nodes["i"].string == from_letter_map({"o2": "X"})
    assert dag.nodes["a"].string == from_letter_map({"o1": "Z", "o2": "Y"}, sgn(a_d))
    assert dag.nodes["c"].string == from_letter_map({"o1": "X"})
    # b now anticommutes with a and must come first
    assert dag.hasse() == {("i", "b"), ("b", "a"), ("a", "c")}

    assert report.consistent
    assert applied_semantics_match(pattern, report)
    assert equal_up_to_phase(
        pddag_semantics(dag), pattern_semantics(pattern), 1e-9)


def test_switch_flow_at_d_no_effect(worked_pattern, worked_flow):
    base = extract_pddag(worked_pattern, worked_flow, [worked_example_fset()])
    report = switch_flow_rewrite(worked_pattern, worked_flow,
                                 [worked_example_fset()], "d", worked_example_fset())
    assert report.flow_after.p["d"] == {"c"}
    assert report.pddag_via_simulation.structurally_equal(base)
    assert report.consistent


def test_switch_flow_empty_fset(worked_pattern, worked_flow):
    report = switch_flow_rewrite(worked_pattern, worked_flow,
                                 [worked_example_fset()], "b", frozenset())
    base = extract_pddag(worked_pattern, worked_flow, [worked_example_fset()])
    assert report.pddag_via_simulation.structurally_equal(base)
    assert report.consistent


def test_switch_flow_at_input():
    pattern = worked_example()
    flow = worked_example_flow()
    fsets = [worked_example_fset()]
    report = switch_flow_rewrite(pattern, flow, fsets, "i", worked_example_fset())
    assert report.flow_after.p["i"] == {"b", "c"}
    dag = report.pddag_via_simulation
    base = extract_pddag(pattern, flow, fsets)
    stab = extraction_string(pattern, worked_example_fset()).string
    assert dag.tableau.z_rows["i"] == base.tableau.z_rows["i"] * stab
    assert dag.nodes["i"].string == base.nodes["i"].string * stab
    assert report.consistent
    assert applied_semantics_match(pattern, report)


# -- random sweeps --------------------------------------------------------------------


def _random_rewrite_cases(rng, count, applicable):
    cases = []
    while len(cases) < count:
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        flow = focus_flow(g, flow)
        fsets = focussed_set_generators(g)
        options = applicable(pattern, flow, fsets)
        if options:
            cases.append((pattern, flow, fsets, rng.choice(sorted(options))))
    return cases


def test_random_relabel_sweep():
    rng = random.Random(60)

    def options(pattern, flow, fsets):
        return [v for v in pattern.graph.measured
                if pattern.graph.is_planar(v)
                and (pattern.angles[v] * 2).denominator == 1]

    hits = 0
    for pattern, flow, fsets, u in _random_rewrite_cases(rng, 25, options):
        report = relabel_pauli(pattern, flow, fsets, u)
        assert report.consistent
        assert applied_semantics_match(pattern, report)
        g2 = report.pattern_after.graph
        assert verify_flow(g2, report.flow_after) == []
        assert is_flow_focussed(g2, report.flow_after)
        hits += 1
    assert hits == 25


def test_random_eliminate_sweep():
    rng = random.Random(61)

    def options(pattern, flow, fsets):
        return [v for v in pattern.graph.measured
                if pattern.graph.labels[v] in ("XZ", "YZ", "Z")
                and pattern.angles[v] in (0, 1)]

    for pattern, flow, fsets, u in _random_rewrite_cases(rng, 20, options):
        report = eliminate_z(pattern, flow, fsets, u)
        assert report.consistent
        assert applied_semantics_match(pattern, report)
        g2 = report.pattern_after.graph
        assert verify_flow(g2, report.flow_after) == []


def test_random_local_complement_sweep():
    rng = random.Random(62)

    def options(pattern, flow, fsets):
        return sorted(pattern.graph.vertices - pattern.graph.inputs)

    for pattern, flow, fsets, u in _random_rewrite_cases(rng, 20, options):
        direction = rng.choice((1, -1))
        report = local_complement_pattern(pattern, flow, fsets, u, direction)
        assert report.consistent
        assert applied_semantics_match(pattern, report)
        g2 = report.pattern_after.graph
        assert verify_flow(g2, report.flow_after) == []
        assert is_flow_focussed(g2, report.flow_after)


def test_random_pivot_sweep():
    rng = random.Random(63)

    def options(pattern, flow, fsets):
        g = pattern.graph
        return [e for e in g.edges if not (set(e) & g.inputs)]

    for pattern, flow, fsets, edge in _random_rewrite_cases(rng, 15, options):
        u, v = edge
        report = pivot_pattern(pattern, flow, fsets, u, v)
        assert report.consistent
        assert applied_semantics_match(pattern, report)


def test_random_switch_sweep():
    rng = random.Random(64)

    def options(pattern, flow, fsets):
        g = pattern.graph
        out = []
        for fset in fsets:
            affected = fset | g.odd_neighbourhood(fset)
            for u in g.measured:
                planar_block = any(
                    g.is_planar(w) and (w == u or flow.order.precedes(w, u))
                    for w in affected
                )
                if not planar_block:
                    out.append((u, tuple(sorted(fset))))
        return out

    for pattern, flow, fsets, (u, fs) in _random_rewrite_cases(rng, 20, options):
        report = switch_flow_rewrite(pattern, flow, fsets, u, frozenset(fs))
        assert report.consistent
        assert applied_semantics_match(pattern, report)
        assert verify_flow(pattern.graph, report.flow_after) == []
        assert is_flow_focussed(pattern.graph, report.flow_after)


def test_switch_reads_x_rows_from_the_new_flow():
    """After a switch at u, each input w's X row is read from the set a
    fresh extraction with the new flow uses: {w} focussed, which holds the
    new p(u) iff {w} is not focussed over u (always for a Y input u = w)."""
    rng = random.Random(65)
    switches = at_y_input = 0
    for _ in range(200):
        pattern, flow = random_flowful_pattern(rng, max_vertices=7)
        g = pattern.graph
        flow = focus_flow(g, flow)
        fsets = focussed_set_generators(g)
        for fs in fsets:
            for u in sorted(g.measured):
                try:
                    report = switch_flow_rewrite(pattern, flow, fsets, u, fs)
                except ValueError:
                    continue
                fresh = extract_pddag(pattern, report.flow_after, fsets)
                assert report.pddag_via_pattern.tableau.x_corrections == \
                    fresh.tableau.x_corrections
                switches += 1
                at_y_input += u in g.inputs and g.labels[u] == "Y"
    assert switches >= 400 and at_y_input >= 8, (switches, at_y_input)


def _switch_sequence_between(pattern, flow_from, flow_to):
    """Per-vertex correction differences, realized as flow switches."""
    g = pattern.graph
    current = flow_from
    for v in flow_from.order.emission_order(g.measured):
        diff = current.p[v] ^ flow_to.p[v]
        if diff:
            from pauliflow.flow import switch_flow

            current = switch_flow(g, current, v, diff)
    return current


def test_focussed_flows_related_by_switches():
    """Any two focussed flows differ by focussed-set switches per vertex."""
    rng = random.Random(65)
    checked = 0
    cases = [(worked_example(), worked_example_flow())]
    while len(cases) < 15:
        cases.append(random_flowful_pattern(rng, max_vertices=7))
    for pattern, flow in cases:
        g = pattern.graph
        f1 = focus_flow(g, flow)
        found = find_pauli_flow(g)
        f2 = focus_flow(g, found)
        gens = focussed_set_generators(g)
        span = {frozenset()}
        for gen in gens:
            span |= {s ^ gen for s in span}
        for v in g.measured:
            assert (f1.p[v] ^ f2.p[v]) in span
        reached = _switch_sequence_between(pattern, f2, f1)
        assert {v: reached.p[v] for v in g.measured} == dict(f1.p)
        assert verify_flow(g, reached) == []
        checked += 1
    assert checked == 15


# -- the input flow checks ----------------------------------------------------------


def _all_rewrites_pattern():
    """The worked example with pi at a and a Clifford angle at c, so that
    every rewrite in REWRITES applies."""
    return worked_example(alpha_a=F(1), alpha_c=HALF)


REWRITES = {
    "relabel": lambda pattern, flow, fsets: relabel_pauli(pattern, flow, fsets, "c"),
    "zelim": lambda pattern, flow, fsets: eliminate_z(pattern, flow, fsets, "a"),
    "lc": lambda pattern, flow, fsets: local_complement_pattern(pattern, flow, fsets, "d"),
    "pivot": lambda pattern, flow, fsets: pivot_pattern(pattern, flow, fsets, "a", "b"),
    "switch": lambda pattern, flow, fsets: switch_flow_rewrite(pattern, flow, fsets, "b",
                                                               fsets[0]),
}


@pytest.mark.parametrize("kind", sorted(REWRITES))
def test_rewrites_reject_an_invalid_input_flow(kind):
    pattern, flow = _all_rewrites_pattern(), worked_example_flow()
    invalid = PauliFlowData(dict(flow.p, c=frozenset({"o2"})), flow.order)
    assert verify_flow(pattern.graph, invalid)
    with pytest.raises(ValueError, match=r"^flow is invalid: \[\("):
        REWRITES[kind](pattern, invalid, [worked_example_fset()])


@pytest.mark.parametrize("kind", sorted(REWRITES))
def test_rewrites_reject_an_unfocussed_input_flow(kind):
    pattern = _all_rewrites_pattern()
    unfocussed = add_correction_sets(worked_example_flow(), "b", "c")
    assert verify_flow(pattern.graph, unfocussed) == []
    assert not is_flow_focussed(pattern.graph, unfocussed)
    with pytest.raises(ValueError, match="^rewrites need a focussed flow$"):
        REWRITES[kind](pattern, unfocussed, [worked_example_fset()])


@pytest.mark.parametrize("kind", sorted(REWRITES))
def test_rewrites_check_each_flow_once(kind, monkeypatch):
    """One verification (``flow._verify``, behind ``verify_flow``) and one
    focus check (``flow._focussed``, behind ``is_flow_focussed``) on the
    input flow (the extraction of the input's Pddag does not repeat them)
    and one each on the output flow, in the extraction of the rewritten
    pattern's Pddag.  Each focus check reads the masks that its flow's
    verification built."""
    verified, checked = [], []
    verify, focussed = flow_mod._verify, flow_mod._focussed

    def counted_verify(graph, flow):
        out = verify(graph, flow)
        verified.append((flow, out[1]))
        return out

    def counted_focussed(masks):
        checked.append(masks)
        return focussed(masks)

    for module in (flow_mod, extract_mod, rewrite_mod):
        for name, counted in (("_verify", counted_verify), ("_focussed", counted_focussed)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    flow = worked_example_flow()
    report = REWRITES[kind](_all_rewrites_pattern(), flow, [worked_example_fset()])
    assert report.consistent
    assert len(verified) == 2
    assert verified[0][0] is flow and verified[1][0] is report.flow_after
    assert len(checked) == 2
    assert checked[0] is verified[0][1] and checked[1] is verified[1][1]


def test_local_complementation_keeps_masks_of_its_own_graph():
    """``rewrite._lc_step`` rewrites the flow's masks with the graph: each
    set by the XORs of its update, each odd neighbourhood by the same XORs
    and then by the edges the complementation toggles.  The masks it hands
    to the next step of a pivot and to the simulation's strings must be the
    ones the new graph and flow would be verified with."""
    rng = random.Random(1501)
    steps = 0
    for _ in range(60):
        pattern, flow = random_flowful_pattern(rng, max_vertices=8)
        g = pattern.graph
        flow = focus_flow(g, flow)
        fsets = focussed_set_generators(g)
        masks = rewrite_mod._require_focussed(pattern, flow)
        base = rewrite_mod._base_pddag(pattern, flow, masks, fsets)
        bv = masks.bv
        sets = [(bv.mask(fs), bv.odd(bv.mask(fs))) for fs in fsets]
        state, sim = (pattern, masks, sets, {}), base
        for _ in range(3):
            candidates = sorted(g.vertices - g.inputs)
            if not candidates:
                break
            u = rng.choice(candidates)
            state, sim = rewrite_mod._lc_step(sim, flow.order, *state, u, rng.choice((1, -1)))
            pattern2, masks2, sets2, _ = state
            g2 = pattern2.graph
            flow2 = PauliFlowData({v: bv.unmask(m) for v, m in masks2.p.items()}, flow.order)
            fresh = flow_mod._verify(g2, flow2)[1]
            assert masks2.bv.verts == fresh.bv.verts == bv.verts
            assert masks2.bv.adj == fresh.bv.adj
            assert (masks2.p, masks2.odd) == (fresh.p, fresh.odd)
            assert all(odd == fresh.bv.odd(m) for m, odd in sets2)
            steps += 1
    assert steps >= 100


def test_pivot_builds_each_graph_and_view_once(monkeypatch):
    """A pivot builds five ``BitView``s (the input flow's, one per
    complemented graph, the output flow's) and validates three graphs (one
    per complemented graph): each step toggles the edges among u's
    neighbours as the masks' view gives them and builds its graph once."""
    pattern = sized_circuit_pattern(80, 8, seed=80)
    g = pattern.graph
    flow = focus_flow(g, find_pauli_flow(g))
    fsets = focussed_set_generators(g)
    inner = g.measured - g.inputs
    u, v = next(e for e in sorted(g.edges) if inner.issuperset(e))
    built = {"views": 0, "graphs": 0}
    view_init, graph_check = graph_mod.BitView.__init__, graph_mod.LabelledOpenGraph.__post_init__

    def counted_view(self, *args):
        built["views"] += 1
        view_init(self, *args)

    def counted_graph(self):
        built["graphs"] += 1
        graph_check(self)

    monkeypatch.setattr(graph_mod.BitView, "__init__", counted_view)
    monkeypatch.setattr(graph_mod.LabelledOpenGraph, "__post_init__", counted_graph)
    report = pivot_pattern(pattern, flow, fsets, u, v)
    assert built == {"views": 5, "graphs": 3}
    assert report.consistent
