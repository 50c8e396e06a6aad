"""Isometry tableaux, dependency DAGs, rewrites and circuit synthesis."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from pauliflow.oracle import (
    circuit_semantics,
    equal_up_to_phase,
    pddag_semantics,
    string_matrix,
)
from pauliflow.pauli import Rotation, SignedPauliString, commutes, from_letter_map, single
from pauliflow.pddag import (
    Circuit,
    Gate,
    IsometryTableau,
    Pddag,
    build_pddag,
    clifford_circuit_from_rows,
    identity_tableau,
    push_clifford_nodes,
    synthesize,
    unitary_pddag_from_circuit,
)
from tests.conftest import random_clifford_rows
from tests.reference_order import pddag_partial_order

F = Fraction


# -- tableau validation ---------------------------------------------------------


def test_tableau_rejects_commuting_zx_pair():
    with pytest.raises(ValueError):
        IsometryTableau(("i",), ("o",), {"i": single("o", "Z")},
                        {"i": single("o", "Z")}, ())


def test_tableau_rejects_bad_free_count():
    with pytest.raises(ValueError):
        IsometryTableau(("i",), ("o",), {"i": single("o", "Z")},
                        {"i": single("o", "X")}, (single("o", "Z"),))


def _reference_commutation_error(inputs, z_rows, x_rows, free_rows):
    """The first commutation error of a tableau, in the order it checks its
    rows, found with ``commutes`` on the strings themselves."""
    for u in inputs:
        if commutes(z_rows[u], x_rows[u]):
            return f"Z and X rows of input {u!r} must anticommute"
        for w in inputs:
            if w != u and not all(commutes(a, b) for a in (z_rows[u], x_rows[u])
                                  for b in (z_rows[w], x_rows[w])):
                return f"rows of inputs {u!r}, {w!r} must commute"
    for i, r in enumerate(free_rows):
        if not all(commutes(r, s) for s in free_rows[i + 1:]):
            return "free rows must commute"
        if not all(commutes(r, z_rows[u]) and commutes(r, x_rows[u]) for u in inputs):
            return "free rows must commute with input rows"
    return None


def test_tableau_commutation_checks_match_commutes():
    """The tableau checks commutation on bit masks; on Clifford images with
    a row swapped for a random string it must raise exactly the error the
    same checks in the same order give with ``commutes``."""
    rng = random.Random(2601)
    seen = set()
    for _ in range(600):
        n = rng.randrange(1, 5)
        z, x, _ = random_clifford_rows(rng, n)
        inputs = "abcd"[:rng.randrange(0, n + 1)]
        z_rows = dict(zip(inputs, z))
        x_rows = dict(zip(inputs, x))
        free = list(z[len(inputs):])
        rows = [(z_rows, u) for u in inputs] + [(x_rows, u) for u in inputs]
        rows += [(free, i) for i in range(len(free))]
        if rows and rng.random() < 0.8:
            table, key = rng.choice(rows)
            table[key] = from_letter_map({q: rng.choice("XYZ") for q in range(n)
                                          if rng.random() < 0.6}, rng.choice((1, -1)))
        want = _reference_commutation_error(inputs, z_rows, x_rows, free)
        try:
            IsometryTableau(tuple(inputs), tuple(range(n)), z_rows, x_rows, tuple(free))
            got = None
        except ValueError as e:
            got = str(e) if "commute" in str(e) else None
        assert got == want
        seen.add(want and re.sub(r"'[^']*'", "u", want))
    assert seen == {None, "Z and X rows of input u must anticommute",
                    "rows of inputs u, u must commute", "free rows must commute",
                    "free rows must commute with input rows"}, seen


def test_multiply_free_into_input_row():
    # the worked example's tableau: folding the free row into the X row
    tab = IsometryTableau(
        ("i",), ("o1", "o2"),
        {"i": from_letter_map({"o2": "X"})},
        {"i": -from_letter_map({"o1": "Y", "o2": "Z"})},
        (from_letter_map({"o1": "Z", "o2": "X"}),),
    )
    out = tab.multiply_input_by_string("i", "x", tab.free_rows[0])
    assert out.x_rows["i"] == from_letter_map({"o1": "X", "o2": "Y"})
    assert out.z_rows["i"] == tab.z_rows["i"]
    # a row name other than z or x is an error, not the X row
    with pytest.raises(ValueError, match="which"):
        tab.multiply_input_by_string("i", "q", tab.free_rows[0])


def test_free_combo_signed():
    tab = IsometryTableau(
        (), ("x", "y"), {}, {},
        (from_letter_map({"x": "Z", "y": "X"}), from_letter_map({"x": "X", "y": "Z"})),
    )
    prod = from_letter_map({"x": "Z", "y": "X"}) * from_letter_map({"x": "X", "y": "Z"})
    assert prod == from_letter_map({"x": "Y", "y": "Y"})
    assert tab.free_combo(prod) == (0, 1)
    assert tab.free_combo(-prod) is None
    assert tab.free_combo(single("x", "X")) is None


# -- synthesis ------------------------------------------------------------------


def test_clifford_synthesis_exact_rows():
    rng = random.Random(40)
    for _ in range(60):
        n = rng.randrange(1, 5)
        z_rows, x_rows, _ = random_clifford_rows(rng, n)
        gates = clifford_circuit_from_rows(list(z_rows), list(x_rows))
        u = circuit_semantics(Circuit(n, tuple(gates))).matrix
        for k in range(n):
            zk = string_matrix(single(k, "Z"), range(n))
            xk = string_matrix(single(k, "X"), range(n))
            assert np.max(np.abs(u @ zk @ u.conj().T - string_matrix(z_rows[k], range(n)))) < 1e-9
            assert np.max(np.abs(u @ xk @ u.conj().T - string_matrix(x_rows[k], range(n)))) < 1e-9


def test_synthesize_isometry_rows_stabilize():
    # |0> on the fresh wire, inputs pass through a graph-state-like Clifford
    tab = IsometryTableau(
        ("a",), ("x", "y"),
        {"a": single("x", "Z")},
        {"a": from_letter_map({"x": "X", "y": "Z"})},
        (from_letter_map({"x": "Z", "y": "X"}),),
    )
    dag = build_pddag(tab, [])
    c = circuit_semantics(synthesize(dag))
    m = c.matrix
    wires = ["x", "y"]
    free = string_matrix(tab.free_rows[0], wires)
    assert np.max(np.abs(free @ m - m)) < 1e-9
    zin = np.diag([1, -1]).astype(complex)
    xin = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.max(np.abs(m @ zin - string_matrix(tab.z_rows["a"], wires) @ m)) < 1e-9
    assert np.max(np.abs(m @ xin - string_matrix(tab.x_rows["a"], wires) @ m)) < 1e-9


def test_synthesize_empty_identity():
    dag = build_pddag(identity_tableau(range(2)), [])
    c = synthesize(dag)
    assert equal_up_to_phase(circuit_semantics(c),
                             circuit_semantics(Circuit(2)), 1e-9)


def test_synthesize_single_rz():
    dag = build_pddag(
        identity_tableau([0]), [("n", Rotation(single(0, "Z"), F(1, 3)))])
    got = circuit_semantics(synthesize(dag, lower_exp=True))
    want = circuit_semantics(Circuit(1, (Gate("RZ", (0,), angle=F(-1, 3)),)))
    assert equal_up_to_phase(got, want, 1e-9)


def test_lowered_exp_matches_abstract():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(1, 4)
        letters = {k: rng.choice("IXYZ") for k in range(n)}
        letters = {k: l for k, l in letters.items() if l != "I"}
        if not letters:
            continue
        string = SignedPauliString(letters, rng.choice((0, 2)))
        angle = F(rng.randrange(1, 8), 4)
        dag = build_pddag(identity_tableau(range(n)),
                          [("n", Rotation(string, angle))])
        a = circuit_semantics(synthesize(dag, lower_exp=False))
        b = circuit_semantics(synthesize(dag, lower_exp=True))
        assert equal_up_to_phase(a, b, 1e-9)


# -- dependency structure ----------------------------------------------------------


def test_all_commuting_empty_dag():
    dag = build_pddag(identity_tableau(range(2)), [
        ("a", Rotation(single(0, "Z"), F(1, 3))),
        ("b", Rotation(single(1, "X"), F(1, 5))),
        ("c", Rotation(single(0, "Z"), F(1, 7))),
    ])
    assert dag.hasse() == frozenset()


def test_alternating_chain():
    dag = build_pddag(identity_tableau([0]), [
        ("a", Rotation(single(0, "X"), F(1, 3))),
        ("b", Rotation(single(0, "Z"), F(1, 5))),
        ("c", Rotation(single(0, "X"), F(1, 7))),
    ])
    assert dag.hasse() == {("a", "b"), ("b", "c")}
    assert pddag_partial_order(dag) == {("a", "b"), ("b", "c"), ("a", "c")}


def test_deps_order_stable_across_linearizations():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(2, 6)
        nodes = []
        for i in range(rng.randrange(2, 7)):
            letters = {k: rng.choice("IXYZ") for k in range(n)}
            letters = {k: l for k, l in letters.items() if l != "I"}
            nodes.append((f"n{i}", Rotation(
                SignedPauliString(letters, 0), F(rng.randrange(1, 8), 4))))
        dag = build_pddag(identity_tableau(range(n)), nodes)
        po = pddag_partial_order(dag)
        # any linearization of the same partial order gives the same DAG
        for _ in range(5):
            remaining = list(dag.node_ids)
            lin = []
            while remaining:
                minimal = [x for x in remaining
                           if not any((y, x) in po for y in remaining)]
                pick = rng.choice(minimal)
                lin.append(pick)
                remaining.remove(pick)
            other = Pddag(dag.tableau, tuple(lin), dict(dag.nodes))
            assert other.hasse() == dag.hasse()


def test_pddag_keeps_the_given_rotations():
    rots = {"a": Rotation(single(0, "X"), F(1, 3)), "b": Rotation(single(0, "Z"), F(7, 4))}
    dag = Pddag(identity_tableau([0]), ("a", "b"), rots)
    assert all(dag.nodes[i] is rots[i] for i in rots)


# -- rewrites --------------------------------------------------------------------


def two_wire_fixture():
    tab = IsometryTableau(
        ("a",), ("x", "y"),
        {"a": single("x", "Z")},
        {"a": from_letter_map({"x": "X", "y": "Z"})},
        (from_letter_map({"x": "Z", "y": "X"}),),
    )
    return build_pddag(tab, [
        ("p", Rotation(from_letter_map({"x": "Z"}), F(1, 2))),
        ("q", Rotation(from_letter_map({"x": "X", "y": "Y"}), F(1, 3))),
        ("r", Rotation(from_letter_map({"x": "Z"}), F(1, 2))),
    ])


def test_merge_nodes():
    dag = build_pddag(identity_tableau(range(2)), [
        ("a", Rotation(single(0, "X"), F(1, 3))),
        ("b", Rotation(single(1, "Z"), F(1, 5))),
        ("c", Rotation(single(0, "X"), F(1, 7))),
    ])
    merged = dag.merge_nodes("a", "c")
    assert set(merged.node_ids) == {"a", "b"}
    assert merged.nodes["a"].angle == F(1, 3) + F(1, 7)
    assert equal_up_to_phase(pddag_semantics(merged), pddag_semantics(dag), 1e-9)


def test_merge_opposite_sign_subtracts():
    dag = build_pddag(identity_tableau([0]), [
        ("a", Rotation(single(0, "X"), F(1, 3))),
        ("b", Rotation(-single(0, "X"), F(1, 3))),
    ])
    merged = dag.merge_nodes("a", "b")
    assert merged.node_ids == ()  # angles cancel to an identity rotation


def test_merge_to_a_full_turn_keeps_the_node():
    dag = build_pddag(identity_tableau([0]), [
        ("a", Rotation(single(0, "X"), F(3, 2))),
        ("b", Rotation(single(0, "X"), F(1, 2))),
    ])
    merged = dag.merge_nodes("a", "b")
    assert merged.node_ids == ("a",)
    assert merged.nodes["a"].angle == 0


def test_merge_blocked_by_path():
    dag = build_pddag(identity_tableau([0]), [
        ("a", Rotation(single(0, "X"), F(1, 3))),
        ("b", Rotation(single(0, "Z"), F(1, 5))),
        ("c", Rotation(single(0, "X"), F(1, 7))),
    ])
    with pytest.raises(ValueError):
        dag.merge_nodes("a", "c")
    with pytest.raises(ValueError):
        dag.merge_nodes("a", "b")  # different strings


def test_push_clifford_front_oracle():
    dag = two_wire_fixture()
    pushed = dag.push_clifford_front("p")
    assert "p" not in pushed.nodes
    assert equal_up_to_phase(pddag_semantics(pushed), pddag_semantics(dag), 1e-9)
    # p is the earliest node: later nodes untouched, tableau rows conjugated
    assert pushed.nodes["q"] == dag.nodes["q"]
    assert pushed.tableau.x_rows["a"] != dag.tableau.x_rows["a"]
    # pushing the last node conjugates everything it crosses
    pushed2 = dag.push_clifford_front("r")
    assert pushed2.nodes["q"].string == -from_letter_map({"x": "Y", "y": "Y"})
    assert equal_up_to_phase(pddag_semantics(pushed2), pddag_semantics(dag), 1e-9)


def test_push_identity_angle_node():
    dag = build_pddag(identity_tableau([0]), [
        ("a", Rotation(single(0, "X"), F(0))),
        ("b", Rotation(single(0, "Z"), F(1, 5))),
    ])
    pushed = dag.push_clifford_front("a")
    assert set(pushed.node_ids) == {"b"}
    assert pushed.nodes["b"] == dag.nodes["b"]
    assert pushed.tableau.rows_equal(dag.tableau)


def test_push_non_clifford_rejected():
    dag = two_wire_fixture()
    with pytest.raises(ValueError):
        dag.push_clifford_front("q")


def test_pull_stabilizer_to_end_oracle():
    dag = two_wire_fixture()
    stab = dag.tableau.free_rows[0]
    assert dag.tableau.free_combo(stab) is not None
    pulled = dag.pull_to(Rotation(stab, F(1, 2)), len(dag.node_ids), "s")
    assert pulled.node_ids[-1] == "s"
    # a stabilizer commutes with every row, so the tableau is unchanged
    assert pulled.tableau.rows_equal(dag.tableau)
    assert equal_up_to_phase(pddag_semantics(pulled), pddag_semantics(dag), 1e-9)


def test_pull_into_merge_oracle():
    dag = two_wire_fixture()
    pulled = dag.pull_into(Rotation(from_letter_map({"x": "Z"}), 1), "r")
    assert pulled.nodes["r"].angle == (F(1, 2) + 1) % 2
    assert equal_up_to_phase(pddag_semantics(pulled), pddag_semantics(dag), 1e-9)
    with pytest.raises(ValueError, match="cannot merge"):
        dag.pull_into(Rotation(from_letter_map({"x": "X"}), 1), "r")


def test_pull_angle_zero_noop():
    dag = two_wire_fixture()
    assert dag.pull_to(Rotation(single("x", "Z"), 0), len(dag.node_ids), "s") is dag
    assert dag.pull_into(Rotation(single("x", "Z"), 0), "r") is dag


def random_pddag_with_free_rows(rng):
    """A Pddag over the rows of a random Clifford: some inputs, at least one
    free row, and up to five signed nodes at random angles."""
    n = rng.randrange(2, 5)
    z_rows, x_rows, _ = random_clifford_rows(rng, n)
    m = rng.randrange(0, n)
    tab = IsometryTableau(tuple(range(m)), tuple(range(n)),
                          dict(enumerate(z_rows[:m])), dict(enumerate(x_rows[:m])),
                          tuple(z_rows[m:]))
    return build_pddag(tab, [(f"n{i}", Rotation(random_string(rng, n), F(rng.randrange(16), 8)))
                             for i in range(rng.randrange(0, 6))])


def random_string(rng, n):
    letters = {k: rng.choice("IXYZ") for k in range(n)}
    return SignedPauliString({k: l for k, l in letters.items() if l != "I"},
                             rng.choice((0, 2)))


def test_push_undoes_pull_exactly():
    """A pull is the push of the inverse rotation: pushing a freshly pulled
    node back gives the same ids, nodes and rows, for every position."""
    rng = random.Random(1801)
    moved_rows = crossed_nodes = 0
    for _ in range(500):
        dag = random_pddag_with_free_rows(rng)
        for pos in range(len(dag.node_ids) + 1):
            for angle in (F(1, 2), F(1), F(3, 2)):
                r = Rotation(random_string(rng, len(dag.tableau.outputs)), angle)
                pulled = dag.pull_to(r, pos, "new")
                back = pulled.push_clifford_front("new")
                assert back.node_ids == dag.node_ids
                assert back.nodes == dag.nodes
                assert back.tableau.rows_equal(dag.tableau)
                moved_rows += not pulled.tableau.rows_equal(dag.tableau)
                crossed_nodes += any(pulled.nodes[i] != dag.nodes[i] for i in dag.node_ids)
    # the round trips are not vacuous: pulls moved rows and crossed nodes
    assert moved_rows > 1000 and crossed_nodes > 1000, (moved_rows, crossed_nodes)


def test_moves_reject_missing_or_repeated_ids():
    dag = two_wire_fixture()
    with pytest.raises(ValueError, match="'p'"):
        dag.merge_nodes("p", "p")
    with pytest.raises(ValueError, match="'zz'"):
        dag.merge_nodes("p", "zz")
    with pytest.raises(ValueError, match="'zz'"):
        dag.merge_nodes("zz", "p")
    with pytest.raises(ValueError, match="'zz'"):
        dag.push_clifford_front("zz")
    with pytest.raises(ValueError, match="'zz'"):
        dag.pull_into(Rotation(single("x", "Z"), 1), "zz")
    with pytest.raises(ValueError, match="'q'"):
        dag.pull_to(Rotation(single("x", "Z"), 1), 0, "q")
    with pytest.raises(ValueError, match="position"):
        dag.pull_to(Rotation(single("x", "Z"), 1), len(dag.node_ids) + 1, "s")
    with pytest.raises(ValueError, match="'zz'"):
        dag.stabilizer_rewrite_by_string("zz", dag.tableau.free_rows[0])


def test_stabilizer_rewrite_oracle():
    dag = two_wire_fixture()
    # free row Z(x)X(y) commutes with q's X(x)Y(y) and with nothing before q
    # blocking it; the rewrite must preserve the map
    rewritten = dag.stabilizer_rewrite_by_string("q", dag.tableau.free_rows[0])
    assert equal_up_to_phase(pddag_semantics(rewritten), pddag_semantics(dag), 1e-9)
    assert rewritten.nodes["q"].string == dag.nodes["q"].string * dag.tableau.free_rows[0]


def test_stabilizer_rewrite_blocked():
    tab = IsometryTableau(
        (), ("x", "y"), {}, {}, (single("x", "Z"), single("y", "Z")))
    dag = build_pddag(tab, [
        ("a", Rotation(single("x", "X"), F(1, 3))),
        ("b", Rotation(from_letter_map({"x": "X", "y": "X"}), F(1, 5))),
    ])
    # Z(x) anticommutes with a's X(x), and a is before b
    with pytest.raises(ValueError):
        dag.stabilizer_rewrite_by_string("b", single("x", "Z"))


# -- a two-wire circuit reduced to its canonical dependency DAG ---------------------


TWO_WIRE_ANGLES = [F(1, 5), F(1, 3), F(2, 7), F(1, 7), F(3, 5), F(2, 5), F(1, 9), F(2, 9)]


def two_wire_circuit(a=TWO_WIRE_ANGLES):
    yx_gadget = lambda angle: [
        Gate("Sdg", (0,)), Gate("H", (0,)), Gate("H", (1,)),
        Gate("CX", (0, 1)), Gate("RZ", (1,), angle=angle), Gate("CX", (0, 1)),
        Gate("H", (1,)), Gate("H", (0,)), Gate("S", (0,)),
    ]
    gates = [Gate("S", (0,)),
             Gate("RZ", (0,), angle=a[0]), Gate("RZ", (1,), angle=a[1]),
             Gate("RX", (0,), angle=-a[2])]
    gates += yx_gadget(a[3])
    gates += [Gate("RX", (1,), angle=-a[4])]
    gates += yx_gadget(a[5])
    gates += [Gate("RZ", (0,), angle=a[6])]
    gates += [Gate("Sdg", (1,)), Gate("H", (1,)), Gate("RZ", (1,), angle=a[7]),
              Gate("H", (1,)), Gate("S", (1,))]
    return Circuit(2, tuple(gates))


def two_wire_expected_nodes(a=TWO_WIRE_ANGLES):
    yx = from_letter_map({0: "Y", 1: "X"})
    return {
        0: Rotation(single(0, "Z"), -a[0]),
        1: Rotation(single(1, "Z"), -a[1]),
        2: Rotation(single(0, "X"), a[2]),
        3: Rotation(yx, -a[3]),
        4: Rotation(single(1, "X"), a[4]),
        5: Rotation(yx, -a[5]),
        6: Rotation(single(0, "Z"), -a[6]),
        7: Rotation(single(1, "Y"), -a[7]),
    }


def two_wire_reduced_dag():
    return push_clifford_nodes(unitary_pddag_from_circuit(two_wire_circuit()))


def test_fig2_nodes_and_tableau():
    dag = two_wire_reduced_dag()
    assert len(dag.node_ids) == 8
    expected = two_wire_expected_nodes()
    label = {}
    for nid in dag.node_ids:
        matches = [k for k, rot in expected.items()
                   if dag.nodes[nid].equivalent(rot)]
        assert len(matches) == 1, f"node {dag.nodes[nid]} unexpected"
        label[nid] = matches[0]
    assert sorted(label.values()) == list(range(8))
    # temporal order respects the construction indices
    assert [label[n] for n in dag.node_ids] == sorted(label.values())
    # tableau: X0 -> +Y0, X1 -> +X1, Z -> Z
    tab = dag.tableau
    assert tab.x_rows[0] == single(0, "Y")
    assert tab.x_rows[1] == single(1, "X")
    assert tab.z_rows[0] == single(0, "Z")
    assert tab.z_rows[1] == single(1, "Z")
    assert tab.free_rows == ()


def test_fig2_dependency_diagram():
    dag = two_wire_reduced_dag()
    expected = two_wire_expected_nodes()
    label = {nid: next(k for k, rot in expected.items()
                       if dag.nodes[nid].equivalent(rot))
             for nid in dag.node_ids}
    edges = {(label[a], label[b]) for a, b in dag.hasse()}
    assert edges == {
        (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5),
        (3, 6), (3, 7), (5, 6), (5, 7), (4, 7),
    }


def test_fig2_merge_and_chain():
    dag = two_wire_reduced_dag()
    expected = two_wire_expected_nodes()
    label = {nid: next(k for k, rot in expected.items()
                       if dag.nodes[nid].equivalent(rot))
             for nid in dag.node_ids}
    inv = {v: k for k, v in label.items()}
    po = pddag_partial_order(dag)
    # alpha3 / alpha5 share a string and are incomparable: merge is legal
    assert (inv[3], inv[5]) not in po and (inv[5], inv[3]) not in po
    merged = dag.merge_nodes(inv[3], inv[5])
    assert len(merged.node_ids) == 7
    assert merged.nodes[inv[3]].equivalent(
        Rotation(from_letter_map({0: "Y", 1: "X"}), -TWO_WIRE_ANGLES[3] - TWO_WIRE_ANGLES[5]))
    assert equal_up_to_phase(pddag_semantics(merged), pddag_semantics(dag), 1e-9)
    # alpha1 -> alpha4 -> alpha7 chain present
    assert (inv[1], inv[4]) in po and (inv[4], inv[7]) in po


def test_fig2_oracle_equality():
    circuit = two_wire_circuit()
    dag = two_wire_reduced_dag()
    assert equal_up_to_phase(
        pddag_semantics(dag), circuit_semantics(circuit), 1e-9)


def test_random_mutations_oracle_equal():
    """Pick random legal rewrites on random Pddags; the map never changes."""
    from pauliflow.pauli import Rotation, commutes

    rng = random.Random(43)
    checked = 0
    while checked < 60:
        n = rng.randrange(2, 4)
        wires = list(range(n))
        m = rng.randrange(0, n)  # inputs
        free = []
        # build commuting independent free rows for the fresh wires
        for j in range(m, n):
            free.append(single(j, rng.choice(("Z", "X"))))
        try:
            tab = IsometryTableau(
                tuple(wires[:m]), tuple(wires),
                {w: single(w, "Z") for w in wires[:m]},
                {w: single(w, "X") for w in wires[:m]},
                tuple(free),
            )
        except ValueError:
            continue
        nodes = []
        for i in range(rng.randrange(1, 6)):
            letters = {k: rng.choice("IXYZ") for k in wires}
            letters = {k: l for k, l in letters.items() if l != "I"}
            nodes.append((f"n{i}", Rotation(
                SignedPauliString(letters, rng.choice((0, 2))),
                F(rng.randrange(0, 16), 8))))
        dag = build_pddag(tab, nodes)
        want = pddag_semantics(dag)
        mutated = None
        kind = rng.choice(("push", "pull", "stab", "merge"))
        try:
            if kind == "push":
                cliffs = [i for i in dag.node_ids if dag.nodes[i].is_clifford()]
                if cliffs:
                    mutated = dag.push_clifford_front(rng.choice(cliffs))
            elif kind == "pull" and free:
                stab = rng.choice(free)
                assert tab.free_combo(stab) is not None
                mutated = dag.pull_to(Rotation(stab, F(rng.randrange(1, 4), 2)),
                                      rng.randrange(len(dag.node_ids) + 1), "pulled")
            elif kind == "stab" and free:
                row = rng.randrange(len(free))
                po = pddag_partial_order(dag)
                targets = [
                    i for i in dag.node_ids
                    if commutes(dag.nodes[i].string, tab.free_rows[row])
                    and all(commutes(dag.nodes[a].string, tab.free_rows[row])
                            for a, b in po if b == i)
                ]
                if targets:
                    mutated = dag.stabilizer_rewrite_by_string(
                        rng.choice(targets), dag.tableau.free_rows[row])
            else:
                po = pddag_partial_order(dag)
                pairs = [
                    (a, b) for a in dag.node_ids for b in dag.node_ids
                    if a < b and (a, b) not in po and (b, a) not in po
                    and dag.nodes[a].string.unsigned() == dag.nodes[b].string.unsigned()
                ]
                if pairs:
                    mutated = dag.merge_nodes(*rng.choice(pairs))
        except ValueError:
            continue
        if mutated is None:
            continue
        assert equal_up_to_phase(pddag_semantics(mutated), want, 1e-9), kind
        checked += 1
