"""Pauli Dependency DAGs: isometry tableau plus an anticommutation-ordered
rotation list, with the moves that simulate pattern rewrites.

A Pddag stores its rotation nodes in one valid temporal linearization
(earliest applied first).  The canonical dependency DAG is derived from it:
orient every anticommuting pair by list position, close transitively and
take the Hasse diagram.  Any two linearizations of the same process give
the same canonical DAG, which is what gets compared and serialized.

The rewrites are simulated by pushing Clifford nodes into the tableau,
pulling rotations out of it (``pull_to`` a fresh node, ``pull_into`` an
existing one; a pull of (A, t) is a push of its inverse (A, -t)) and
stabilizer rewrites; the paper's Fig. 2 example also reads a unitary
circuit, pushes all its Clifford nodes and merges nodes.

Every part reads a Pauli string as one ``[x | z]`` int (``_packed``):
output ``outputs[i]`` carries X at bit i and Z at bit n + i, and two rows
anticommute iff one has odd overlap with the other's ``[z | x]`` swap.  The
tableau packs its rows once; its checks, free-group membership, the node
order and the completion read those ints.

Synthesis completes the tableau to a unitary one (each free row is the Z
image of a fresh |0> wire, its X partner solved over GF(2)), column-packs
it (one int per wire for the X and for the Z column over all 2n rows, as in
Aaronson & Gottesman, *Improved simulation of stabilizer circuits*, 2004)
and reduces it wire by wire to the identity with H, S, CX, X and Z.  The
circuit is the reduction reversed, followed by one rotation per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import f2
from .pauli import (
    GATE_ROTATIONS,
    Rotation,
    SignedPauliString,
    commutes,
    identity_string,
    multiply,
    reorder_push,
    single,
)


# -- circuits ---------------------------------------------------------------

GATE_NAMES = ("CZ", "CX", "H", "RZ", "RX", "S", "Sdg", "X", "Z", "INIT0", "EXP")


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: Tuple[int, ...]
    angle: Optional[Fraction] = None  # units of pi
    string: Optional[SignedPauliString] = None  # EXP only, over wire indices

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")


@dataclass(frozen=True)
class Circuit:
    n_wires: int
    gates: Tuple[Gate, ...] = ()

    @property
    def init_wires(self) -> Tuple[int, ...]:
        return tuple(g.qubits[0] for g in self.gates if g.name == "INIT0")


# -- packed rows ----------------------------------------------------------------


def _packed(strings: Sequence[SignedPauliString], qubits: Sequence) -> Tuple[List[int], int]:
    """Hermitian strings as [x | z] ints (qubits[i] carries X at bit i and Z
    at bit n + i) and a mask of the strings with sign -1."""
    pos = {q: i for i, q in enumerate(qubits)}
    rows = [x | z << len(qubits) for x, z in (s.bits(pos) for s in strings)]
    return rows, sum(1 << i for i, s in enumerate(strings) if s.sign == -1)


def _swapped(row: int, n: int) -> int:
    """A packed row as [z | x], the coefficients of its symplectic product."""
    return row >> n | (row & ((1 << n) - 1)) << n


# -- isometry tableau ---------------------------------------------------------


def _check_row(row: SignedPauliString, outputs: FrozenSet[str]) -> None:
    if not row.is_hermitian():
        raise ValueError("tableau rows need +-1 signs")
    if not row.support <= outputs:
        raise ValueError(f"row {row} leaves the outputs")


@dataclass(frozen=True)
class IsometryTableau:
    """Z/X images per input plus free stabilizer generators, all over outputs.

    x_corrections keeps, per input u, the focussed set its X row was read
    from, so rewrites can update it with their flow rules instead of
    focussing {u} again on the rewritten pattern (which may pick a
    different, free-action-related row).  Which correction sets that set
    holds follows from the graph alone: p(w) for each measured w that {u}
    is not focussed over.
    """

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    z_rows: Mapping[str, SignedPauliString]
    x_rows: Mapping[str, SignedPauliString]
    free_rows: Tuple[SignedPauliString, ...]
    x_corrections: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(sorted(self.inputs)))
        object.__setattr__(self, "outputs", tuple(sorted(self.outputs)))
        outs = frozenset(self.outputs)
        if set(self.z_rows) != set(self.inputs) or set(self.x_rows) != set(self.inputs):
            raise ValueError("need exactly one Z and one X row per input")
        if len(self.free_rows) != len(self.outputs) - len(self.inputs):
            raise ValueError("free row count must be |O| - |I|")
        for row in list(self.z_rows.values()) + list(self.x_rows.values()) + list(self.free_rows):
            _check_row(row, outs)
        self._check_commutation()
        m, n = len(self.inputs), len(self.outputs)
        if f2.rank(self._rows[0][m:n]) != n - m:
            raise ValueError("free rows are dependent")

    @cached_property
    def _rows(self) -> Tuple[List[int], int]:
        """The Z rows, free rows and X rows, packed, and their sign mask: row
        i < n is the Z image of wire i and row n + i < n + m the X image
        (output i is wire i, input i of m sorted inputs is wire i)."""
        return _packed([*map(self.z_rows.get, self.inputs), *self.free_rows,
                        *map(self.x_rows.get, self.inputs)], self.outputs)

    def _check_commutation(self):
        # bit l of anti[k] is set iff rows k and l anticommute: Z row i must
        # pair with X row n + i alone and a free row with no row
        m, n = len(self.inputs), len(self.outputs)
        rows, free = self._rows[0], (1 << n) - (1 << m)
        swapped = [_swapped(r, n) for r in rows]
        anti = [sum(1 << l for l, s in enumerate(swapped) if (r & s).bit_count() & 1) for r in rows]
        for i, u in enumerate(self.inputs):
            if not anti[i] >> (n + i) & 1:
                raise ValueError(f"Z and X rows of input {u!r} must anticommute")
            bad = (anti[i] | anti[n + i]) & ~(free | 1 << i | 1 << (n + i))
            if bad:  # the lowest bit of bad | bad >> n is the first input w
                w = self.inputs[next(f2.bits(bad | bad >> n))]
                raise ValueError(f"rows of inputs {u!r}, {w!r} must commute")
        for mask in anti[m:n]:
            if mask & free:
                raise ValueError("free rows must commute")
            if mask:
                raise ValueError("free rows must commute with input rows")

    def rows_equal(self, other: "IsometryTableau") -> bool:
        return (self.inputs, self.outputs, self._rows) == (other.inputs, other.outputs, other._rows)

    # -- free actions -----------------------------------------------------

    def multiply_input_by_string(self, input_id: str, which: str,
                                 string: SignedPauliString) -> "IsometryTableau":
        """Multiply input_id's Z row (which "z") or X row (which "x") by a
        string from the free-row group."""
        if which not in ("z", "x"):
            raise ValueError("which must be 'z' or 'x'")
        if self.free_combo(string) is None:
            raise ValueError("string is not in the free-row group")
        field_name = "z_rows" if which == "z" else "x_rows"
        rows = dict(getattr(self, field_name))
        rows[input_id] = multiply(rows[input_id], string)
        return replace(self, **{field_name: rows})

    def free_combo(self, string: SignedPauliString) -> Optional[Tuple[int, ...]]:
        """Indices of free rows whose exact signed product equals the string."""
        if not string.is_hermitian() or not string.support <= set(self.outputs):
            return None
        free = self._rows[0][len(self.inputs):len(self.outputs)]
        combo = f2.in_span(free, _packed([string], self.outputs)[0][0])
        if combo is None:
            return None
        idx = tuple(f2.bits(combo))
        prod = reduce(multiply, (self.free_rows[i] for i in idx), identity_string())
        return idx if prod == string else None

    def conjugated(self, mover: Rotation) -> "IsometryTableau":
        """The tableau of U V, where this is V's and U the Clifford rotation
        mover: every row b becomes U b U^dagger (``reorder_push``)."""
        return replace(
            self,
            z_rows={u: reorder_push(mover, r) for u, r in self.z_rows.items()},
            x_rows={u: reorder_push(mover, r) for u, r in self.x_rows.items()},
            free_rows=tuple(reorder_push(mover, r) for r in self.free_rows),
        )


# -- the DAG -----------------------------------------------------------------


@dataclass(frozen=True)
class Pddag:
    tableau: IsometryTableau
    node_ids: Tuple[str, ...]
    nodes: Mapping[str, Rotation]

    def __post_init__(self):
        if set(self.node_ids) != set(self.nodes) or len(self.node_ids) != len(self.nodes):
            raise ValueError("node ids and node map disagree")
        outs = frozenset(self.tableau.outputs)
        for rot in self.nodes.values():
            _check_row(rot.string, outs)
        object.__setattr__(self, "nodes", dict(self.nodes))

    # -- dependency structure ---------------------------------------------

    @cached_property
    def _order_masks(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(closed, Hasse) successor masks over node_ids positions.

        An earlier node must stay before a later one iff their strings
        anticommute, directly or through a chain.  Each node's closure is
        built from the latest node back, taking its anticommuting successors
        in list order; a successor not yet reached is exactly a Hasse edge.
        """
        rows, _ = _packed([self.nodes[nid].string for nid in self.node_ids], self.tableau.outputs)
        swapped = [_swapped(r, len(self.tableau.outputs)) for r in rows]
        n = len(rows)
        closed = [0] * n
        hasse = [0] * n
        for i in range(n - 1, -1, -1):
            ri = rows[i]
            todo = sum(1 << j for j in range(i + 1, n) if (ri & swapped[j]).bit_count() & 1)
            reach = edges = 0
            while todo:
                low = todo & -todo
                edges |= low
                reach |= low | closed[low.bit_length() - 1]
                todo &= ~reach
            closed[i], hasse[i] = reach, edges
        return tuple(closed), tuple(hasse)

    def hasse(self) -> FrozenSet[Tuple[str, str]]:
        ids = self.node_ids
        return frozenset((ids[i], ids[j]) for i, m in enumerate(self._order_masks[1])
                         for j in f2.bits(m))

    def structurally_equal(self, other: "Pddag") -> bool:
        """Same tableau rows, same nodes per id, same canonical DAG."""
        if not self.tableau.rows_equal(other.tableau):
            return False
        if set(self.node_ids) != set(other.node_ids):
            return False
        if not all(self.nodes[i].equivalent(other.nodes[i]) for i in self.node_ids):
            return False
        return self.hasse() == other.hasse()

    # -- rewrites (pure) ----------------------------------------------------

    def _position(self, nid: str) -> int:
        if nid not in self.nodes:
            raise ValueError(f"no node {nid!r}")
        return self.node_ids.index(nid)

    def merge_nodes(self, j: str, k: str) -> "Pddag":
        """Fold node k into node j; strings must agree up to sign."""
        if j == k:
            raise ValueError(f"cannot merge node {j!r} into itself")
        pj, pk = self._position(j), self._position(k)
        closed = self._order_masks[0]
        if (closed[pj] >> pk) & 1 or (closed[pk] >> pj) & 1:
            raise ValueError(f"nodes {j!r}, {k!r} are order-dependent")
        a, b = self.nodes[j], self.nodes[k]
        angle = _merged_angle(a, b)
        if angle is None:
            raise ValueError(f"nodes {j!r}, {k!r} have different strings")
        nodes = {i: r for i, r in self.nodes.items() if i != k}
        ids = tuple(i for i in self.node_ids if i != k)
        if angle == 0:
            nodes.pop(j)
            ids = tuple(i for i in ids if i != j)
        else:
            nodes[j] = Rotation(a.string, angle)
        return Pddag(self.tableau, ids, nodes)

    def push_clifford_front(self, nid: str) -> "Pddag":
        """Absorb a Clifford-angled node into the tableau, conjugating what it crosses."""
        pos = self._position(nid)
        mover = self.nodes[nid]
        if not mover.is_clifford():
            raise ValueError(f"node {nid!r} has a non-Clifford angle")
        tableau, nodes = self._crossed(mover, pos)
        del nodes[nid]
        return Pddag(tableau, self.node_ids[:pos] + self.node_ids[pos + 1:], nodes)

    def pull_to(self, rotation: Rotation, pos: int, node_id: str) -> "Pddag":
        """Take a Clifford rotation out of the tableau as a fresh node after
        the first pos nodes: the Pddag whose ``push_clifford_front(node_id)``
        is this one."""
        if node_id in self.nodes:
            raise ValueError(f"node id {node_id!r} is taken")
        if not 0 <= pos <= len(self.node_ids):
            raise ValueError(f"position {pos} is outside 0..{len(self.node_ids)}")
        if rotation.angle == 0:
            return self
        tableau, nodes = self._crossed(Rotation(rotation.string, -rotation.angle), pos)
        nodes[node_id] = rotation
        return Pddag(tableau, self.node_ids[:pos] + (node_id,) + self.node_ids[pos:], nodes)

    def pull_into(self, rotation: Rotation, target: str) -> "Pddag":
        """Take a Clifford rotation out of the tableau and merge it into node
        target; its string must equal the target's up to sign."""
        pos = self._position(target)
        if rotation.angle == 0:
            return self
        tableau, nodes = self._crossed(Rotation(rotation.string, -rotation.angle), pos)
        dest = nodes[target]
        angle = _merged_angle(dest, rotation)
        if angle is None:
            raise ValueError(
                f"cannot merge {rotation.string} into node {target!r} carrying {dest.string}")
        nodes[target] = Rotation(dest.string, angle)
        return Pddag(tableau, self.node_ids, nodes)

    def _crossed(self, mover: Rotation, pos: int) -> Tuple[IsometryTableau, Dict[str, Rotation]]:
        """The tableau and nodes once the Clifford rotation mover, sitting
        after the first pos nodes, is pushed across them into the tableau.
        The pulls pass the inverse (A, -t) of the rotation (A, t) they pull."""
        nodes = dict(self.nodes)
        for nid in self.node_ids[:pos]:
            rot = nodes[nid]
            nodes[nid] = Rotation(reorder_push(mover, rot.string), rot.angle)
        return self.tableau.conjugated(mover), nodes

    def stabilizer_rewrite_by_string(self, nid: str, string: SignedPauliString) -> "Pddag":
        """Multiply a node's string by a stabilizer from the free-row group."""
        i = self._position(nid)
        if self.tableau.free_combo(string) is None:
            raise ValueError(f"{string} is not in the free-row group")
        target = self.nodes[nid]
        if not commutes(target.string, string):
            raise ValueError("stabilizer anticommutes with the node string")
        ids = self.node_ids
        ancestors = sum(1 << k for k, m in enumerate(self._order_masks[0]) if (m >> i) & 1)
        blockers = [ids[a] for a in f2.bits(ancestors)
                    if not commutes(self.nodes[ids[a]].string, string)]
        if blockers:
            raise ValueError(f"anticommuting blockers {sorted(blockers)} before {nid!r}")
        new_rot = Rotation(multiply(target.string, string), target.angle)
        # The new string may anticommute with earlier nodes incomparable to
        # it.  Every new ordering leaves it, so those nodes and their
        # descendants before it move to just after it, in their old order.
        before = (1 << i) - 1
        late = 0
        for x in f2.bits(before & ~ancestors):
            if not commutes(new_rot.string, self.nodes[ids[x]].string):
                late |= 1 << x | self._order_masks[0][x]
        late &= before
        order = (*(ids[k] for k in f2.bits(before & ~late)), nid,
                 *(ids[k] for k in f2.bits(late)), *ids[i + 1:])
        return Pddag(self.tableau, order, {**self.nodes, nid: new_rot})

    def with_tableau(self, tableau: IsometryTableau) -> "Pddag":
        return Pddag(tableau, self.node_ids, dict(self.nodes))


def _merged_angle(a: Rotation, b: Rotation) -> Optional[Fraction]:
    """Angle of b folded into a, or None if their strings differ beyond sign."""
    if a.string == b.string:
        return a.angle + b.angle
    if a.string == -b.string:
        return a.angle - b.angle
    return None


def build_pddag(tableau: IsometryTableau, ordered_nodes: Sequence[Tuple[str, Rotation]]) -> Pddag:
    return Pddag(tableau, tuple(i for i, _ in ordered_nodes), dict(ordered_nodes))


# -- synthesis ----------------------------------------------------------------


def circuit_to_rotations(circuit: Circuit) -> List[Rotation]:
    """Decompose a unitary circuit into rotations, earliest applied first."""
    out: List[Rotation] = []
    for gate in circuit.gates:
        if gate.name == "INIT0":
            raise ValueError("initializations are not rotations")
        if gate.name == "EXP":
            rots = [Rotation(gate.string, gate.angle)]
        else:
            rots = GATE_ROTATIONS[gate.name](*gate.qubits, gate.angle)
        out.extend(r for r in rots if not r.is_identity())
    return out


def identity_tableau(wires: Sequence) -> IsometryTableau:
    return IsometryTableau(
        inputs=tuple(wires),
        outputs=tuple(wires),
        z_rows={w: single(w, "Z") for w in wires},
        x_rows={w: single(w, "X") for w in wires},
        free_rows=(),
    )


def unitary_pddag_from_circuit(circuit: Circuit) -> Pddag:
    """Rotation list of a unitary circuit over an identity tableau."""
    if circuit.init_wires:
        raise ValueError("circuit is not unitary")
    rots = circuit_to_rotations(circuit)
    nodes = [(f"n{i}", r) for i, r in enumerate(rots)]
    return build_pddag(identity_tableau(range(circuit.n_wires)), nodes)


def push_clifford_nodes(dag: Pddag) -> Pddag:
    """Push every Clifford-angled node into the tableau, earliest first."""
    while True:
        nid = next((i for i in dag.node_ids if dag.nodes[i].is_clifford()), None)
        if nid is None:
            return dag
        dag = dag.push_clifford_front(nid)


def _complete_tableau(tab: IsometryTableau) -> Tuple[List[int], int]:
    """Packed Z/X images of wires 0..n-1 (output i is wire i) for a full
    unitary tableau, and their sign mask: the tableau's ``_rows`` with the
    X partner of each free row appended.

    A partner anticommutes with its free row alone among the rows and the
    partners found before it.  One system grows by each partner:
    ``f2.solve`` returns the solution on the pivot columns, which the set of
    equations fixes, so a fresh system per partner (listing some rows
    twice) would give the same partners.
    """
    n, (rows, signs) = len(tab.outputs), tab._rows
    # the right-hand side (1 on the free row being partnered) rides at bit 2n
    eqs = [_swapped(r, n) for r in rows]
    rhs = 1 << 2 * n
    partners = []
    for j in range(len(tab.inputs), n):
        eqs[j] |= rhs
        sol = f2.solve(eqs, rhs - 1, rhs)
        eqs[j] ^= rhs
        if sol is None:
            raise ValueError("tableau rows violate symplectic constraints")
        partners.append(sol)
        eqs.append(_swapped(sol, n))
    return rows + partners, signs


def clifford_circuit_from_rows(z_out: List[SignedPauliString],
                               x_out: List[SignedPauliString]) -> List[Gate]:
    """Gate list realizing a unitary Clifford with the given Z/X images, signs exact.

    The rows live in a column-packed tableau: rows 0..n-1 are the Z images
    of wires 0..n-1 and rows n..2n-1 their X images; ``xc[j]`` has bit i set
    when row i carries X or Y on wire j, ``zc[j]`` when it carries Z or Y,
    and bit i of ``r`` when row i has sign -1.  Each reducing gate G
    conjugates every row at once (G P G^dagger) with the update rules of
    Aaronson & Gottesman, *Improved simulation of stabilizer circuits* (2004):

    - H(a): ``r ^= xc[a] & zc[a]``, then swap ``xc[a]`` and ``zc[a]``;
    - S(a): ``r ^= xc[a] & zc[a]``, then ``zc[a] ^= xc[a]``;
    - CX(a, b): ``r ^= xc[a] & zc[b] & ~(xc[b] ^ zc[a])``, then
      ``xc[b] ^= xc[a]`` and ``zc[a] ^= zc[b]``;
    - X(a): ``r ^= zc[a]``;  Z(a): ``r ^= xc[a]``.

    Wire by wire, X row k and then Z row k (inside an H sandwich) are
    reduced to X_k and Z_k, signs are fixed with Z and X, and the
    reduction is returned reversed with S and Sdg swapped.
    """
    return _clifford_gates(*_packed(list(z_out) + list(x_out), range(len(z_out))), Gate)


def _clifford_gates(rows: Sequence[int], signs: int, gate: Callable) -> List[Gate]:
    """``clifford_circuit_from_rows`` on packed rows and a sign mask, its
    gates built by gate(name, qubits)."""
    n = len(rows) // 2
    cols = [0] * (2 * n)
    for i, row in enumerate(rows):
        for q in f2.bits(row):
            cols[q] |= 1 << i
    xc, zc = cols[:n], cols[n:]
    r = signs
    reducing: List[Tuple[str, Tuple[int, ...]]] = []

    def emit(name, a, b=None):
        nonlocal r
        if name == "H":
            r ^= xc[a] & zc[a]
            xc[a], zc[a] = zc[a], xc[a]
        elif name == "S":
            r ^= xc[a] & zc[a]
            zc[a] ^= xc[a]
        elif name == "CX":
            r ^= xc[a] & zc[b] & ~(xc[b] ^ zc[a])
            xc[b] ^= xc[a]
            zc[a] ^= zc[b]
        elif name == "X":
            r ^= zc[a]
        else:
            r ^= xc[a]
        reducing.append((name, (a,) if b is None else (a, b)))

    def clean_to_x(row, k):
        # Reduce row (supported on wires >= k) to +-X_k.
        bit = 1 << row
        for j in range(k, n):
            if xc[j] & bit:
                if zc[j] & bit:
                    emit("S", j)
            elif zc[j] & bit:
                emit("H", j)
        if not xc[k] & bit:
            j = next(j for j in range(k + 1, n) if xc[j] & bit)
            emit("CX", k, j)
            emit("CX", j, k)
            emit("CX", k, j)
        for j in range(n):
            if j != k and xc[j] & bit and not zc[j] & bit:
                emit("CX", k, j)

    for k in range(n):
        clean_to_x(n + k, k)
        bit = 1 << k  # Z row k; reduce it unless it is +-Z_k
        if xc[k] & bit or not zc[k] & bit or any((xc[j] | zc[j]) & bit
                                                   for j in range(n) if j != k):
            emit("H", k)
            clean_to_x(k, k)
            emit("H", k)
        if r >> (n + k) & 1:
            emit("Z", k)
        if r >> k & 1:
            emit("X", k)

    assert r == 0 and all(xc[j] == 1 << (n + j) and zc[j] == 1 << j for j in range(n))

    dagger = {"S": "Sdg", "Sdg": "S"}
    return [gate(dagger.get(name, name), qubits) for name, qubits in reversed(reducing)]


def _lowered_exp(string: SignedPauliString, angle: Fraction, gate: Callable) -> List[Gate]:
    """CX-ladder lowering of the rotation EXP(string, angle), its Clifford
    gates built by gate(name, qubits)."""
    support = sorted(string.support)
    if not support:
        return []
    eff = angle if string.sign == 1 else -angle
    pre: List[Gate] = []
    post: List[Gate] = []
    for q in support:
        l = string.letter(q)
        if l == "X":
            pre.append(gate("H", (q,)))
            post.append(gate("H", (q,)))
        elif l == "Y":
            pre += [gate("Sdg", (q,)), gate("H", (q,))]
            post += [gate("H", (q,)), gate("S", (q,))]
    ladder = [gate("CX", (support[i], support[i + 1])) for i in range(len(support) - 1)]
    target = support[-1]
    return (
        pre + ladder
        + [Gate("RZ", (target,), angle=-eff)]
        + list(reversed(ladder)) + post
    )


def synthesize(pddag: Pddag, lower_exp: bool = False) -> Circuit:
    """Tableau synthesis (fresh |0> wires + Clifford) then one rotation per
    node; each distinct H, S, Sdg, CX, X or Z gate is built once per call."""
    n, m = len(pddag.tableau.outputs), len(pddag.tableau.inputs)
    wire = {q: i for i, q in enumerate(pddag.tableau.outputs)}
    gate = cache(Gate)
    gates: List[Gate] = [Gate("INIT0", (w,)) for w in range(m, n)]
    gates += _clifford_gates(*_complete_tableau(pddag.tableau), gate)
    for nid in pddag.node_ids:
        rot = pddag.nodes[nid]
        if rot.is_identity():
            continue
        wire_string = rot.string.relabelled(wire)
        gates += (_lowered_exp(wire_string, rot.angle, gate) if lower_exp
                  else [Gate("EXP", tuple(sorted(wire_string.support)), rot.angle, wire_string)])
    return Circuit(n, tuple(gates))
