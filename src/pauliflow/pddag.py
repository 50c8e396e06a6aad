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

Synthesis completes the isometry tableau to a unitary one (each free row
is the Z image of a fresh |0> wire, its X partner solved over GF(2)) and
reduces it wire by wire to the identity with H, S, CX, X and Z.  The
tableau being reduced is column-packed, as in Aaronson & Gottesman,
*Improved simulation of stabilizer circuits* (2004): one int per wire for
the X column and one for the Z column over all 2n rows, plus one int of
signs, so each reducing gate updates every row in a few big-int operations
(the rules are listed on ``clifford_circuit_from_rows``).  The circuit is
the reduction reversed, followed by one rotation per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
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
        if self.free_rows and f2.rank(self._symplectic([r.unsigned() for r in self.free_rows])) != len(self.free_rows):
            raise ValueError("free rows are dependent")

    def _check_commutation(self):
        # rows as (X mask, Z mask) over the outputs, as ``commutes`` reads them
        pos = {q: i for i, q in enumerate(self.outputs)}
        z = {u: r.bits(pos) for u, r in self.z_rows.items()}
        x = {u: r.bits(pos) for u, r in self.x_rows.items()}
        free = [r.bits(pos) for r in self.free_rows]

        def commute(a, b):
            return not ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1

        for u in self.inputs:
            if commute(z[u], x[u]):
                raise ValueError(f"Z and X rows of input {u!r} must anticommute")
            for w in self.inputs:
                if w == u:
                    continue
                for a in (z[u], x[u]):
                    for b in (z[w], x[w]):
                        if not commute(a, b):
                            raise ValueError(f"rows of inputs {u!r}, {w!r} must commute")
        for i, r in enumerate(free):
            for s in free[i + 1:]:
                if not commute(r, s):
                    raise ValueError("free rows must commute")
            for u in self.inputs:
                if not commute(r, z[u]) or not commute(r, x[u]):
                    raise ValueError("free rows must commute with input rows")

    def _symplectic(self, rows: Sequence[SignedPauliString]) -> List[int]:
        """Rows as [x | z] bits over the outputs: X at bit i, Z at bit n + i."""
        n = len(self.outputs)
        pos = {q: i for i, q in enumerate(self.outputs)}
        packed = []
        for r in rows:
            x, z = r.bits(pos)
            packed.append(x | z << n)
        return packed

    def rows_equal(self, other: "IsometryTableau") -> bool:
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and dict(self.z_rows) == dict(other.z_rows)
            and dict(self.x_rows) == dict(other.x_rows)
            and self.free_rows == other.free_rows
        )

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
        rows = self._symplectic([r.unsigned() for r in self.free_rows])
        combo = f2.in_span(rows, self._symplectic([string.unsigned()])[0])
        if combo is None:
            return None
        idx = tuple(i for i in range(len(self.free_rows)) if combo & (1 << i))
        prod = identity_string()
        for i in idx:
            prod = multiply(prod, self.free_rows[i])
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
        pos = {q: k for k, q in enumerate(self.tableau.outputs)}
        xz = [self.nodes[nid].string.bits(pos) for nid in self.node_ids]
        n = len(xz)
        closed = [0] * n
        hasse = [0] * n
        for i in range(n - 1, -1, -1):
            xi, zi = xz[i]
            todo = sum(1 << j for j in range(i + 1, n)
                       if ((xi & xz[j][1]) ^ (zi & xz[j][0])).bit_count() & 1)
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


def _complete_tableau(tab: IsometryTableau) -> Tuple[List[SignedPauliString], List[SignedPauliString]]:
    """Wire-indexed Z/X conjugation images for a full unitary tableau.

    Inputs occupy the first wires in sorted order; each free row becomes the
    Z image of a fresh wire and its X partner is completed over GF(2).
    """
    n = len(tab.outputs)
    wire = {q: i for i, q in enumerate(tab.outputs)}
    z_out = [tab.z_rows[u].relabelled(wire) for u in tab.inputs]
    x_out = [tab.x_rows[u].relabelled(wire) for u in tab.inputs]
    free = [r.relabelled(wire) for r in tab.free_rows]

    def sym_row(s: SignedPauliString) -> int:
        # Coefficients of the symplectic product against unknown [x | z]
        # bits: z_i pairs with unknown x_i, x_i with unknown z_i.  The
        # strings are wire-indexed, so wire i sits at bit i.
        x, z = s.bits(range(n))
        return z | x << n

    for j, zrow in enumerate(free):
        # the right-hand side (1 on free row j only) rides at bit 2n
        rows = [sym_row(s) for s in z_out + x_out + free]
        rows[len(z_out) + len(x_out) + j] |= 1 << 2 * n
        sol = f2.solve(rows, (1 << 2 * n) - 1, 1 << 2 * n)
        if sol is None:
            raise ValueError("tableau rows violate symplectic constraints")
        xbits = sol & ((1 << n) - 1)
        zbits = sol >> n
        partner = SignedPauliString.from_xz(f2.bits(xbits), f2.bits(zbits))
        z_out.append(zrow)
        x_out.append(partner)
    return z_out, x_out


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
    return _clifford_gates(z_out, x_out, Gate)


def _clifford_gates(z_out, x_out, gate: Callable) -> List[Gate]:
    """``clifford_circuit_from_rows`` with its gates built by gate(name, qubits)."""
    n = len(z_out)
    xc = [0] * n
    zc = [0] * n
    r = 0
    for i, s in enumerate(list(z_out) + list(x_out)):
        if s.sign == -1:
            r |= 1 << i
        for q in s.x:
            xc[q] |= 1 << i
        for q in s.z:
            zc[q] |= 1 << i
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
    n = len(pddag.tableau.outputs)
    m = len(pddag.tableau.inputs)
    wire = {q: i for i, q in enumerate(pddag.tableau.outputs)}
    z_out, x_out = _complete_tableau(pddag.tableau)
    gate = cache(Gate)
    gates: List[Gate] = [Gate("INIT0", (w,)) for w in range(m, n)]
    gates += _clifford_gates(z_out, x_out, gate)
    for nid in pddag.node_ids:
        rot = pddag.nodes[nid]
        if rot.is_identity():
            continue
        wire_string = rot.string.relabelled(wire)
        gates += (_lowered_exp(wire_string, rot.angle, gate) if lower_exp
                  else [Gate("EXP", tuple(sorted(wire_string.support)), rot.angle, wire_string)])
    return Circuit(n, tuple(gates))
