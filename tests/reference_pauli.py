"""Reference Pauli-string operations, kept from the letter-dict code the
X/Z-set representation replaced.

They work letter by letter: the product walks one factor's qubits through
a single-qubit multiplication table, commutation counts qubits whose
non-identity letters differ, and the packers scan letters into bit masks:
``SignedPauliString.bits``'s (X mask, Z mask) pair, the PDDAG layer's one
``[x | z]`` row layout (``packed``, with its sign mask and its inverse
``unpacked``) and the ``[z | x]`` swap that symplectic products read.  The
differential tests compare the library against them; nothing in ``src/``
imports this module.  ``complete_tableau`` is the partner completion built
from them and the reference GF(2) solver, so it shares no elimination
with ``_complete_tableau``.
"""

from pauliflow.pauli import SignedPauliString
from tests import reference_f2 as f2

# (p, q) -> (r, k) with P*Q = i^k * R for single-qubit Paulis.
_MUL = {
    ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}


def multiply(a, b):
    letters = dict(a.letters)
    k = a.phase_pow + b.phase_pow
    for q, lb in b.letters.items():
        la = letters.pop(q, "I")
        if la == "I":
            letters[q] = lb
        else:
            r, dk = _MUL[(la, lb)]
            k += dk
            if r != "I":
                letters[q] = r
    return SignedPauliString(letters, k)


def commutes(a, b):
    odd = 0
    for q, l in a.letters.items():
        m = b.letter(q)
        if m != "I" and m != l:
            odd ^= 1
    return odd == 0


def tableau_bits(row, outputs):
    """The ``[x | z]`` row layout: outputs[i] carries X at bit i and Z at bit n + i."""
    n = len(outputs)
    bits = 0
    for i, q in enumerate(outputs):
        l = row.letter(q)
        if l in ("X", "Y"):
            bits |= 1 << i
        if l in ("Z", "Y"):
            bits |= 1 << (n + i)
    return bits


def xz_bits(string, pos):
    """``SignedPauliString.bits``: (X mask, Z mask) over positions."""
    x = sum(1 << pos[q] for q, letter in string.letters.items() if letter != "Z")
    z = sum(1 << pos[q] for q, letter in string.letters.items() if letter != "X")
    return x, z


def partner_bits(s, n):
    """The ``[z | x]`` swap over wires 0..n-1: Z at bit i, X at bit n + i."""
    bits = 0
    for i in range(n):
        l = s.letter(i)
        if l in ("Z", "Y"):
            bits |= 1 << i
        if l in ("X", "Y"):
            bits |= 1 << (n + i)
    return bits


def packed(strings, qubits):
    """``[x | z]`` rows over the qubits and the mask of the rows with sign -1."""
    rows = [tableau_bits(s, qubits) for s in strings]
    return rows, sum(1 << i for i, s in enumerate(strings) if s.phase_pow == 2)


def unpacked(rows, signs, n):
    """The wire-indexed Z images (rows 0..n-1) and X images (rows n..2n-1) of
    packed rows over wires 0..n-1, signs from the mask."""
    strings = []
    for i, row in enumerate(rows):
        s = bits_to_string(row & ((1 << n) - 1), row >> n)
        strings.append(-s if signs >> i & 1 else s)
    return strings[:n], strings[n:]


def bits_to_string(x, z):
    """Wire-indexed string with X part x and Z part z, sign +1."""
    letters = {}
    i = 0
    while x or z:
        xb, zb = x & 1, z & 1
        if xb or zb:
            letters[i] = "Y" if (xb and zb) else ("X" if xb else "Z")
        x >>= 1
        z >>= 1
        i += 1
    return SignedPauliString(letters, 0)


def complete_tableau(tab):
    """Wire-indexed Z/X images with each free row's X partner solved for,
    re-keying rows letter by letter."""
    outputs = list(tab.outputs)
    n = len(outputs)

    def remap(row):
        return SignedPauliString({outputs.index(q): l for q, l in row.letters.items()},
                                 row.phase_pow)

    z_out = [remap(tab.z_rows[u]) for u in tab.inputs]
    x_out = [remap(tab.x_rows[u]) for u in tab.inputs]
    free = [remap(r) for r in tab.free_rows]
    for j, zrow in enumerate(free):
        rows = [partner_bits(s, n) for s in z_out + x_out + free]
        rhs = [0] * (len(z_out) + len(x_out)) + [int(i == j) for i in range(len(free))]
        sol = f2.solve(f2.F2Matrix(rows, 2 * n), rhs)
        z_out.append(zrow)
        x_out.append(bits_to_string(sol & ((1 << n) - 1), sol >> n))
    return z_out, x_out
