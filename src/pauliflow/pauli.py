"""Exact algebra of signed Pauli strings and Pauli-exponential rotations.

A string is kept in symplectic form, as in Aaronson & Gottesman, *Improved
simulation of stabilizer circuits* (2004): ``x`` is the set of qubits that
carry X or Y, ``z`` the set that carry Z or Y, and ``phase_pow`` is the
power of i in front of the letters (Y is one letter, not iXZ).  Qubits are
any hashable ids: graph vertices, wire indices or test names.  Products
and commutation are set algebra, and ``bits`` is the one place a string
becomes bit masks.  Letters appear only at the edges: the letter-map
constructor, ``letters``/``letter``, ``format`` and ``parse_string``.

Rotations ``(A, theta)`` denote the operator ``exp(i * theta/2 * A)`` up to
global phase; angles are exact rational multiples of pi, kept in [0, 2)
(units of pi), since theta and theta + 2pi differ only by the phase -1.
``GATE_ROTATIONS`` is the one table from named gates to rotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

LETTERS = ("I", "X", "Y", "Z")

_PHASE_STR = {0: "", 1: "i", 2: "-", 3: "-i"}
_PHASE_VAL = {0: 1, 1: 1j, 2: -1, 3: -1j}

_set = object.__setattr__


class SignedPauliString:
    """A Pauli tensor with a global phase i^phase_pow.

    X on ``x - z``, Y on ``x & z``, Z on ``z - x`` and I on every other
    qubit.  ``SignedPauliString(letters, phase_pow)`` builds one from a map
    of qubit ids to letters.  Values are immutable.
    """

    __slots__ = ("x", "z", "phase_pow")

    def __init__(self, letters: Optional[Mapping] = None, phase_pow: int = 0):
        x, z = set(), set()
        for q, l in (letters or {}).items():
            if l not in LETTERS:
                raise ValueError(f"bad Pauli letter {l!r} on qubit {q!r}")
            if l in ("X", "Y"):
                x.add(q)
            if l in ("Z", "Y"):
                z.add(q)
        _set(self, "x", frozenset(x))
        _set(self, "z", frozenset(z))
        _set(self, "phase_pow", phase_pow % 4)

    @staticmethod
    def from_xz(x, z, phase_pow: int = 0) -> "SignedPauliString":
        """The string with X part ``x`` and Z part ``z`` (qubit id sets)."""
        s = object.__new__(SignedPauliString)
        _set(s, "x", frozenset(x))
        _set(s, "z", frozenset(z))
        _set(s, "phase_pow", phase_pow % 4)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("SignedPauliString is immutable")

    def __reduce__(self):
        return SignedPauliString.from_xz, (self.x, self.z, self.phase_pow)

    # -- basic views ---------------------------------------------------

    @property
    def letters(self) -> dict:
        """Qubit id -> non-identity letter (a fresh dict)."""
        out = {q: "Z" for q in self.z - self.x}
        out.update((q, "Y" if q in self.z else "X") for q in self.x)
        return out

    @property
    def support(self) -> frozenset:
        return self.x | self.z

    @property
    def phase(self) -> complex:
        return _PHASE_VAL[self.phase_pow]

    def letter(self, qubit) -> str:
        if qubit in self.x:
            return "Y" if qubit in self.z else "X"
        return "Z" if qubit in self.z else "I"

    def is_identity_string(self) -> bool:
        return not (self.x or self.z)

    def is_hermitian(self) -> bool:
        return self.phase_pow in (0, 2)

    @property
    def sign(self) -> int:
        """+1/-1 for Hermitian strings."""
        if not self.is_hermitian():
            raise ValueError("string has imaginary phase, no real sign")
        return 1 if self.phase_pow == 0 else -1

    def unsigned(self) -> "SignedPauliString":
        return self.from_xz(self.x, self.z, 0)

    def __neg__(self) -> "SignedPauliString":
        return self.from_xz(self.x, self.z, self.phase_pow + 2)

    def times_i(self) -> "SignedPauliString":
        return self.from_xz(self.x, self.z, self.phase_pow + 1)

    def __hash__(self):
        return hash((self.x, self.z, self.phase_pow))

    def __eq__(self, other):
        if not isinstance(other, SignedPauliString):
            return NotImplemented
        return self.x == other.x and self.z == other.z and self.phase_pow == other.phase_pow

    def __mul__(self, other: "SignedPauliString") -> "SignedPauliString":
        return multiply(self, other)

    def __repr__(self):
        return f"SignedPauliString({self.letters!r}, {self.phase_pow})"

    # -- bits and relabelling --------------------------------------------

    def bits(self, pos: Mapping) -> Tuple[int, int]:
        """(X mask, Z mask) with qubit q at bit ``pos[q]``."""
        x = z = 0
        for q in self.x:
            x |= 1 << pos[q]
        for q in self.z:
            z |= 1 << pos[q]
        return x, z

    def relabelled(self, mapping: Mapping) -> "SignedPauliString":
        """The same string with qubit q renamed to ``mapping[q]``."""
        return self.from_xz((mapping[q] for q in self.x), (mapping[q] for q in self.z),
                            self.phase_pow)

    # -- formatting ----------------------------------------------------

    def format(self, qubit_order: Optional[Sequence] = None) -> str:
        """Serialize as e.g. ``-iX(a)Z(o1)``; identity is ``I``."""
        support = self.support
        qubits = qubit_order if qubit_order is not None else sorted(support, key=str)
        body = "".join(f"{self.letter(q)}({q})" for q in qubits if q in support)
        return _PHASE_STR[self.phase_pow] + (body or "I")

    def __str__(self):
        return self.format()


def identity_string() -> SignedPauliString:
    return SignedPauliString.from_xz((), ())


def single(qubit, letter: str, sign: int = 1) -> SignedPauliString:
    return SignedPauliString({qubit: letter}, 0 if sign == 1 else 2)


def from_letter_map(letters: Mapping, sign: int = 1) -> SignedPauliString:
    return SignedPauliString(letters, 0 if sign == 1 else 2)


def multiply(a: SignedPauliString, b: SignedPauliString) -> SignedPauliString:
    """Exact group product; qubits missing from either factor act as I.

    With Y = iXZ each factor is i^(k + |x&z|) X^x Z^z; moving Z^az past
    X^bx costs (-1)^|az&bx|, and the product's own Ys are taken back out.
    """
    x = a.x ^ b.x
    z = a.z ^ b.z
    k = (a.phase_pow + b.phase_pow + len(a.x & a.z) + len(b.x & b.z)
         + 2 * len(a.z & b.x) - len(x & z))
    return SignedPauliString.from_xz(x, z, k)


def commutes(a: SignedPauliString, b: SignedPauliString) -> bool:
    """True iff the symplectic product |a.x & b.z| + |a.z & b.x| is even."""
    return not (len(a.x & b.z) + len(a.z & b.x)) & 1


def parse_string(text: str) -> SignedPauliString:
    """Parse the ``-iX(a)Z(o1)`` serialization format."""
    s = text.strip()
    k = 0
    if s.startswith("-i"):
        k, s = 3, s[2:]
    elif s.startswith("i"):
        k, s = 1, s[1:]
    elif s.startswith("-"):
        k, s = 2, s[1:]
    elif s.startswith("+"):
        s = s[1:]
    if s == "I" or s == "":
        return SignedPauliString({}, k)
    letters = {}
    i = 0
    while i < len(s):
        l = s[i]
        if l not in ("X", "Y", "Z") or i + 1 >= len(s) or s[i + 1] != "(":
            raise ValueError(f"cannot parse Pauli string {text!r}")
        j = s.index(")", i + 2)
        q = s[i + 2 : j]
        if not q or q in letters:
            raise ValueError(f"bad qubit id in {text!r}")
        letters[q] = l
        i = j + 1
    return SignedPauliString(letters, k)


# -- rotations ----------------------------------------------------------


def angle_mod2(a) -> Fraction:
    """An angle in units of pi as a Fraction in [0, 2), not rebuilt if it is one."""
    return a if type(a) is Fraction and 0 <= a.numerator < 2 * a.denominator else Fraction(a) % 2


@dataclass(frozen=True)
class Rotation:
    """``exp(i * angle/2 * string)`` up to global phase, with angle an exact
    multiple of pi.

    ``angle`` is stored in units of pi, normalized into [0, 2).  The string
    phase must be +-1 so the operator is unitary.
    """

    string: SignedPauliString
    angle: Fraction

    def __post_init__(self):
        if not self.string.is_hermitian():
            raise ValueError("rotation axis must have a +-1 phase")
        object.__setattr__(self, "angle", angle_mod2(self.angle))

    def is_clifford(self) -> bool:
        """True iff the angle is a multiple of pi/2."""
        return (self.angle * 2).denominator == 1

    def is_identity(self) -> bool:
        return self.angle == 0 or self.string.is_identity_string()

    def equivalent(self, other: "Rotation") -> bool:
        """Operator equality up to global phase: (-P, theta) == (P, -theta)."""
        if self.string == other.string and self.angle == other.angle:
            return True
        return self.string == -other.string and self.angle + other.angle in (0, 2)

    def __str__(self):
        return f"({self.string}, {self.angle}*pi)"


def reorder_push(quarter: Rotation, b: SignedPauliString) -> SignedPauliString:
    """Return b' with ``exp(i t/2 A) b = b' exp(i t/2 A)`` for Clifford t.

    For anticommuting A, b this is i*A*b at t = pi/2, -b at t = pi and
    -i*A*b at t = 3pi/2; commuting pairs pass through unchanged.
    """
    if not quarter.is_clifford():
        raise ValueError("reorder rules need a multiple of pi/2")
    a = quarter.string
    if commutes(a, b):
        return b
    t = quarter.angle
    if t == 0:
        return b
    if t == 1:
        return -b
    prod = multiply(a, b).times_i()
    return prod if t == Fraction(1, 2) else -prod


HALF = Fraction(1, 2)


def _rot(letters: Mapping, angle) -> Rotation:
    return Rotation(SignedPauliString(letters), angle)


# Named gate -> rotations, earliest applied first, each equal to the gate
# up to global phase.  An entry takes the gate's qubits and then its angle
# (units of pi), so a wrong qubit count raises TypeError.
GATE_ROTATIONS = {
    "CX": lambda c, t, a: [_rot({t: "X"}, HALF), _rot({c: "Z"}, HALF),
                           _rot({c: "Z", t: "X"}, -HALF)],
    "CZ": lambda c, t, a: [_rot({t: "Z"}, HALF), _rot({c: "Z"}, HALF),
                           _rot({c: "Z", t: "Z"}, -HALF)],
    "H": lambda q, a: [_rot({q: "Z"}, -HALF), _rot({q: "X"}, -HALF), _rot({q: "Z"}, -HALF)],
    "RZ": lambda q, a: [_rot({q: "Z"}, -Fraction(a))],
    "RX": lambda q, a: [_rot({q: "X"}, -Fraction(a))],
    "S": lambda q, a: [_rot({q: "Z"}, -HALF)],
    "Sdg": lambda q, a: [_rot({q: "Z"}, HALF)],
    "X": lambda q, a: [_rot({q: "X"}, 1)],
    "Z": lambda q, a: [_rot({q: "Z"}, 1)],
}


def gate_to_exponentials(gate: str, qubits: Sequence, angle: Optional[Fraction] = None) -> list:
    """Decompose a named gate into rotations, in operator-product order.

    The returned list multiplies left-to-right to the gate up to global
    phase, i.e. the *last* element acts first on a state: the
    ``GATE_ROTATIONS`` entry reversed.  Angles are in units of pi.
    """
    if gate not in GATE_ROTATIONS:
        raise ValueError(f"unknown gate {gate!r}")
    return GATE_ROTATIONS[gate](*qubits, angle)[::-1]
