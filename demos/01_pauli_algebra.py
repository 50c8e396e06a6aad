"""Signed Pauli strings: exact products, commutation and reorder rules.

Strings live over named qubits with a global phase in {+1, -1, +i, -i};
rotations (A, theta) denote exp(i*theta/2*A) with theta a rational multiple
of pi, so Clifford detection is exact.
"""

from fractions import Fraction

from pauliflow.pauli import (
    Rotation, commutes, from_letter_map, gate_to_exponentials, multiply,
    reorder_push, single,
)

x1, z1 = single("q1", "X"), single("q1", "Z")
print("X(q1) * Z(q1) =", multiply(x1, z1))  # -iY

a = from_letter_map({"q1": "Z", "q2": "Y"})
b = from_letter_map({"q1": "Z", "q2": "X"})
print(f"({a}) * ({b}) =", multiply(a, b))
print(f"commutes({a}, {b}) ->", commutes(a, b))

# Reorder rule: exp(i pi/4 X) Z = Y exp(i pi/4 X)
quarter = Rotation(single("q1", "X"), Fraction(1, 2))
print("pushing Z(q1) through a quarter X turn gives", reorder_push(quarter, z1))

# Multiplying a rotation axis by a commuting stabilizer of its target
axis = from_letter_map({"1": "Y", "2": "Z"})
stab = from_letter_map({"1": "Z", "2": "X"})
print("product rotation axis:", multiply(axis, stab))

# Common gates as Pauli exponentials (operator order, leftmost acts last)
print("\nCZ(c,t) as exponentials:")
for r in gate_to_exponentials("CZ", ("c", "t")):
    print("  ", r)
print("H(q) as exponentials:")
for r in gate_to_exponentials("H", ("q",)):
    print("  ", r)
