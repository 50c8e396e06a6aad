"""GF(2) elimination, solving and null spaces against brute-force checks
and against the transform-record routines kept in reference_f2.py."""

import random

import pytest

from pauliflow.f2 import bits, gauss, in_span, null_space, rank, solve
from tests import reference_f2 as ref


def mat(rows):
    """Rows given as lists of bits, column j at bit j."""
    return [sum(1 << j for j, v in enumerate(r) if v) for r in rows]


def mul(rows, x: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= (bin(row & x).count("1") & 1) << i
    return out


def test_gauss_identity():
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_gauss_zero():
    assert rank([0, 0]) == 0


def test_gauss_rank_one():
    m = mat([[1, 1], [1, 1]])
    assert rank(m) == 1
    # brute-force: row space has exactly two vectors
    rows = {0, m[0], m[1], m[0] ^ m[1]}
    assert len(rows) == 2


def test_gauss_ride_along():
    # Bits outside cols end as the XOR of the original rows combined into
    # each result row: with a unit bit per row above the columns they name
    # exactly those rows.
    rng = random.Random(1)
    for _ in range(100):
        rows = [rng.randrange(1 << 6) for _ in range(5)]
        cols = rng.randrange(1 << 6)
        reduced, piv = gauss([r | 1 << (6 + i) for i, r in enumerate(rows)], cols)
        for x in reduced:
            combined = 0
            for j in bits(x >> 6):
                combined ^= rows[j]
            assert combined == x & 0b111111
        for i, c in enumerate(piv):
            assert [(x >> c) & 1 for x in reduced] == [int(j == i) for j in range(5)]
        assert all(x & cols == 0 for x in reduced[len(piv):])


def test_solve_identity():
    m = mat([[1, 0], [0, 1]])
    assert solve([m[0] | 0b100, m[1]], 0b11, 0b100) == 0b01
    assert null_space(m, 0b11) == []


def test_solve_inconsistent():
    assert solve([0b100], 0b11, 0b100) is None


def test_solve_underdetermined():
    assert solve(mat([[1, 1]]), 0b11, 0b100) == 0
    assert null_space(mat([[1, 1]]), 0b11) == [0b11]
    # brute force over candidates
    sols = {c for c in range(4) if bin(c & 0b11).count("1") % 2 == 0}
    assert sols == {0, 3}


def test_solve_membership_property():
    rng = random.Random(2)
    for _ in range(200):
        n, c = rng.randrange(1, 33), rng.randrange(1, 33)
        m = [rng.randrange(1 << c) for _ in range(n)]
        x = rng.randrange(1 << c)
        b = mul(m, x)
        part = solve([r | ((b >> i) & 1) << c for i, r in enumerate(m)], (1 << c) - 1, 1 << c)
        assert part is not None
        assert mul(m, part) == b
        basis = null_space(m, (1 << c) - 1)
        # x must lie in part + span(basis): eliminate diff against the basis
        diff = part ^ x
        rows = list(basis)
        for i in range(len(rows)):
            pivot = rows[i] & -rows[i] if rows[i] else 0
            for j in range(len(rows)):
                if j != i and rows[j] & pivot:
                    rows[j] ^= rows[i]
            if pivot and diff & pivot:
                diff ^= rows[i]
        assert diff == 0


def test_null_space_sizes():
    assert null_space(mat([[1, 0], [0, 1]]), 0b11) == []
    assert len(null_space([0, 0], 0b11)) == 2
    rng = random.Random(3)
    for _ in range(200):
        n, c = rng.randrange(1, 10), rng.randrange(1, 10)
        m = [rng.randrange(1 << c) for _ in range(n)]
        basis = null_space(m, (1 << c) - 1)
        assert len(basis) == c - rank(m)
        for vec in basis:
            assert mul(m, vec) == 0


def test_one_free_variable_per_basis_vector():
    m = mat([[1, 1, 0], [0, 0, 0]])
    basis = null_space(m, 0b111)
    _, piv = gauss(m, 0b111)
    free = [c for c in range(3) if c not in piv]
    assert len(basis) == len(free)
    for vec, f in zip(basis, free):
        assert vec & (1 << f)


def test_in_span():
    rows = [0b011, 0b110]
    assert in_span(rows, 0b101) == 0b11
    assert in_span(rows, 0b111) is None
    assert in_span([], 0) == 0 and in_span([], 1) is None


def test_solve_dimension_mismatch():
    # the right-hand side must be one bit, above every column
    for rhs in (0b01, 0b10, 0b110, 0):
        with pytest.raises(ValueError):
            solve(mat([[1, 0]]), 0b11, rhs)


# -- differential: the same results as the transform-record routines ----------


def compress(mask: int, cols) -> int:
    """The bits of mask on the columns cols, packed to 0..len(cols)-1."""
    return sum(((mask >> c) & 1) << j for j, c in enumerate(cols))


def expand(x: int, cols) -> int:
    return sum(1 << cols[j] for j in bits(x))


def random_system(rng, kind: str):
    """(rows of width w, w, column mask, right-hand side bits) of a
    consistent system, of one with a perturbed right-hand side, or of a
    rank-deficient one (either way); the columns are a random subset of
    0..w-1."""
    w = rng.randrange(1, 24)
    cols = rng.randrange(1, 1 << w)
    k = bin(cols).count("1")
    n = rng.randrange(1, 20)
    if kind == "deficient":  # rows from a span of fewer than min(n, k) vectors
        gens = [rng.randrange(1 << w) for _ in range(rng.randrange(0, max(1, min(n, k))))]
        rows = [0] * n
        for i in range(n):
            for g in gens:
                if rng.random() < 0.5:
                    rows[i] ^= g
    else:
        rows = [rng.randrange(1 << w) for _ in range(n)]
    x = rng.randrange(1 << w) & cols
    b = [bin(r & x & cols).count("1") & 1 for r in rows]
    if kind == "inconsistent" or kind == "deficient" and rng.random() < 0.5:
        y = rng.randrange(1, 1 << n)  # mostly leaves the column span
        b = [v ^ ((y >> i) & 1) for i, v in enumerate(b)]
    return rows, w, cols, b


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "deficient"])
def test_matches_reference(kind):
    rng = random.Random({"consistent": 21, "inconsistent": 22, "deficient": 23}[kind])
    outcomes = set()
    for _ in range(600):
        rows, w, cols, b = random_system(rng, kind)
        colist = list(bits(cols))
        packed = [compress(r, colist) for r in rows]
        m = ref.F2Matrix(packed, len(colist))
        ech, r, piv, record = ref.gauss(m)
        reduced, pivots = gauss([x | 1 << (w + i) for i, x in enumerate(packed)],
                                (1 << len(colist)) - 1)
        assert pivots == piv and len(pivots) == r == rank(packed) == ref.rank(m)
        assert [x & ((1 << w) - 1) for x in reduced] == ech.rows
        assert [x >> w for x in reduced] == record
        want = ref.solve(m, b)
        got = solve([x | b[i] << w for i, x in enumerate(rows)], cols, 1 << w)
        assert got == (None if want is None else expand(want, colist))
        assert null_space(rows, cols) == [expand(v, colist) for v in ref.null_space(m)]
        combo = 0
        for i in bits(rng.randrange(1 << len(rows))):
            combo ^= rows[i]
        for target in (combo, rng.randrange(1 << w)):
            assert in_span(rows, target) == ref.in_span(rows, w, target)
        outcomes.add(want is None)
    assert outcomes == ({True, False} if kind != "consistent" else {False})
