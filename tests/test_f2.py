"""GF(2) elimination, solving and null spaces against brute-force checks."""

import random

import pytest

from pauliflow.f2 import F2Matrix, gauss, in_span, null_space, rank, solve


def mat(rows):
    return F2Matrix.from_lists(rows)


def mul(m: F2Matrix, x: int) -> int:
    out = 0
    for i, row in enumerate(m.rows):
        out |= (bin(row & x).count("1") & 1) << i
    return out


def test_gauss_identity():
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_gauss_zero():
    assert rank(F2Matrix([0, 0], 3)) == 0


def test_gauss_rank_one():
    m = mat([[1, 1], [1, 1]])
    assert rank(m) == 1
    # brute-force: row space has exactly two vectors
    rows = {0, m.rows[0], m.rows[1], m.rows[0] ^ m.rows[1]}
    assert len(rows) == 2


def test_gauss_transform_record():
    rng = random.Random(1)
    for _ in range(100):
        rows = [rng.randrange(1 << 6) for _ in range(5)]
        m = F2Matrix(rows, 6)
        ech, r, piv, rec = gauss(m)
        for i in range(5):
            combined = 0
            for j in range(5):
                if rec[i] & (1 << j):
                    combined ^= rows[j]
            assert combined == ech.rows[i]


def test_solve_identity():
    m = mat([[1, 0], [0, 1]])
    assert solve(m, [1, 0]) == 0b01
    assert null_space(m) == []


def test_solve_inconsistent():
    assert solve(F2Matrix([0], 2), [1]) is None


def test_solve_underdetermined():
    assert solve(mat([[1, 1]]), [0]) == 0
    assert null_space(mat([[1, 1]])) == [0b11]
    # brute force over candidates
    sols = {c for c in range(4) if bin(c & 0b11).count("1") % 2 == 0}
    assert sols == {0, 3}


def test_solve_membership_property():
    rng = random.Random(2)
    for _ in range(200):
        n, c = rng.randrange(1, 33), rng.randrange(1, 33)
        m = F2Matrix([rng.randrange(1 << c) for _ in range(n)], c)
        x = rng.randrange(1 << c)
        b = mul(m, x)
        part = solve(m, b)
        assert part is not None
        assert mul(m, part) == b
        basis = null_space(m)
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
    assert null_space(mat([[1, 0], [0, 1]])) == []
    assert len(null_space(F2Matrix([0, 0], 2))) == 2
    rng = random.Random(3)
    for _ in range(200):
        n, c = rng.randrange(1, 10), rng.randrange(1, 10)
        m = F2Matrix([rng.randrange(1 << c) for _ in range(n)], c)
        basis = null_space(m)
        assert len(basis) == c - rank(m)
        for vec in basis:
            assert mul(m, vec) == 0


def test_one_free_variable_per_basis_vector():
    m = mat([[1, 1, 0], [0, 0, 0]])
    basis = null_space(m)
    _, r, piv, _ = gauss(m)
    free = [c for c in range(3) if c not in piv]
    assert len(basis) == len(free)
    for vec, f in zip(basis, free):
        assert vec & (1 << f)


def test_in_span():
    rows = [0b011, 0b110]
    assert in_span(rows, 3, 0b101) == 0b11
    assert in_span(rows, 3, 0b111) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(mat([[1, 0]]), [1, 0])
