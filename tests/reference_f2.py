"""Reference GF(2) routines, kept from the code the single elimination on
bit-mask columns replaced.

Here a system is an ``F2Matrix`` over compressed columns 0..cols-1,
``gauss`` keeps a transform record of the original rows combined into
each echelon row, and ``solve`` takes its right-hand side as a list of
bits (or an int over rows) and reads it through that record.  The
differential tests compare ``pauliflow.f2`` against these; nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class F2Matrix:
    """A rows x cols bit matrix over GF(2)."""

    rows: List[int]
    cols: int

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "F2Matrix":
        if cols is None:
            cols = len(data[0]) if data else 0
        rows = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged matrix data")
            rows.append(sum(1 << j for j, v in enumerate(r) if v & 1))
        return cls(rows, cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def gauss(m: F2Matrix) -> Tuple[F2Matrix, int, List[int], List[int]]:
    """Row-reduce to reduced echelon form.

    Returns (echelon, rank, pivot columns, transform) where transform[i]
    is the bit mask of original rows combined into echelon row i, so
    echelon = transform @ m over GF(2).
    """
    rows = list(m.rows)
    n = len(rows)
    record = [1 << i for i in range(n)]
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        bit = 1 << c
        pivot = next((i for i in range(r, n) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        record[r], record[pivot] = record[pivot], record[r]
        for i in range(n):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
                record[i] ^= record[r]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return F2Matrix(rows, m.cols), r, pivots, record


def solve(m: F2Matrix, b: Sequence[int]) -> Optional[int]:
    """Solve M x = b; return one solution or None.

    b may be a list of bits or an int mask over rows.  Free variables are
    set to 0 in the solution; ``null_space`` gives the rest.
    """
    if isinstance(b, int):
        bmask = b
        blen = m.nrows
    else:
        blen = len(b)
        bmask = sum(1 << i for i, v in enumerate(b) if v & 1)
    if blen != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    _, rank, pivots, record = gauss(m)
    rhs = [_parity(record[i] & bmask) for i in range(m.nrows)]
    for i in range(rank, m.nrows):
        if rhs[i]:
            return None
    x = 0
    for i, c in enumerate(pivots):
        if rhs[i]:
            x |= 1 << c
    return x


def null_space(m: F2Matrix) -> List[int]:
    """Basis of {x : M x = 0}; size = cols - rank."""
    echelon, rank, pivots, _ = gauss(m)
    return _null_basis(echelon, rank, pivots)


def rank(m: F2Matrix) -> int:
    return gauss(m)[1]


def in_span(rows: Sequence[int], cols: int, target: int) -> Optional[int]:
    """If target is in the row span, return a mask of the combining rows."""
    m = F2Matrix(list(rows), cols)
    echelon, r, pivots, record = gauss(m)
    acc = target
    combo = 0
    for i, c in enumerate(pivots):
        if acc & (1 << c):
            acc ^= echelon.rows[i]
            combo ^= record[i]
    return combo if acc == 0 else None


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _null_basis(echelon: F2Matrix, rank: int, pivots: List[int]) -> List[int]:
    pivot_set = set(pivots)
    basis = []
    for free in range(echelon.cols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for i, c in enumerate(pivots):
            if echelon.rows[i] & (1 << free):
                vec |= 1 << c
        basis.append(vec)
    return basis
