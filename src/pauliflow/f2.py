"""Dense GF(2) linear algebra: one elimination over bit-packed rows.

A row is a Python int used as a bit mask, and a set of columns is a mask
too, so callers eliminate directly on vertex bits without repacking.
``gauss`` row-reduces on the columns of a mask; bits outside that mask
ride along with their rows, which carries a right-hand side (``solve``)
or a record of the combined rows (``in_span``).  Systems here are small
(one row or column per graph vertex), so dense elimination is the right
tool.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import List, Optional, Sequence, Tuple


def gauss(rows: Sequence[int], cols: int) -> Tuple[List[int], List[int]]:
    """Row-reduce on the columns in the mask cols, lowest first.

    Returns (reduced rows, pivot columns): row i of the result has its
    pivot at column ``pivots[i]`` and is the only row with that bit; the
    rows past ``len(pivots)`` are zero on cols.  The pivots are the
    greedy column basis (a column is a pivot iff it is not in the span of
    the columns before it).  Bits outside cols ride along: every result
    row is the XOR of the original rows combined into it.
    """
    rows = list(rows)
    n = len(rows)
    pivots: List[int] = []
    for c in bits(cols):
        r = len(pivots)
        if r == n:
            break
        bit = 1 << c
        for i in range(r, n):
            if rows[i] & bit:
                break
        else:
            continue
        pr = rows[i]
        rows[i] = rows[r]
        rows = [x ^ pr if x & bit else x for x in rows]
        rows[r] = pr
        pivots.append(c)
    return rows, pivots


def solve(rows: Sequence[int], cols: int, rhs: int) -> Optional[int]:
    """Solve the system whose unknowns are the columns in cols and whose
    right-hand side is the single column bit rhs (above every column in
    cols; otherwise ValueError).  Returns the solution supported on the
    pivot columns, or None if there is none; ``null_space`` gives the rest."""
    if rhs & (rhs - 1) or rhs <= cols:
        raise ValueError("the right-hand side must be one bit above every column")
    reduced, pivots = gauss(rows, cols)
    if any(x & rhs for x in reduced[len(pivots):]):
        return None
    return sum(1 << c for x, c in zip(reduced, pivots) if x & rhs)


def null_space(rows: Sequence[int], cols: int) -> List[int]:
    """Basis of {x on cols : every row has even overlap with x}, one vector
    per non-pivot column, lowest first; its size is |cols| - rank."""
    reduced, pivots = gauss(rows, cols)
    pivot_mask = sum(1 << c for c in pivots)
    return [(1 << f) | sum(1 << c for x, c in zip(reduced, pivots) if (x >> f) & 1)
            for f in bits(cols & ~pivot_mask)]


def rank(rows: Sequence[int]) -> int:
    return len(gauss(rows, reduce(or_, rows, 0))[1])


def in_span(rows: Sequence[int], target: int) -> Optional[int]:
    """If target is in the row span, return a mask of the combining rows."""
    width = reduce(or_, rows, target).bit_length()
    reduced, pivots = gauss([r | 1 << (width + i) for i, r in enumerate(rows)], (1 << width) - 1)
    acc = target
    for x, c in zip(reduced, pivots):
        if (acc >> c) & 1:
            acc ^= x
    return None if acc & ((1 << width) - 1) else acc >> width


def bits(mask: int):
    """Set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
