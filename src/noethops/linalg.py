"""Exact sparse row reduction over any exact field.

A row (or vector) is a dict from column index to its nonzero entry; absent
columns are zero.  Entries only need +, -, *, /, bool and ==;
`fractions.Fraction` and `poly.RationalFunction` both qualify.  Pivoting
takes the first nonzero column, never by magnitude, so the reduced row
echelon form is the unique one and results are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

Row = dict  # column index -> nonzero entry


def _subtract_multiple(row: Row, factor, other: Row) -> None:
    """row -= factor * other, in place, dropping entries that cancel."""
    for col, y in other.items():
        x = row.get(col)
        value = -(factor * y) if x is None else x - factor * y
        if value:
            row[col] = value
        else:
            del row[col]


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of the rows (which are not modified).

    Returns (nonzero rows in ascending pivot order, pivot column per row).
    Every column index must lie below `ncols`.
    """
    by_pivot: dict[int, Row] = {}
    for source in rows:
        row = {col: x for col, x in source.items() if x}
        # forward elimination: clear the leading entry while an earlier row
        # has its pivot there; the first surviving column becomes a pivot
        while row:
            col = min(row)
            pivot_row = by_pivot.get(col)
            if pivot_row is None:
                inv = 1 / row[col]
                by_pivot[col] = {c: x * inv for c, x in row.items()}
                break
            _subtract_multiple(row, row[col], pivot_row)
    pivots = sorted(by_pivot)
    if pivots and pivots[-1] >= ncols:
        raise ValueError("column index beyond ncols")
    # back substitution, last pivot first: a row's entries at later pivot
    # columns are cleared by rows already fully reduced, which have no entry
    # at any other pivot column and so bring in none
    for pc in reversed(pivots):
        row = by_pivot[pc]
        for col in [c for c in row if c != pc and c in by_pivot]:
            _subtract_multiple(row, row[col], by_pivot[col])
    return [by_pivot[pc] for pc in pivots], pivots


def rank(rows: list[Row], ncols: int) -> int:
    reduced, pivots = rref(rows, ncols)
    return len(pivots)


def kernel_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {v : M v = 0}, one vector per free column, in column order.

    The basis is the canonical one read off the RREF: vector j has 1 at
    its free column and the negated pivot-row entries of column j at the
    pivot columns.  Each vector's keys ascend.
    """
    return list(_kernel_vectors(rows, ncols, range(ncols)))


def _kernel_vectors(rows: list[Row], ncols: int, columns):
    """`kernel_basis`'s vectors, one per free column as `columns` lists them."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    at_pivots: dict[int, list] = {}  # free column -> [(pivot column, entry)]
    for row, pc in zip(reduced, pivots):
        for col, x in row.items():
            if col != pc:
                at_pivots.setdefault(col, []).append((pc, -x))
    for col in columns:
        if col in pivot_set:
            continue
        # pivots ascend, and a row has entries only right of its pivot
        entries = at_pivots.get(col, [])
        entries.append((col, Fraction(1)))
        yield dict(entries)


def kernel_rref(rows: list[Row], ncols: int) -> list[Row]:
    """The reduced row echelon form of {v : M v = 0}, pivots ascending."""
    return list(iter_kernel_rref(rows, ncols))


def iter_kernel_rref(rows: list[Row], ncols: int):
    """`kernel_rref`'s rows, one at a time and in order, so that a reader
    that stops early builds no row after the last it takes.

    With the columns reversed, `kernel_basis` has 1 at each vector's last
    column and 0 at the other vectors' last columns; mapped back, that is
    a leading 1 at the first column, 0 at the other leading columns, which
    is the unique RREF.  So no reduction of the kernel itself is needed.
    """
    last = ncols - 1
    flipped = [{last - col: x for col, x in row.items()} for row in rows]
    for v in _kernel_vectors(flipped, ncols, reversed(range(ncols))):
        yield {last - col: v[col] for col in reversed(v)}


def in_row_space(reduced: list[Row], pivots: list[int], v: Row) -> bool:
    """Is v a combination of the RREF rows?  A row is 0 at the other rows'
    pivots, so v minus v's entry at each pivot column times that pivot's
    row is the residual, and v is in the row space exactly when it is 0."""
    residual = {col: x for col, x in v.items() if x}
    for col, x in list(residual.items()):
        k = bisect_left(pivots, col)
        if k < len(pivots) and pivots[k] == col:
            _subtract_multiple(residual, x, reduced[k])
    return not residual
