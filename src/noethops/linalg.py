"""Exact sparse row reduction over any exact field.

A row (or vector) is a dict from column index to its nonzero entry; absent
columns are zero.  Entries only need +, -, *, bool and ==, and division
through `poly.qdiv`; rationals (ints, and `fractions.Fraction` where there
is a denominator) and `poly.RationalFunction` both qualify.  Pivoting
takes the first nonzero column (or, on request, the last), never by
magnitude, so the reduced echelon form is the unique one and results are
deterministic.
"""

from __future__ import annotations

from bisect import bisect_left

from .poly import qdiv

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


def rref(rows: list[Row], ncols: int, last_leading: bool = False) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of the rows (which are not modified).

    Returns (nonzero rows in ascending pivot order, pivot column per row).
    Every column index must lie below `ncols`.  A row's pivot is its first
    nonzero column, or its last with `last_leading`: the same form of the
    rows with their columns reversed.
    """
    lead = max if last_leading else min
    by_pivot: dict[int, Row] = {}
    for source in rows:
        row = {col: x for col, x in source.items() if x}
        # forward elimination: clear the leading entry while an earlier row
        # has its pivot there; the leading surviving column becomes a pivot
        while row:
            col = lead(row)
            pivot_row = by_pivot.get(col)
            if pivot_row is None:
                pivot = row[col]
                by_pivot[col] = {c: qdiv(x, pivot) for c, x in row.items()}
                break
            _subtract_multiple(row, row[col], pivot_row)
    pivots = sorted(by_pivot)
    if pivots and pivots[-1] >= ncols:
        raise ValueError("column index beyond ncols")
    # back substitution, from the pivot nearest the rows' trailing side: a
    # row's entries at other pivot columns are cleared by rows already fully
    # reduced, which have no entry at any other pivot column and so bring in
    # none
    for pc in pivots if last_leading else reversed(pivots):
        row = by_pivot[pc]
        for col in [c for c in row if c != pc and c in by_pivot]:
            _subtract_multiple(row, row[col], by_pivot[col])
    return [by_pivot[pc] for pc in pivots], pivots


def kernel_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {v : M v = 0}, one vector per free column, in column order:
    the canonical one, read off the RREF (`kernel_vectors`)."""
    return list(kernel_vectors(*rref(rows, ncols), ncols))


def kernel_vectors(reduced: list[Row], pivots: list[int], ncols: int):
    """The kernel of a reduced echelon form (`rref`'s result, in either
    form), one vector per free column j in ascending order, built one at a
    time: 1 at j and the negated pivot-row entries of column j at the pivot
    columns.  Each vector's keys ascend.

    Read off the first-column form, this is the canonical basis.  Read off
    the last-column form, vector j is 0 left of j (a row has entries only
    left of its pivot) and 0 at every other free column, so the vectors are
    the kernel's own reduced row echelon form, and a reader that stops
    early builds no row after the last it takes.
    """
    pivot_set = set(pivots)
    at_pivots: dict[int, list] = {}  # free column -> [(pivot column, entry)]
    for row, pc in zip(reduced, pivots):
        for col, x in row.items():
            if col != pc:
                at_pivots.setdefault(col, []).append((pc, -x))
    for col in range(ncols):
        if col not in pivot_set:
            yield dict(sorted([(col, 1), *at_pivots.get(col, ())]))


def in_row_space(reduced: list[Row], pivots: list[int], v: Row) -> bool:
    """Is v a combination of the reduced rows (either `rref` form)?  A row
    is 0 at the other rows' pivots, so v minus v's entry at each pivot
    column times that pivot's row is the residual, and v is in the row space
    exactly when it is 0."""
    residual = {col: x for col, x in v.items() if x}
    for col, x in list(residual.items()):
        k = bisect_left(pivots, col)
        if k < len(pivots) and pivots[k] == col:
            _subtract_multiple(residual, x, reduced[k])
    return not residual
