import inspect
import random
from fractions import Fraction

import pytest

from noethops import linalg
from noethops.poly import Poly, RationalFunction

from oracles import dense_in_row_space, dense_kernel_basis, dense_rref, dense_rref_last_leading, rank


def test_rref_simple():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(2)}]
    reduced, pivots = linalg.rref(rows, 2)
    assert pivots == [0]
    assert reduced == [{0: Fraction(1), 1: Fraction(2)}]


def test_kernel_matches_rank_nullity():
    rng = random.Random(3)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        dense = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        rows = [_sparse(row) for row in dense]
        r = rank(rows, ncols)
        kernel = linalg.kernel_basis(rows, ncols)
        assert len(kernel) == ncols - r
        for v in kernel:
            for row in rows:
                assert sum(a * v.get(j, 0) for j, a in row.items()) == 0


def test_row_space_membership():
    rows = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    reduced, pivots = linalg.rref(rows, 3)
    assert linalg.in_row_space(reduced, pivots, {0: Fraction(1), 1: Fraction(1), 2: Fraction(2)})
    assert not linalg.in_row_space(reduced, pivots, {2: Fraction(1)})


def test_rref_over_rational_functions():
    y = Poly.variable(1, 0)
    one = Poly.one(1)
    rf = lambda num, den=None: RationalFunction(num, den)
    rows = [{0: rf(y), 1: rf(one)}, {0: rf(y * y), 1: rf(y)}]
    reduced, pivots = linalg.rref(rows, 2)
    assert pivots == [0]
    kernel = linalg.kernel_basis(rows, 2)
    assert len(kernel) == 1
    v = kernel[0]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == rf(Poly.zero(1))


# --- sparse against the dense reference (tests/oracles.py) ----------------------


def _sparse(row: list) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def _dense(row: dict, ncols: int, zero) -> list:
    return [row.get(j, zero) for j in range(ncols)]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _rational_function(rng: random.Random) -> RationalFunction:
    """A nonzero element of Q(u) with linear numerator and denominator."""
    u, one = Poly.variable(1, 0), Poly.one(1)
    num = u * _rational(rng) + one * rng.randint(-2, 2)
    den = u * rng.randint(0, 2) + one * _rational(rng)
    return RationalFunction(num if num else one, den)


Q_FIELD = (_rational, Fraction(0), Fraction(1))
QU_FIELD = (_rational_function, RationalFunction(Poly.zero(1)), RationalFunction(Poly.one(1)))


def _random_matrix(rng: random.Random, nrows: int, ncols: int, entry, zero) -> list[list]:
    """Sparse-ish random rows with zero rows, duplicate rows and all-zero
    columns mixed in, and an empty tail of columns no row reaches."""
    support = max(1, ncols - rng.randint(0, 2))
    empty_cols = {c for c in range(support) if rng.random() < 0.2}
    density = rng.choice([0.15, 0.35, 0.7])
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows.append([zero] * ncols)
        elif roll < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([
                entry(rng) if c < support and c not in empty_cols and rng.random() < density else zero
                for c in range(ncols)
            ])
    return rows


def _assert_agrees_with_dense(dense_rows: list[list], ncols: int, field, rng: random.Random) -> None:
    entry, zero, one = field
    rows = [_sparse(row) for row in dense_rows]
    before = [dict(row) for row in rows]

    reduced, pivots = linalg.rref(rows, ncols)
    want_reduced, want_pivots = dense_rref(dense_rows, ncols)
    assert rows == before  # the input rows are not modified
    assert pivots == want_pivots
    assert [_dense(row, ncols, zero) for row in reduced] == want_reduced
    assert all(x for row in reduced for x in row.values())  # no stored zeros
    assert rank(rows, ncols) == len(want_pivots)

    kernel = linalg.kernel_basis(rows, ncols)
    assert [_dense(v, ncols, zero) for v in kernel] == dense_kernel_basis(dense_rows, ncols, one, zero)
    assert all(list(v) == sorted(v) for v in kernel)  # keys ascend

    # the form with last-column pivots, and the kernel's own RREF read off it
    last, last_pivots = linalg.rref(rows, ncols, last_leading=True)
    want_last, want_last_pivots = dense_rref_last_leading(dense_rows, ncols)
    assert rows == before
    assert last_pivots == want_last_pivots
    assert [_dense(row, ncols, zero) for row in last] == want_last
    assert all(x for row in last for x in row.values())
    kernel_rref = list(linalg.kernel_vectors(last, last_pivots, ncols))
    dense_kernel = dense_kernel_basis(dense_rows, ncols, one, zero)
    assert [_dense(v, ncols, zero) for v in kernel_rref] == dense_rref(dense_kernel, ncols)[0]
    assert all(list(v) == sorted(v) for v in kernel_rref)

    candidates = [[entry(rng) if rng.random() < 0.5 else zero for _ in range(ncols)] for _ in range(3)]
    if dense_rows:  # a combination of the rows is always in the row space
        combo = [zero] * ncols
        for row in dense_rows:
            factor = entry(rng)
            combo = [a + factor * b for a, b in zip(combo, row)]
        candidates.append(combo)
    candidates.append([zero] * ncols)
    for v in candidates:
        want = dense_in_row_space(want_reduced, want_pivots, v)
        assert linalg.in_row_space(reduced, pivots, _sparse(v)) == want
        assert linalg.in_row_space(last, last_pivots, _sparse(v)) == want


@pytest.mark.parametrize("seed", range(40))
def test_sparse_matches_dense_over_q(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 14)
    _assert_agrees_with_dense(_random_matrix(rng, nrows, ncols, _rational, Fraction(0)), ncols, Q_FIELD, rng)


@pytest.mark.parametrize("seed", range(12))
def test_sparse_matches_dense_over_rational_functions(seed):
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    matrix = _random_matrix(rng, nrows, ncols, _rational_function, QU_FIELD[1])
    _assert_agrees_with_dense(matrix, ncols, QU_FIELD, rng)


@pytest.mark.parametrize("field", [Q_FIELD, QU_FIELD], ids=["Q", "Q(u)"])
def test_sparse_matches_dense_on_edge_shapes(field):
    entry, zero, _ = field
    rng = random.Random(7)
    row = [entry(rng), zero, entry(rng), zero]
    shapes = [
        ([], 0),  # the empty matrix
        ([], 3),  # no rows: the kernel is everything
        ([[zero] * 4, [zero] * 4], 4),  # only zero rows
        ([row, list(row), [zero] * 4, list(row)], 4),  # duplicates and a zero row
        ([row + [zero] * 5], 9),  # ncols beyond every row's support
    ]
    for dense_rows, ncols in shapes:
        _assert_agrees_with_dense(dense_rows, ncols, field, rng)


@pytest.mark.parametrize("seed", range(16))
def test_kernel_rref_reader_yields_the_kernel_rref_in_order(seed):
    # the kernel read off the form with last-column pivots, one free column
    # at a time, is the dense kernel's RREF, row by row, and each row is
    # built only when it is taken
    rng = random.Random(2000 + seed)
    entry, zero, one = field = QU_FIELD if seed % 4 == 3 else Q_FIELD
    nrows, ncols = (rng.randint(1, 5), rng.randint(1, 6)) if field is QU_FIELD else (rng.randint(1, 12), rng.randint(1, 14))
    dense_rows = _random_matrix(rng, nrows, ncols, entry, zero)
    reduced, pivots = linalg.rref([_sparse(row) for row in dense_rows], ncols, last_leading=True)
    reader = linalg.kernel_vectors(reduced, pivots, ncols)
    assert inspect.isgenerator(reader)
    read = list(reader)
    want = dense_rref(dense_kernel_basis(dense_rows, ncols, one, zero), ncols)[0]
    assert [_dense(v, ncols, zero) for v in read] == want
