import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from f4diagrams.exactla import inverse, sparse_nullspace


def _rows(a):
    return ({c: v for c, v in enumerate(r)} for r in a)


def _mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_inverse_known():
    m = [[2, 1], [1, 1]]
    inv = inverse(m)
    assert inv == [[1, -1], [-1, 2]]
    assert _mul(m, inv) == _eye(2)


def test_inverse_rejects_singular():
    m = [[1, 2], [2, 4]]
    with pytest.raises(ValueError):
        inverse(m)


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    rank, ns = sparse_nullspace(_rows(m), 3)
    assert rank == 2
    assert len(ns) == 1
    v = ns[0]
    assert any(v)
    assert _mul(m, [[x] for x in v]) == [[0]] * len(m)


def test_random_inverse_round_trip():
    rng = random.Random(40415)
    checked = 0
    while checked < 10:
        m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if sparse_nullspace(_rows(m), 3)[0] < 3:
            continue
        assert _mul(m, inverse(m)) == _eye(3)
        checked += 1


@st.composite
def _sparse_systems(draw):
    """Up to 12 rows over up to 8 columns, entries -3..3, mostly zero.

    Rows are drawn from a small pool, so duplicate and zero rows are common.
    """
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    pool = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return ncols, [pool[i] for i in picks]


@settings(max_examples=200, deadline=None)
@given(_sparse_systems())
def test_sparse_nullspace_properties(case):
    # An oracle that needs no second eliminator: every vector solves the
    # system, the vectors carry the echelon pattern (so they are
    # independent), rank + nullity = ncols, and row rank = column rank.
    ncols, rows = case
    rank, got = sparse_nullspace(_rows(rows), ncols)
    for v in got:
        assert _mul(rows, [[x] for x in v]) == [[0]] * len(rows)
    # a vector's free column is its last nonzero entry: each pivot column
    # it touches lies left of it
    free = [max(c for c, x in enumerate(v) if x) for v in got]
    assert free == sorted(set(free))
    for v, fc in zip(got, free):
        assert v[fc] == 1 and all(v[c] == 0 for c in free if c != fc)
    assert rank + len(got) == ncols
    assert sparse_nullspace(_rows(zip(*rows)), len(rows))[0] == rank


def test_sparse_nullspace_of_no_rows_is_everything():
    assert sparse_nullspace([], 2) == (0, [[1, 0], [0, 1]])
