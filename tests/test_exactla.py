import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from f4diagrams.exactla import RatMatrix, rat_to_str, sparse_nullspace


def test_rat_round_trip():
    for s in ("0", "1", "-1", "7/3", "-22/7", "1000000000000/13"):
        assert rat_to_str(Fraction(s)) == s


def test_identity_and_matmul():
    eye = RatMatrix.identity(3)
    m = RatMatrix.from_rows([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert m.matmul(eye) == m
    assert eye.matmul(m) == m


def test_inverse_known():
    m = RatMatrix.from_rows([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv == RatMatrix.from_rows([[1, -1], [-1, 2]])
    assert m.matmul(inv) == RatMatrix.identity(2)


def test_inverse_rejects_singular():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse()


def test_rank_and_nullspace():
    m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ns = m.nullspace()
    assert len(ns) == 1
    v = ns[0]
    assert any(v)
    assert all(x == 0 for x in m.mul_vec(v))


def test_text_round_trip():
    m = RatMatrix.from_rows([[Fraction(1, 2), -3], [0, Fraction(22, 7)]])
    assert RatMatrix.from_text(m.to_text()) == m


def test_transpose_product_identity():
    # (AB)^T = B^T A^T on seeded random integer matrices
    rng = random.Random(8821)
    for _ in range(25):
        a = RatMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
        )
        b = RatMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        )
        assert a.matmul(b).transpose() == b.transpose().matmul(a.transpose())


def test_random_inverse_round_trip():
    rng = random.Random(40415)
    checked = 0
    while checked < 10:
        m = RatMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        )
        if m.rank() < 3:
            continue
        assert m.matmul(m.inverse()) == RatMatrix.identity(3)
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
def test_sparse_nullspace_matches_dense_rref(case):
    ncols, rows = case
    dense = RatMatrix.from_rows(rows)
    got_rank, got = sparse_nullspace(({c: v for c, v in enumerate(r)} for r in rows), ncols)
    assert got_rank == dense.rank()
    assert got == dense.nullspace()


def test_sparse_nullspace_of_no_rows_is_everything():
    assert sparse_nullspace([], 2) == (0, [[1, 0], [0, 1]])


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1, 2], [3]])
