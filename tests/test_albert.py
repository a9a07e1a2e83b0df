import random
from fractions import Fraction

import pytest

from f4diagrams.albert import (
    AlbertElement,
    _jordan_node,
    alb_trace,
    basis_A,
    basis_V,
    bform,
    coords_A,
    coords_V,
    dual_basis_A,
    from_coords_V,
    jordan,
    left_mult_trace,
    oct_mat_mul,
    oct_mat_real_trace,
    project_v,
)
from f4diagrams.diagram import CUP
from f4diagrams.functor import generator_tensors
from f4diagrams.octonion import Octonion


def _random_oct(rng):
    return Octonion([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)])


def _random_albert(rng) -> AlbertElement:
    diag = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    return AlbertElement(diag, [_random_oct(rng) for _ in range(3)])


def _random_traceless(rng) -> AlbertElement:
    return project_v(_random_albert(rng))


_DENOMS = (1, 2, 3, 5, 7, 12)


def _mixed_albert(rng) -> AlbertElement:
    """Entries with denominators coprime to each other and to 12."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice(_DENOMS))

    offs = [Octonion([q() for _ in range(8)]) for _ in range(3)]
    return AlbertElement([q() for _ in range(3)], offs)


def test_products_stay_exact():
    # Results are built without re-coercion; each must hold Fractions only
    # and equal the element the coercing constructor builds from the same
    # entries (jordan) or from independently computed ones (the rest).
    rng = random.Random(22)
    for _ in range(20):
        a, b = _mixed_albert(rng), _mixed_albert(rng)
        k = rng.randint(-5, 5)
        c = Fraction(rng.randint(-5, 5), rng.choice(_DENOMS))
        t = alb_trace(a)
        ab = jordan(a, b)
        cases = [
            (a + b, [u + v for u, v in zip(a.diag, b.diag)], [u + v for u, v in zip(a.off, b.off)]),
            (a - b, [u - v for u, v in zip(a.diag, b.diag)], [u - v for u, v in zip(a.off, b.off)]),
            (-a, [-u for u in a.diag], [-u for u in a.off]),
            (a.scale(k), [u * k for u in a.diag], [u.scale(k) for u in a.off]),
            (a.scale(c), [u * c for u in a.diag], [u.scale(c) for u in a.off]),
            (project_v(a), [u - t / 3 for u in a.diag], a.off),
            (ab, ab.diag, ab.off),
        ]
        for got, diag, off in cases:
            assert all(type(x) is Fraction for x in got.diag), got
            assert all(type(x) is Fraction for o in got.off for x in o.coords), got
            want = AlbertElement(diag, [Octonion(list(o.coords)) for o in off])
            assert got == want and hash(got) == hash(want)
        assert ab == jordan(b, a)


def test_unit_and_commutativity():
    rng = random.Random(99)
    one = AlbertElement.unit()
    for _ in range(20):
        a, b = _random_albert(rng), _random_albert(rng)
        assert jordan(a, one) == a
        assert jordan(a, b) == jordan(b, a)


def test_left_multiplication_trace_factor():
    # operator trace of L_a is nine times the matrix trace of a
    rng = random.Random(123)
    for _ in range(25):
        a = _random_albert(rng)
        assert left_mult_trace(a) == 9 * alb_trace(a)


def test_octonionic_matrix_trace_symmetries():
    rng = random.Random(321)
    for _ in range(25):
        x = _random_albert(rng).to_matrix()
        y = _random_albert(rng).to_matrix()
        z = _random_albert(rng).to_matrix()
        assert oct_mat_real_trace(oct_mat_mul(x, y)) == oct_mat_real_trace(oct_mat_mul(y, x))
        assert oct_mat_real_trace(oct_mat_mul(oct_mat_mul(x, y), z)) == oct_mat_real_trace(
            oct_mat_mul(x, oct_mat_mul(y, z))
        )


def test_trace_associates_over_the_product():
    rng = random.Random(77)
    for _ in range(25):
        a, b, c = (_random_albert(rng) for _ in range(3))
        assert alb_trace(jordan(jordan(a, b), c)) == alb_trace(jordan(a, jordan(b, c)))


def test_projected_cube_identity():
    # pi(pi(a o a) o a) = (1/6) tr(a o a) a on traceless a
    rng = random.Random(4004)
    for _ in range(25):
        a = _random_traceless(rng)
        lhs = project_v(jordan(project_v(jordan(a, a)), a))
        rhs = a.scale(alb_trace(jordan(a, a)) / 6)
        assert lhs == rhs


def test_projected_cube_polarization():
    rng = random.Random(4005)
    for _ in range(15):
        a, b, c = (_random_traceless(rng) for _ in range(3))
        lhs = (
            project_v(jordan(project_v(jordan(a, b)), c))
            + project_v(jordan(project_v(jordan(b, c)), a))
            + project_v(jordan(project_v(jordan(a, c)), b))
        )
        rhs = (
            a.scale(alb_trace(jordan(b, c)) / 6)
            + c.scale(alb_trace(jordan(a, b)) / 6)
            + b.scale(alb_trace(jordan(a, c)) / 6)
        )
        assert lhs == rhs


def _tensor_of(pairs):
    out = {}
    for x, y in pairs:
        cx, cy = coords_A(x), coords_A(y)
        for i, vi in enumerate(cx):
            if not vi:
                continue
            for j, vj in enumerate(cy):
                if vj:
                    out[(i, j)] = out.get((i, j), 0) + vi * vj
    return {k: v for k, v in out.items() if v}


def test_dual_basis_slide():
    # sum_b (a o b) (x) b~  =  sum_b b (x) (b~ o a)
    bas, dual = dual_basis_A()
    rng = random.Random(600)
    for _ in range(5):
        a = _random_albert(rng)
        lhs = _tensor_of((jordan(a, b), bv) for b, bv in zip(bas, dual))
        rhs = _tensor_of((b, jordan(bv, a)) for b, bv in zip(bas, dual))
        assert lhs == rhs


def test_bform_positive_diagonal_formula():
    # B(a, a) = sum lambda_i^2 + 2 sum |x_i|^2
    rng = random.Random(31)
    for _ in range(25):
        a = _random_albert(rng)
        expected = sum(l * l for l in a.diag) + 2 * sum(x.norm() for x in a.off)
        assert bform(a, a) == expected
        if not a.is_zero():
            assert bform(a, a) > 0


def test_projection_and_coordinates():
    rng = random.Random(52)
    one = AlbertElement.unit()
    assert project_v(one).is_zero()
    for _ in range(20):
        a = _random_albert(rng)
        p = project_v(a)
        assert alb_trace(p) == 0
        assert project_v(p) == p
        assert from_coords_V(coords_V(p)) == p
    with pytest.raises(ValueError):
        coords_V(one)


def test_fixed_bases():
    bv = basis_V()
    assert len(bv) == 26
    assert all(alb_trace(v) == 0 for v in bv)
    assert len(basis_A()) == 27
    # the dual basis b~_i = sum_j Ginv[i][j] b_j, from the cup node
    dual = [AlbertElement.zero() for _ in bv]
    scale, cup = generator_tensors()[CUP]
    for (i, j), n in cup.items():
        dual[i] = dual[i] + bv[j].scale(Fraction(n, scale))
    for i in range(26):
        for j in range(26):
            assert bform(dual[i], bv[j]) == (1 if i == j else 0)
    total = sum((bform(b, d) for b, d in zip(bv, dual)), Fraction(0))
    assert total == 26


def test_jordan_node_is_the_object_product():
    # two independent routes to the structure constants: the node J,
    # contracted from the octonion table, and jordan on element objects,
    # on all 378 unordered pairs of basis units, in both orders
    scale, tensor = _jordan_node()
    bas = basis_A()
    for p in range(27):
        for q in range(p, 27):
            want = coords_A(jordan(bas[p], bas[q]))
            for a, b in ((p, q), (q, p)):
                assert [Fraction(tensor.get((a, b, r), 0), scale) for r in range(27)] == want
