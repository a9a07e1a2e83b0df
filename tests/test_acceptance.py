"""Acceptance gate: one test per published claim, every comparison exact.

Each criterion carries the runtime budget it must meet on a warm process
(the shared generator tables come from the session fixture).  Budgets are
asserted with a monotonic clock so a regression that blows up the cost of
an exact check fails loudly instead of silently degrading.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from f4diagrams.albert import (
    AlbertElement,
    alb_trace,
    coords_A,
    dual_basis_A,
    jordan,
    left_mult_matrix,
    left_mult_trace,
    oct_mat_mul,
    oct_mat_real_trace,
    project_v,
)
from f4diagrams.diagram import (
    DiagramArityError,
    build_named,
    parse_diagram,
    symmetrizer,
)
from f4diagrams.functor import (
    apply_combo_to_basis,
    closure,
    gram_rank,
    phi_closed,
)
from f4diagrams.octonion import Octonion
from f4diagrams.ratfield import rf_solve, rf_specialize, rf_to_str
from f4diagrams import relations
from f4diagrams import derivations as dv

from test_diagram import ARITY_ERROR_FIXTURES, ROUND_TRIP_FIXTURES
from test_ratfield import kappa_system, pentagon_system, square_system

ALPHA = Fraction(7, 3)
DELTA = Fraction(26)

pytestmark = pytest.mark.usefixtures("warm_tensors")


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


# Integer coordinates: the identities under test are polynomial, so random
# lattice points detect a violation just as surely as random rationals, and
# exact arithmetic on them is much cheaper (no denominator gcd churn).
def _random_oct(rng):
    return Octonion([Fraction(rng.randint(-9, 9)) for _ in range(8)])


def _random_albert(rng):
    diag = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
    return AlbertElement(diag, [_random_oct(rng) for _ in range(3)])


def _random_traceless(rng):
    return project_v(_random_albert(rng))


def test_criterion_01_loop_scalar():
    with budget(1):
        loop = parse_diagram("split ; merge")
        for i in range(26):
            assert apply_combo_to_basis(loop, (i,)) == {(i,): ALPHA}


def test_criterion_02_bubble_and_lollipop():
    with budget(1):
        assert phi_closed(parse_diagram("cup ; cap")) == DELTA
        assert apply_combo_to_basis(parse_diagram("cup ; merge"), ()) == {}


def test_criterion_03_isotopy_and_vertex_suite():
    families = ("vortex", "venom", "chess", "topsy", "turvy",
                "pomegranate", "ladderslip")
    with budget(30):
        reports = relations.run_relations(families)
        assert len(reports) == 29
        for rep in reports:
            assert rep["holds"], rep


def test_criterion_04_degree_two_skein():
    with budget(30):
        rep = relations.check_relation("magic")
        assert rep["holds"] and rep["basis_checked"] == 676
        assert rf_specialize(relations.magic_coeff(), ALPHA, DELTA) == Fraction(1, 6)

        rng = random.Random(1004)
        third = Fraction(1, 6)
        for _ in range(100):
            a = _random_traceless(rng)
            lhs = project_v(jordan(project_v(jordan(a, a)), a))
            assert lhs == a.scale(third * alb_trace(jordan(a, a)))
        for _ in range(100):
            a, b, c = (_random_traceless(rng) for _ in range(3))
            lhs = (
                project_v(jordan(project_v(jordan(a, b)), c))
                + project_v(jordan(project_v(jordan(b, c)), a))
                + project_v(jordan(project_v(jordan(a, c)), b))
            )
            rhs = (
                a.scale(third * alb_trace(jordan(b, c)))
                + c.scale(third * alb_trace(jordan(a, b)))
                + b.scale(third * alb_trace(jordan(a, c)))
            )
            assert lhs == rhs


def test_criterion_05_square_and_pentagon_skein():
    with budget(300):
        assert [rf_specialize(x, ALPHA, DELTA) for x in relations.sqburst_coeffs()] == [
            Fraction(5, 36), Fraction(5, 6), Fraction(-1, 4),
        ]
        assert [rf_specialize(x, ALPHA, DELTA) for x in relations.pentburst_coeffs()] == [
            Fraction(-1, 3), Fraction(-7, 144), Fraction(1, 16),
        ]
        for name in ("sqburst", "pentburst"):
            rep = relations.check_relation(name)
            assert rep["holds"], rep
            assert rep["basis_checked"] == 676


def test_criterion_06_triangle_and_crossed_crown():
    with budget(60):
        assert rf_specialize(relations.triangle_coeff(), ALPHA, DELTA) == -1
        for name in ("triangle", "3spike"):
            rep = relations.check_relation(name)
            assert rep["holds"], rep


def test_criterion_07_idempotent_suite():
    with budget(60):
        rep = relations.check_idempotents()
        assert rep["holds"], rep
        assert all(rep["idempotency"].values())
        assert all(rep["orthogonality"].values())
        assert rep["sum_is_identity"]
        dims = rep["dims"]
        assert [dims[nm] for nm in ("e0", "e1", "e3", "e4", "etilde")] == [
            1, 52, 273, 26, 324,
        ]


def test_criterion_08_closed_scalars():
    with budget(60):
        asym2 = symmetrizer(2, anti=True)
        assert phi_closed(closure(asym2)) == DELTA * (DELTA - 1) / 2 == 325
        assert phi_closed(closure(symmetrizer(3, anti=True))) == 2600
        bridge = asym2.then(build_named("H"))
        assert phi_closed(closure(bridge)) == -ALPHA * DELTA / 2 == Fraction(-91, 3)


def test_criterion_09_hom_space_dimensions():
    from f4diagrams.diagram import bigfive_list, brutal_list

    with budget(600):
        assert gram_rank(bigfive_list()) == 5
        assert gram_rank(brutal_list()) == 15


def test_criterion_10_vanishing_composite():
    with budget(120):
        rep = relations.check_sack()
        assert rep["holds"], rep
        assert rep["bent_zero"] and rep["loop_zero"]
        assert rep["guard_nonzero"]  # the probe itself is not trivially zero
        assert rep["loop_trace"] == 0


def test_criterion_11_symbolic_solver_reproduces_coefficients():
    with budget(1):
        beta = rf_solve(*square_system())
        assert [rf_to_str(x) for x in beta] == [
            rf_to_str(x) for x in relations.sqburst_coeffs()
        ]
        gamma = rf_solve(*pentagon_system())
        assert [rf_to_str(x) for x in gamma] == [
            rf_to_str(x) for x in relations.pentburst_coeffs()
        ]
        kappa = rf_solve(*kappa_system())
        assert [rf_to_str(x) for x in kappa] == [
            rf_to_str(x) for x in relations.kappa_coeffs()
        ]
        assert rf_to_str(kappa[0]) == "(-1/6*d^1)/(1)"
        assert rf_to_str(kappa[1]) == "(2/3*d^1)/(d^1 + 2)"


def test_criterion_12_derivation_algebra():
    with budget(600):
        basis = dv.derivation_basis()
        assert len(basis) == 52
        equiv = dv.check_equivariance()
        assert equiv["holds"], equiv
        assert equiv["merge_ok"] and equiv["split_ok"] and equiv["cap_ok"] and equiv["cup_ok"]
        assert equiv["derivations"] == 52


def test_criterion_13_algebra_property_suite():
    with budget(30):
        rng = random.Random(1013)
        # The multiplication-operator checks below (trace factor 9, and the
        # basis/dual conveyor identity) both consume the matrix of a o -, so
        # one pass builds it for a shared pool of 100 random elements.
        albs = [_random_albert(rng) for _ in range(100)]
        mults = [left_mult_matrix(a) for a in albs]

        for a, m in zip(albs, mults):
            assert sum(m[i][i] for i in range(27)) == 9 * alb_trace(a)
        assert all(left_mult_trace(a) == 9 * alb_trace(a) for a in albs[:5])

        for _ in range(100):
            a, b, c = (_random_albert(rng) for _ in range(3))
            assert alb_trace(jordan(jordan(a, b), c)) == alb_trace(jordan(a, jordan(b, c)))
        for _ in range(100):
            x = _random_albert(rng).to_matrix()
            y = _random_albert(rng).to_matrix()
            z = _random_albert(rng).to_matrix()
            m_xy = oct_mat_mul(x, y)
            assert oct_mat_real_trace(m_xy) == oct_mat_real_trace(oct_mat_mul(y, x))
            assert oct_mat_real_trace(oct_mat_mul(m_xy, z)) == (
                oct_mat_real_trace(oct_mat_mul(x, oct_mat_mul(y, z)))
            )

        # Column k of the multiplication matrix is coords_A(a o b_k), which
        # covers the left factors directly; the right factors a o bd_k follow
        # from the same columns because the product is linear in each slot and
        # symmetric by construction, so no second sweep of products is needed.
        bas, dual = dual_basis_A()
        bas_nz = [[(j, w) for j, w in enumerate(coords_A(b)) if w] for b in bas]
        dual_nz = [[(j, w) for j, w in enumerate(coords_A(bd)) if w] for bd in dual]
        for m in mults:
            lhs = [[0] * 27 for _ in range(27)]
            rhs = [[0] * 27 for _ in range(27)]
            for k in range(len(bas)):
                dnz = dual_nz[k]
                for i in range(27):
                    c = m[i][k]
                    if c:
                        row = lhs[i]
                        for j, w in dnz:
                            row[j] += c * w
                bda = [sum(m[i][j] * w for j, w in dnz) for i in range(27)]
                for i, c in bas_nz[k]:
                    row = rhs[i]
                    for j, w in enumerate(bda):
                        if w:
                            row[j] += c * w
            assert lhs == rhs

        for _ in range(100):
            x, y = _random_oct(rng), _random_oct(rng)
            assert (x * y).norm() == x.norm() * y.norm()
            assert x * (x * y) == (x * x) * y
            assert (y * x) * x == y * (x * x)


def test_criterion_14_parser_round_trip():
    from f4diagrams.diagram import combo_to_str

    with budget(1):
        assert len(ROUND_TRIP_FIXTURES) == 50
        assert len(ARITY_ERROR_FIXTURES) == 10
        for text in ROUND_TRIP_FIXTURES:
            first = parse_diagram(text)
            again = parse_diagram(combo_to_str(first))
            assert first.terms == again.terms
        for text in ARITY_ERROR_FIXTURES:
            with pytest.raises(DiagramArityError) as err:
                parse_diagram(text)
            assert "position" in str(err.value)
