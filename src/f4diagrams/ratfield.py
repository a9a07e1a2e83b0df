"""The coefficient field Q(a, d): rational functions in two commuting variables.

``a`` is the trivalent-loop parameter and ``d`` the loop (circle) value;
every coefficient formula in the relation catalog lives here.  ``Poly2`` is a
sparse bivariate polynomial over Q; ``RatFunc`` a normalized quotient.

Normal form contract: gcd(num, den) = 1 in Q[a,d]; den has integer-primitive
content and positive leading coefficient under graded-lex order with a < d.
Two RatFuncs are equal iff their normal forms are identical, so equality is
a dictionary comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Dict, List, Sequence, Tuple

Monomial = Tuple[int, int]  # (exponent of a, exponent of d)

ZERO = Fraction(0)
ONE = Fraction(1)


def _grlex_key(m: Monomial):
    # graded lex with a < d: compare total degree, then the d-exponent.
    i, j = m
    return (i + j, j)


# ---------------------------------------------------------------------------
# Poly2: sparse bivariate polynomials over Q
# ---------------------------------------------------------------------------


class Poly2:
    """Sparse polynomial in Q[a, d]; no explicit zero coefficients stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] = None):
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var_a(cls) -> "Poly2":
        return cls({(1, 0): ONE})

    @classmethod
    def var_d(cls) -> "Poly2":
        return cls({(0, 1): ONE})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: Dict[Monomial, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                s = out.get(m, ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly2(out)

    def scale(self, c) -> "Poly2":
        c = Fraction(c)
        return Poly2({m: cc * c for m, cc in self.terms.items()})

    # -- structure -----------------------------------------------------------

    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def degree_d(self) -> int:
        return max((j for (_, j) in self.terms), default=-1)

    def coeff_of_d(self, j: int) -> Dict[int, Fraction]:
        """Coefficient of d^j, as a univariate polynomial in a (exponent map)."""
        return {i: c for (i, jj), c in self.terms.items() if jj == j}

    def evaluate(self, alpha: Fraction, delta: Fraction) -> Fraction:
        total = ZERO
        for (i, j), c in self.terms.items():
            total += c * alpha**i * delta**j
        return total

    def __repr__(self):
        return f"Poly2({poly_to_str(self)})"


class _NotDivisible(Exception):
    pass


def _div_exact(f: Poly2, g: Poly2) -> Poly2:
    """Exact division f/g in Q[a,d]; raises _NotDivisible if not exact."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q: Dict[Monomial, Fraction] = {}
    r = Poly2(dict(f.terms))
    gl = g.lead_monomial()
    gc = g.terms[gl]
    while r:
        rl = r.lead_monomial()
        mi, mj = rl[0] - gl[0], rl[1] - gl[1]
        if mi < 0 or mj < 0:
            raise _NotDivisible
        c = r.terms[rl] / gc
        q[(mi, mj)] = c
        r = r - Poly2({(mi, mj): c}) * g
    return Poly2(q)


# -- univariate helpers (polynomials in a alone, as exponent->coeff maps) ----


def _uni_trim(p: Dict[int, Fraction]) -> Dict[int, Fraction]:
    return {e: c for e, c in p.items() if c}


def _uni_gcd(p: Dict[int, Fraction], q: Dict[int, Fraction]) -> Dict[int, Fraction]:
    """Monic gcd in Q[a] by the Euclidean algorithm."""
    p, q = _uni_trim(p), _uni_trim(q)
    while q:
        p, q = q, _uni_mod(p, q)
    if not p:
        return {}
    lead = p[max(p)]
    return {e: c / lead for e, c in p.items()}


def _uni_mod(p: Dict[int, Fraction], q: Dict[int, Fraction]) -> Dict[int, Fraction]:
    p = dict(p)
    dq = max(q)
    lq = q[dq]
    while p:
        dp = max(p)
        if dp < dq:
            break
        f = p[dp] / lq
        for e, c in q.items():
            s = p.get(e + dp - dq, ZERO) - f * c
            if s:
                p[e + dp - dq] = s
            else:
                p.pop(e + dp - dq, None)
    return _uni_trim(p)


def _content_pp(f: Poly2) -> Tuple[Dict[int, Fraction], Poly2]:
    """Content (gcd in Q[a] of the d-coefficients) and primitive part."""
    cont: Dict[int, Fraction] = {}
    for j in range(f.degree_d() + 1):
        cj = f.coeff_of_d(j)
        if cj:
            cont = _uni_gcd(cont, cj) if cont else _uni_gcd(cj, {})
    cont_poly = Poly2({(i, 0): c for i, c in cont.items()})
    return cont, _div_exact(f, cont_poly)


def _prem(f: Poly2, g: Poly2) -> Poly2:
    """Pseudo-remainder of f by g with respect to the variable d."""
    df, dg = f.degree_d(), g.degree_d()
    if df < dg:
        return f
    lg = Poly2({(i, 0): c for i, c in g.coeff_of_d(dg).items()})
    r = f
    while not r.is_zero() and r.degree_d() >= dg:
        dr = r.degree_d()
        lr = Poly2({(i, 0): c for i, c in r.coeff_of_d(dr).items()})
        r = r * lg - g * lr * Poly2({(0, dr - dg): ONE})
    return r


def poly_gcd(f: Poly2, g: Poly2) -> Poly2:
    """gcd in Q[a,d] via content / primitive-part recursion in d over Q[a]."""
    if f.is_zero():
        return _monicize(g)
    if g.is_zero():
        return _monicize(f)
    cf, pf = _content_pp(f)
    cg, pg = _content_pp(g)
    c = _uni_gcd(cf, cg)
    while not pg.is_zero():
        r = _prem(pf, pg)
        pf = pg
        pg = _content_pp(r)[1] if not r.is_zero() else Poly2()
    result = pf * Poly2({(i, 0): cc for i, cc in c.items()})
    return _monicize(result)


def _monicize(f: Poly2) -> Poly2:
    if f.is_zero():
        return f
    return f.scale(1 / f.lead_coeff())


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class PoleError(Exception):
    """Specialization hit a zero of the denominator."""

    def __init__(self, message: str, factor: str = None):
        super().__init__(message)
        self.factor = factor


class RatFunc:
    """Normalized element of Q(a, d)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 = None, _normalized=False):
        if den is None:
            den = Poly2.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Poly2.const(c))

    @classmethod
    def alpha(cls) -> "RatFunc":
        return cls(Poly2.var_a())

    @classmethod
    def delta(cls) -> "RatFunc":
        return cls(Poly2.var_d())

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = RatFunc.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation ----------------------------------------------------------

    def specialize(self, alpha, delta) -> Fraction:
        return rf_specialize(self, alpha, delta)

    def __repr__(self):
        return f"RatFunc({rf_to_str(self)})"


def _coerce(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc.const(Fraction(x))


def _normalize(num: Poly2, den: Poly2) -> Tuple[Poly2, Poly2]:
    if num.is_zero():
        return Poly2(), Poly2.const(1)
    g = poly_gcd(num, den)
    if g.terms != {(0, 0): ONE}:
        num = _div_exact(num, g)
        den = _div_exact(den, g)
    # scale so den has integer-primitive content and positive leading coeff
    L = 1
    for c in den.terms.values():
        q = c.denominator
        L = L * q // int_gcd(L, q)
    G = 0
    for c in den.terms.values():
        G = int_gcd(G, abs(c.numerator * (L // c.denominator)))
    scale = Fraction(L, G if G else 1)
    den_int = den.scale(scale)
    if den_int.lead_coeff() < 0:
        scale = -scale
        den_int = den.scale(scale)
    return num.scale(scale), den_int


# ---------------------------------------------------------------------------
# operations named in the interface
# ---------------------------------------------------------------------------


def rf_solve(system: Sequence[Sequence[RatFunc]], rhs: Sequence[RatFunc]) -> List[RatFunc]:
    """Solve a small square linear system over Q(a, d) by elimination."""
    n = len(system)
    if any(len(row) != n for row in system) or len(rhs) != n:
        raise ValueError("system must be square with matching rhs")
    aug = [[_coerce(x) for x in row] + [_coerce(rhs[i])] for i, row in enumerate(system)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [x / pval for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


_KNOWN_POLE_FACTORS = [
    ("a", Poly2.var_a()),
    ("d+2", Poly2.var_d() + Poly2.const(2)),
    ("d-2", Poly2.var_d() - Poly2.const(2)),
    ("d+6", Poly2.var_d() + Poly2.const(6)),
    ("d-10", Poly2.var_d() - Poly2.const(10)),
    ("d+10", Poly2.var_d() + Poly2.const(10)),
    ("d", Poly2.var_d()),
]


def rf_specialize(f: RatFunc, alpha, delta) -> Fraction:
    """Evaluate at exact rational (alpha, delta); poles raise with the factor."""
    alpha, delta = Fraction(alpha), Fraction(delta)
    dval = f.den.evaluate(alpha, delta)
    if dval == 0:
        factor = None
        for name, p in _KNOWN_POLE_FACTORS:
            if p.evaluate(alpha, delta) == 0 and _divisible(f.den, p):
                factor = name
                break
        detail = f" (offending factor: {factor})" if factor else ""
        raise PoleError(
            f"denominator {poly_to_str(f.den)} vanishes at (a,d)=({alpha},{delta}){detail}",
            factor=factor,
        )
    return f.num.evaluate(alpha, delta) / dval


def _divisible(f: Poly2, g: Poly2) -> bool:
    try:
        _div_exact(f, g)
        return True
    except _NotDivisible:
        return False


# ---------------------------------------------------------------------------
# serialization: "(<poly>)/(<poly>)", monomials "c*a^i*d^j" in grlex order
# ---------------------------------------------------------------------------


def _mono_to_str(m: Monomial, c: Fraction) -> str:
    i, j = m
    parts = [str(abs(c)) if (i, j) == (0, 0) or abs(c) != 1 else None]
    if i:
        parts.append(f"a^{i}")
    if j:
        parts.append(f"d^{j}")
    parts = [p for p in parts if p]
    if not parts:
        parts = ["1"]
    return "*".join(parts)


def poly_to_str(p: Poly2) -> str:
    if p.is_zero():
        return "0"
    monos = sorted(p.terms, key=_grlex_key, reverse=True)
    out = []
    for k, m in enumerate(monos):
        c = p.terms[m]
        piece = _mono_to_str(m, c)
        if k == 0:
            out.append(piece if c > 0 else "-" + piece)
        else:
            out.append((" + " if c > 0 else " - ") + piece)
    return "".join(out)


def rf_to_str(f: RatFunc) -> str:
    return f"({poly_to_str(f.num)})/({poly_to_str(f.den)})"


# convenient module-level symbols
A = RatFunc.alpha()
D = RatFunc.delta()


def rf(c) -> RatFunc:
    return _coerce(c)
