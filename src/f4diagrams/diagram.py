"""Term language for string diagrams: two-variable trivalent calculus.

A term denotes a morphism between tensor powers of the single generating
object; arities count strands.  Generators:

    merge 2->1,  split 1->2,  cup 0->2,  cap 2->0,  cross 2->2

``Compose(f, g)`` applies g FIRST (bottom of the picture), then f.  The
text grammar reads the other way round — "f ; g" applies f first — so
picture sources written bottom-to-top become text read left-to-right.

Terms normalize structurally on construction: nested Compose/Tensor
flatten, identities are absorbed.  Two terms are interchangeable for
every purpose in this package iff they are ``==`` after that
normalization.  (No graph-isomorphism canonicalization: evaluation only
needs the term tree.)

``DiagramCombo`` is a finite linear combination of terms of one common
arity, with coefficients either Fractions or two-variable rational
functions in (a, d); combos with symbolic coefficients must be
``specialize``d before functor evaluation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ratfield import RatFunc, rf_specialize

Coefficient = Union[Fraction, RatFunc]

#: largest N the parser accepts in sym(N)/asym(N): the combo has N! terms,
#: and N = 8 already takes tens of seconds and hundreds of MB to build
MAX_SYMMETRIZER = 7

#: deepest nesting the parser accepts, counting each open parenthesis and
#: each scalar prefix "N *": it descends one level per nesting, so deeper
#: text would exhaust the interpreter's recursion limit
MAX_NESTING = 100

ZERO = Fraction(0)
ONE = Fraction(1)


class DiagramSyntaxError(ValueError):
    """Malformed expression text; carries the 0-based offset in .pos."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class DiagramArityError(ValueError):
    """Strand-count mismatch; .pos is set when raised by the parser."""

    def __init__(self, message: str, pos: Optional[int] = None):
        if pos is not None:
            message = f"{message} at position {pos}"
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


class DiagramTerm:
    """Immutable term; every instance carries .src and .tgt strand counts."""

    __slots__ = ("src", "tgt", "_hash")

    def __repr__(self):
        return f"<{term_to_str(self)} : {self.src}->{self.tgt}>"

    def __eq__(self, other):  # overridden in subclasses
        return self is other

    def __hash__(self):
        return self._hash


class Gen(DiagramTerm):
    """One of the five generators; use the module-level singletons."""

    __slots__ = ("name",)

    def __init__(self, name: str, src: int, tgt: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "_hash", hash(("gen", name)))

    def __eq__(self, other):
        return self is other or (isinstance(other, Gen) and other.name == self.name)

    __hash__ = DiagramTerm.__hash__


MERGE = Gen("merge", 2, 1)
SPLIT = Gen("split", 1, 2)
CUP = Gen("cup", 0, 2)
CAP = Gen("cap", 2, 0)
CROSS = Gen("cross", 2, 2)

_GEN_BY_NAME = {g.name: g for g in (MERGE, SPLIT, CUP, CAP, CROSS)}


class Id(DiagramTerm):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("negative strand count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "src", n)
        object.__setattr__(self, "tgt", n)
        object.__setattr__(self, "_hash", hash(("id", n)))

    def __eq__(self, other):
        return isinstance(other, Id) and other.n == self.n

    __hash__ = DiagramTerm.__hash__


class Compose(DiagramTerm):
    """f after g: Compose(f, g) applies g first.

    Normal form: .steps is the flat tuple of non-identity stages in
    application order (steps[0] acts first).  Constructing a compose whose
    stages are all identities yields Id; a single surviving stage is
    returned as itself.
    """

    __slots__ = ("steps",)

    def __new__(cls, f: DiagramTerm, g: DiagramTerm):
        if f.src != g.tgt:
            raise DiagramArityError(
                f"cannot compose: earlier stage produces {g.tgt} strand(s), "
                f"later stage consumes {f.src}"
            )
        steps = _comp_steps(g) + _comp_steps(f)
        if not steps:
            return Id(g.src)
        if len(steps) == 1:
            return steps[0]
        self = object.__new__(cls)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "src", g.src)
        object.__setattr__(self, "tgt", f.tgt)
        object.__setattr__(self, "_hash", hash(("comp",) + steps))
        return self

    def __init__(self, f, g):  # work done in __new__
        pass

    def __eq__(self, other):
        return isinstance(other, Compose) and other.steps == self.steps

    __hash__ = DiagramTerm.__hash__


def _comp_steps(t: DiagramTerm) -> Tuple[DiagramTerm, ...]:
    if isinstance(t, Id):
        return ()
    if isinstance(t, Compose):
        return t.steps
    return (t,)


class Tensor(DiagramTerm):
    """Horizontal juxtaposition.  Normal form: .factors is flat, contains
    no Id(0), no nested Tensor, and no two adjacent Id factors; an
    all-identity tensor collapses to Id."""

    __slots__ = ("factors",)

    def __new__(cls, f: DiagramTerm, g: DiagramTerm):
        raw = _tens_factors(f) + _tens_factors(g)
        factors: List[DiagramTerm] = []
        for x in raw:
            if isinstance(x, Id):
                if x.n == 0:
                    continue
                if factors and isinstance(factors[-1], Id):
                    factors[-1] = Id(factors[-1].n + x.n)
                    continue
            factors.append(x)
        if not factors:
            return Id(0)
        if len(factors) == 1:
            return factors[0]
        if all(isinstance(x, Id) for x in factors):
            return Id(sum(x.n for x in factors))
        self = object.__new__(cls)
        tfac = tuple(factors)
        object.__setattr__(self, "factors", tfac)
        object.__setattr__(self, "src", sum(x.src for x in tfac))
        object.__setattr__(self, "tgt", sum(x.tgt for x in tfac))
        object.__setattr__(self, "_hash", hash(("tens",) + tfac))
        return self

    def __init__(self, f, g):
        pass

    def __eq__(self, other):
        return isinstance(other, Tensor) and other.factors == self.factors

    __hash__ = DiagramTerm.__hash__


def _tens_factors(t: DiagramTerm) -> Tuple[DiagramTerm, ...]:
    if isinstance(t, Tensor):
        return t.factors
    return (t,)


def tensor_all(*terms: DiagramTerm) -> DiagramTerm:
    out: DiagramTerm = Id(0)
    for t in terms:
        out = Tensor(out, t)
    return out


def compose_chain(*stages: DiagramTerm) -> DiagramTerm:
    """compose_chain(a, b, c) applies a first (timeline order)."""
    if not stages:
        raise ValueError("empty composition")
    out = stages[0]
    for s in stages[1:]:
        out = Compose(s, out)
    return out


# ---------------------------------------------------------------------------
# layer view (read by the functor to build a term's tensor network)
# ---------------------------------------------------------------------------


def to_layers(t: DiagramTerm) -> List[Tuple[int, Gen]]:
    """Flatten a term into single-generator stages.

    Returns [(offset, gen), ...] in application order: each stage applies
    ``gen`` to the strands [offset, offset+gen.src) of the current state,
    identities elsewhere.  Tensor factors are staggered left-to-right
    (legal by the interchange law).
    """
    if isinstance(t, Id):
        return []
    if isinstance(t, Gen):
        return [(0, t)]
    if isinstance(t, Compose):
        out: List[Tuple[int, Gen]] = []
        for s in t.steps:
            out.extend(to_layers(s))
        return out
    if isinstance(t, Tensor):
        out = []
        left_done = 0  # target strands of factors already applied
        for x in t.factors:
            out.extend((left_done + off, g) for off, g in to_layers(x))
            left_done += x.tgt
        return out
    raise TypeError(f"not a diagram term: {t!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def term_to_str(t: DiagramTerm) -> str:
    """Grammar text whose parse is structurally identical to t."""
    return _term_str(t, 0)


def _term_str(t: DiagramTerm, level: int) -> str:
    # level: 0 = composition context, 1 = tensor context, 2 = atom required
    if isinstance(t, Gen):
        return t.name
    if isinstance(t, Id):
        return f"id({t.n})"
    if isinstance(t, Compose):
        s = " ; ".join(_term_str(x, 1) for x in t.steps)
        return f"({s})" if level >= 1 else s
    if isinstance(t, Tensor):
        s = " @ ".join(_term_str(x, 2) for x in t.factors)
        return f"({s})" if level >= 2 else s
    raise TypeError(f"not a diagram term: {t!r}")


def _coeff_str(c: Coefficient) -> str:
    if isinstance(c, RatFunc):
        from .ratfield import rf_to_str

        return rf_to_str(c)
    return str(c)


def combo_to_str(c: "DiagramCombo") -> str:
    """Sum-of-scaled-terms text.  Re-parseable when every coefficient is a
    plain Fraction (symbolic coefficients serialize readably but the
    grammar only accepts rational literals)."""
    if not c.terms:
        if c.src == c.tgt:
            return f"0 * id({c.src})"
        raise ValueError("cannot serialize an empty combo of unequal arities")
    pieces = []
    for i, (t, coeff) in enumerate(c.terms):
        if isinstance(coeff, Fraction) and coeff < 0:
            sign, mag = ("-", -coeff)
        else:
            sign, mag = ("+", coeff)
        body = f"{_coeff_str(mag)} * {_term_str(t, 2)}"
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------


def _coeffs_mixed(items) -> bool:
    return any(isinstance(c, RatFunc) for _, c in items) and any(
        not isinstance(c, RatFunc) for _, c in items
    )


class DiagramCombo:
    """Linear combination of terms sharing one (src, tgt) arity.

    Terms are kept merged, zero-coefficient-free, and sorted by their text
    form, so == is semantic equality of formal combinations.  Coefficients
    are homogeneous: if any is a RatFunc, all are coerced to RatFunc.
    """

    __slots__ = ("src", "tgt", "terms")

    def __init__(self, src: int, tgt: int, items: Iterable[Tuple[DiagramTerm, Coefficient]] = ()):
        acc: Dict[DiagramTerm, Coefficient] = {}
        for t, c in items:
            if t.src != src or t.tgt != tgt:
                raise DiagramArityError(
                    f"combo of arity {src}->{tgt} cannot contain a {t.src}->{t.tgt} term"
                )
            if t in acc:
                acc[t] = acc[t] + c
            else:
                acc[t] = c
        live = [(t, c) for t, c in acc.items() if not _is_zero_coeff(c)]
        if _coeffs_mixed(live):
            live = [(t, c if isinstance(c, RatFunc) else RatFunc.const(c)) for t, c in live]
        live.sort(key=lambda tc: term_to_str(tc[0]))
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "terms", tuple(live))

    def __setattr__(self, *a):
        raise AttributeError("DiagramCombo is immutable")

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, DiagramCombo)
            and other.src == self.src
            and other.tgt == self.tgt
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.src, self.tgt, self.terms))

    def __repr__(self):
        return f"DiagramCombo({self.src}->{self.tgt}: {combo_to_str(self)})"

    def is_zero(self) -> bool:
        return not self.terms

    def is_symbolic(self) -> bool:
        return any(isinstance(c, RatFunc) for _, c in self.terms)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other) -> "DiagramCombo":
        other = as_combo(other)
        if (other.src, other.tgt) != (self.src, self.tgt):
            raise DiagramArityError(
                f"cannot add a {self.src}->{self.tgt} combo and a {other.src}->{other.tgt} combo"
            )
        return DiagramCombo(self.src, self.tgt, self.terms + other.terms)

    def __sub__(self, other) -> "DiagramCombo":
        return self + (-as_combo(other))

    def __neg__(self) -> "DiagramCombo":
        return DiagramCombo(self.src, self.tgt, [(t, -c) for t, c in self.terms])

    def scale(self, r: Coefficient) -> "DiagramCombo":
        if _is_zero_coeff(r):
            return DiagramCombo(self.src, self.tgt)
        return DiagramCombo(self.src, self.tgt, [(t, c * r) for t, c in self.terms])

    def __rmul__(self, r) -> "DiagramCombo":
        return self.scale(r)

    # -- monoidal structure ----------------------------------------------------

    def compose(self, other) -> "DiagramCombo":
        """self after other (other applied first)."""
        other = as_combo(other)
        if self.src != other.tgt:
            raise DiagramArityError(
                f"cannot compose: earlier combo produces {other.tgt} strand(s), "
                f"later combo consumes {self.src}"
            )
        items = [
            (Compose(t1, t2), c1 * c2)
            for t1, c1 in self.terms
            for t2, c2 in other.terms
        ]
        return DiagramCombo(other.src, self.tgt, items)

    def then(self, other) -> "DiagramCombo":
        """self applied first (timeline order, like the ';' of the grammar)."""
        return as_combo(other).compose(self)

    def __matmul__(self, other) -> "DiagramCombo":
        other = as_combo(other)
        items = [
            (Tensor(t1, t2), c1 * c2)
            for t1, c1 in self.terms
            for t2, c2 in other.terms
        ]
        return DiagramCombo(self.src + other.src, self.tgt + other.tgt, items)

    # -- coefficients ----------------------------------------------------------

    def specialize(self, alpha, delta) -> "DiagramCombo":
        """Replace every symbolic coefficient by its value at (alpha, delta)."""
        out = []
        for t, c in self.terms:
            if isinstance(c, RatFunc):
                c = rf_specialize(c, alpha, delta)
            out.append((t, c))
        return DiagramCombo(self.src, self.tgt, out)


def _is_zero_coeff(c: Coefficient) -> bool:
    if isinstance(c, RatFunc):
        return c.is_zero()
    return c == 0


def as_combo(x) -> DiagramCombo:
    if isinstance(x, DiagramCombo):
        return x
    if isinstance(x, DiagramTerm):
        return DiagramCombo(x.src, x.tgt, [(x, ONE)])
    raise TypeError(f"expected a diagram term or combo, got {type(x).__name__}")


def zero_combo(src: int, tgt: int) -> DiagramCombo:
    return DiagramCombo(src, tgt)


# ---------------------------------------------------------------------------
# the rotation and switch operators, and the mirror reflection
# ---------------------------------------------------------------------------


def _rot_term(t: DiagramTerm) -> DiagramTerm:
    m, n = t.src, t.tgt
    return compose_chain(
        Tensor(Id(m), CUP),
        tensor_all(Id(1), t, Id(1)),
        Tensor(CAP, Id(n)),
    )


def _rot_inv_term(t: DiagramTerm) -> DiagramTerm:
    m, n = t.src, t.tgt
    return compose_chain(
        Tensor(CUP, Id(m)),
        tensor_all(Id(1), t, Id(1)),
        Tensor(Id(n), CAP),
    )


def rot(f) -> DiagramCombo:
    """One-click rotation: leftmost input is bent up and capped against the
    leftmost output; a cup supplies a fresh rightmost leg on each side.
    Preserves arity; linear; requires at least one strand top and bottom."""
    f = as_combo(f)
    if f.src < 1 or f.tgt < 1:
        raise DiagramArityError("rot needs at least one strand on each side")
    return DiagramCombo(f.src, f.tgt, [(_rot_term(t), c) for t, c in f.terms])


def rot_inv(f) -> DiagramCombo:
    """The inverse click (rightmost input bent up); rot_inv(rot(f)) equals f
    after evaluation, though not as a term tree."""
    f = as_combo(f)
    if f.src < 1 or f.tgt < 1:
        raise DiagramArityError("rot_inv needs at least one strand on each side")
    return DiagramCombo(f.src, f.tgt, [(_rot_inv_term(t), c) for t, c in f.terms])


def switch(f) -> DiagramCombo:
    """Precompose with the crossing (inputs swapped before f acts)."""
    f = as_combo(f)
    if f.src != 2:
        raise DiagramArityError(f"switch needs exactly 2 input strands, got {f.src}")
    return DiagramCombo(f.src, f.tgt, [(Compose(t, CROSS), c) for t, c in f.terms])


_MIRROR_GEN = {MERGE: SPLIT, SPLIT: MERGE, CUP: CAP, CAP: CUP, CROSS: CROSS}


def _mirror_term(t: DiagramTerm) -> DiagramTerm:
    if isinstance(t, Gen):
        return _MIRROR_GEN[t]
    if isinstance(t, Id):
        return t
    if isinstance(t, Compose):
        # the last-applied stage of t becomes the first-applied stage
        out: DiagramTerm = Id(t.tgt)
        for s in reversed(t.steps):
            out = Compose(_mirror_term(s), out)
        return out
    if isinstance(t, Tensor):
        out = Id(0)
        for x in t.factors:
            out = Tensor(out, _mirror_term(x))
        return out
    raise TypeError(f"not a diagram term: {t!r}")


def mirror(f) -> DiagramCombo:
    """Flip the picture upside down: merge<->split, cup<->cap, composition
    order reversed, tensor order kept.  An m->n combo becomes n->m."""
    f = as_combo(f)
    return DiagramCombo(f.tgt, f.src, [(_mirror_term(t), c) for t, c in f.terms])


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------


def _lex_reduced_word(perm: Tuple[int, ...]) -> List[int]:
    """Lexicographically first reduced word for perm (as adjacent swaps
    s_i of values i, i+1, 0-indexed): repeatedly pull off the smallest
    left descent."""
    pos = [0] * len(perm)  # pos[v] = index where value v sits
    for i, v in enumerate(perm):
        pos[v] = i
    cur = list(perm)
    word: List[int] = []
    while True:
        i = next((i for i in range(len(cur) - 1) if pos[i] > pos[i + 1]), None)
        if i is None:
            return word
        word.append(i)
        pi, pj = pos[i], pos[i + 1]
        cur[pi], cur[pj] = i + 1, i
        pos[i], pos[i + 1] = pj, pi


def _perm_term(word: Sequence[int], n: int) -> DiagramTerm:
    """Crossing diagram realizing the permutation with the given reduced
    word: word[k] = i stands for a crossing of strands i, i+1."""
    t: DiagramTerm = Id(n)
    for i in word:
        layer = tensor_all(Id(i), CROSS, Id(n - i - 2))
        t = Compose(t, layer)  # later letters act earlier in the picture
    return t


def symmetrizer(n: int, anti: bool = False) -> DiagramCombo:
    """(1/n!) sum over all permutation diagrams, signed when anti.

    Each permutation is drawn from its lexicographically first reduced
    word; any reduced word would evaluate identically, this one makes the
    term set deterministic.
    """
    if n < 1:
        raise ValueError("symmetrizer needs at least one strand")
    inv = Fraction(1, math.factorial(n))
    items = []
    for perm in permutations(range(n)):
        word = _lex_reduced_word(perm)
        c = inv if not anti or len(word) % 2 == 0 else -inv
        items.append((_perm_term(word, n), c))
    return DiagramCombo(n, n, items)


# ---------------------------------------------------------------------------
# the named diagrams
# ---------------------------------------------------------------------------


def _c(term: DiagramTerm) -> DiagramCombo:
    return as_combo(term)


def _build_registry() -> Dict[str, DiagramCombo]:
    from .ratfield import A, D, rf

    one = rf(1)
    jail = _c(Id(2))
    hourglass = _c(Compose(CUP, CAP))  # cap below, cup above
    cross = _c(CROSS)
    # bridge: split on the left strand, merge catching its right leg with
    # the right strand
    H = _c(compose_chain(Tensor(SPLIT, Id(1)), Tensor(Id(1), MERGE)))
    I = _c(Compose(SPLIT, MERGE))  # merge below, split above
    dotcross = switch(H)

    triangle = as_combo(MERGE).compose(H)
    square = H.compose(H)
    # planar five-cycle, 2->3: bridge, split the right strand, bridge the
    # left pair of the three
    pentagon = _c(
        compose_chain(
            Tensor(SPLIT, Id(1)),
            Tensor(Id(1), MERGE),
            Tensor(Id(1), SPLIT),
            Tensor(SPLIT, Id(2)),
            Tensor(Id(1), Tensor(MERGE, Id(1))),
        )
    )
    claw = _c(compose_chain(CUP, Tensor(SPLIT, Id(1))))

    asym2 = symmetrizer(2, anti=True)
    sym2 = symmetrizer(2)
    ladder = H.compose(asym2)  # antisymmetrize, then bridge

    e0 = hourglass.scale(one / D)
    e1 = (asym2 + ladder.scale((D + rf(2)) / (rf(4) * A))).scale(rf(8) / (D + rf(10)))
    e3 = (asym2 - ladder.scale(rf(2) / A)).scale((D + rf(2)) / (D + rf(10)))
    e4 = I.scale(one / A)
    etilde = sym2 - e0 - e4

    reg: Dict[str, DiagramCombo] = {
        "jail": jail,
        "hourglass": hourglass,
        "cross": cross,
        "H": H,
        "I": I,
        "dotcross": dotcross,
        "triangle": triangle,
        "square": square,
        "pentagon": pentagon,
        "claw": claw,
        "crown": None,  # filled below
        "e0": e0,
        "e1": e1,
        "e3": e3,
        "e4": e4,
        "etilde": etilde,
    }

    for i, name in enumerate(("jail", "hourglass", "cross", "H", "I"), start=1):
        reg[f"bigfive{i}"] = reg[name]

    s, m = SPLIT, MERGE
    crown = compose_chain(Tensor(s, s), tensor_all(Id(1), m, Id(1)))
    brutal = [
        crown,                                                      # 1
        compose_chain(m, s, Tensor(s, Id(1))),                      # 2
        compose_chain(m, s, Tensor(Id(1), s)),                      # 3
        compose_chain(Tensor(s, Id(1)), Tensor(Id(1), m), Tensor(Id(1), s)),  # 4
        compose_chain(Tensor(Id(1), s), Tensor(m, Id(1)), Tensor(s, Id(1))),  # 5
        compose_chain(CAP, CUP, Tensor(s, Id(1))),                  # 6
        Tensor(Id(1), s),                                           # 7
        Tensor(s, Id(1)),                                           # 8
        compose_chain(m, Tensor(CUP, Id(1))),                       # 9
        compose_chain(m, Tensor(Id(1), CUP)),                       # 10
        compose_chain(m, Tensor(CUP, Id(1)), Tensor(Id(1), CROSS)), # 11
        compose_chain(Tensor(s, Id(1)), Tensor(Id(1), CROSS)),      # 12
        compose_chain(Tensor(Id(1), s), Tensor(CROSS, Id(1))),      # 13
        compose_chain(CROSS, Tensor(s, Id(1))),                     # 14
        compose_chain(CROSS, Tensor(Id(1), s)),                     # 15
    ]
    reg["crown"] = _c(crown)
    for i, t in enumerate(brutal, start=1):
        reg[f"brutal{i}"] = _c(t)
    return reg


_REGISTRY: Optional[Dict[str, DiagramCombo]] = None


def named_registry() -> Dict[str, DiagramCombo]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def build_named(name: str) -> DiagramCombo:
    """Look up a distinguished diagram/idempotent by catalog name.

    Idempotent coefficients are symbolic rational functions in (a, d);
    specialize before evaluating.  Valid names: the five 2->2 basis
    diagrams (jail, hourglass, cross, H, I; also bigfive1..5), dotcross,
    triangle, square, pentagon, claw, crown, brutal1..15, and the
    idempotents e0, e1, e3, e4, etilde.
    """
    reg = named_registry()
    if name not in reg:
        known = ", ".join(sorted(reg))
        raise KeyError(f"unknown named diagram {name!r}; expected one of: {known}")
    return reg[name]


def bigfive_list() -> List[DiagramCombo]:
    return [build_named(f"bigfive{i}") for i in range(1, 6)]


def brutal_list() -> List[DiagramCombo]:
    return [build_named(f"brutal{i}") for i in range(1, 16)]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[@;+\-*()]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos

    def __repr__(self):
        return f"_Token({self.kind},{self.text!r},{self.pos})"


def _tokenize(text: str) -> List[_Token]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None or m.end() == i:
            j = i
            while j < len(text) and text[j].isspace():
                j += 1
            if j >= len(text):
                break
            raise DiagramSyntaxError(f"unexpected character {text[j]!r}", j)
        kind = m.lastgroup
        out.append(_Token(kind, m.group(kind), m.start(kind)))
        i = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent for:  sum > seq(;) > tensor(@) > scalar(*) > atom.

    ';' is timeline order: "f ; g" applies f first.  Parentheses and
    scalar prefixes nest at most MAX_NESTING deep.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Token:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise DiagramSyntaxError(f"expected {op!r}", t.pos)
        return self.take()

    def nested(self, t: _Token, level: Callable[[], DiagramCombo]) -> DiagramCombo:
        """level() one nesting deeper, t being the token that opens it."""
        if self.depth == MAX_NESTING:
            raise DiagramSyntaxError(f"nesting deeper than {MAX_NESTING} levels", t.pos)
        self.depth += 1
        c = level()
        self.depth -= 1
        return c

    # -- levels ----------------------------------------------------------------

    def parse(self) -> DiagramCombo:
        c = self.sum()
        t = self.peek()
        if t.kind != "end":
            raise DiagramSyntaxError(f"unexpected {t.text!r}", t.pos)
        return c

    def sum(self) -> DiagramCombo:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            acc = -self.seq()
        else:
            acc = self.seq()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.seq()
                if (rhs.src, rhs.tgt) != (acc.src, acc.tgt):
                    raise DiagramArityError(
                        f"cannot {'add' if t.text == '+' else 'subtract'}: "
                        f"{acc.src}->{acc.tgt} vs {rhs.src}->{rhs.tgt}",
                        t.pos,
                    )
                acc = acc + rhs if t.text == "+" else acc - rhs
            else:
                return acc

    def seq(self) -> DiagramCombo:
        acc = self.tens()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == ";":
                self.take()
                rhs = self.tens()
                if rhs.src != acc.tgt:
                    raise DiagramArityError(
                        f"cannot chain with ';': left side produces {acc.tgt} "
                        f"strand(s) but right side consumes {rhs.src}",
                        t.pos,
                    )
                acc = rhs.compose(acc)  # left operand acts first
            else:
                return acc

    def tens(self) -> DiagramCombo:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "@":
                self.take()
                acc = acc @ self.factor()
            else:
                return acc

    def factor(self) -> DiagramCombo:
        t = self.peek()
        if t.kind == "number":
            self.take()
            self.expect_op("*")
            return self.nested(t, self.factor).scale(Fraction(t.text))
        return self.atom()

    def atom(self) -> DiagramCombo:
        t = self.take()
        if t.kind == "op" and t.text == "(":
            c = self.nested(t, self.sum)
            self.expect_op(")")
            return c
        if t.kind == "name":
            word = t.text
            if word in _GEN_BY_NAME:
                return as_combo(_GEN_BY_NAME[word])
            if word == "id":
                return as_combo(Id(self._int_arg()))
            if word in ("sym", "asym"):
                n = self._int_arg()
                if n < 1:
                    raise DiagramSyntaxError(f"{word}(N) needs N >= 1", t.pos)
                if n > MAX_SYMMETRIZER:
                    raise DiagramSyntaxError(
                        f"{word}(N) allows N <= {MAX_SYMMETRIZER} (it builds N! terms)", t.pos
                    )
                return symmetrizer(n, anti=(word == "asym"))
            if word == "named":
                self.expect_op("(")
                nt = self.take()
                if nt.kind != "name":
                    raise DiagramSyntaxError("expected a diagram name", nt.pos)
                self.expect_op(")")
                try:
                    return build_named(nt.text)
                except KeyError:
                    raise DiagramSyntaxError(
                        f"unknown named diagram {nt.text!r}", nt.pos
                    ) from None
            raise DiagramSyntaxError(f"unknown atom {word!r}", t.pos)
        raise DiagramSyntaxError(
            f"expected a diagram atom, got {t.text!r}" if t.kind != "end" else "unexpected end of input",
            t.pos,
        )

    def _int_arg(self) -> int:
        self.expect_op("(")
        nt = self.take()
        if nt.kind != "number" or "/" in nt.text:
            raise DiagramSyntaxError("expected an integer strand count", nt.pos)
        self.expect_op(")")
        return int(nt.text)


def parse_diagram(text: str) -> DiagramCombo:
    """Parse grammar text into a combo; see the module docstring for the
    grammar.  Raises DiagramSyntaxError / DiagramArityError with positions."""
    return _Parser(text).parse()
