"""Core term language: nameless terms, contexts, declarations.

Variables are de Bruijn indices; the names attached to binders are printing
hints only and never influence equality (they are excluded from comparison).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

MAX_LEVEL = 4


class MalformedTermError(Exception):
    pass


@dataclass(frozen=True)
class Level:
    """Universe index, 0 .. MAX_LEVEL."""

    index: int

    def __post_init__(self):
        if not (0 <= self.index <= MAX_LEVEL):
            raise MalformedTermError(f"universe level {self.index} out of range 0..{MAX_LEVEL}")


@dataclass(frozen=True)
class Var:
    ix: int


@dataclass(frozen=True)
class Universe:
    level: Level


@dataclass(frozen=True)
class Pi:
    domain: "Term"
    codomain: "Term"  # binds one variable
    hint: str = field(default="_", compare=False)


@dataclass(frozen=True)
class Lambda:
    body: "Term"  # binds one variable
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class Apply:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Sigma:
    first: "Term"
    second: "Term"  # binds one variable
    hint: str = field(default="_", compare=False)


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True)
class Fst:
    pair: "Term"


@dataclass(frozen=True)
class Snd:
    pair: "Term"


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class Id:
    type: "Term"
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Refl:
    point: "Term"


@dataclass(frozen=True)
class J:
    """Identity eliminator.

    `motive` binds three variables (left endpoint, right endpoint, proof) and
    `base` binds one (the reflexivity case).  J(m, b, a, a, refl a) reduces to
    b[a].
    """

    motive: "Term"
    base: "Term"
    lhs: "Term"
    rhs: "Term"
    proof: "Term"
    hints: tuple = field(default=("x", "y", "p", "x"), compare=False)


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Annot:
    term: "Term"
    type: "Term"


@dataclass(eq=False)
class Hole:
    """Elaborator-internal placeholder; solved in place during checking and
    replaced before a declaration is produced.  Never part of checked output."""

    line: int = 0
    col: int = 0
    solution: Optional["Term"] = None


Term = Union[
    Var, Universe, Pi, Lambda, Apply, Sigma, Pair, Fst, Snd,
    Unit, Star, Id, Refl, J, Constant, Annot,
]

UNIT = Unit()
STAR = Star()


def universe(i: int) -> Universe:
    return Universe(Level(i))


@dataclass(frozen=True)
class Declaration:
    name: str
    type: Term
    body: Optional[Term] = None  # None = postulate
    opaque: bool = False  # opaque definitions do not unfold during evaluation

    @property
    def is_postulate(self) -> bool:
        return self.body is None


# Each term former's term-valued fields, in order, with the number of
# variables each field binds.  Every structural walk of core terms reads this
# table.  `LEAVES` have no subterms; `Hole`, which only the elaborator makes
# and replaces, is in neither.
SUBTERMS = {
    Pi: (("domain", 0), ("codomain", 1)),
    Lambda: (("body", 1),),
    Apply: (("fn", 0), ("arg", 0)),
    Sigma: (("first", 0), ("second", 1)),
    Pair: (("fst", 0), ("snd", 0)),
    Fst: (("pair", 0),),
    Snd: (("pair", 0),),
    Id: (("type", 0), ("lhs", 0), ("rhs", 0)),
    Refl: (("point", 0),),
    J: (("motive", 3), ("base", 1), ("lhs", 0), ("rhs", 0), ("proof", 0)),
    Annot: (("term", 0), ("type", 0)),
}
LEAVES = (Var, Universe, Unit, Star, Constant)


def _fields(term) -> tuple:
    fields = SUBTERMS.get(type(term))
    if fields is not None:
        return fields
    if isinstance(term, LEAVES):
        return ()
    raise MalformedTermError(f"not a term: {term!r}")


def subterms(term: Term) -> list:
    """The (subterm, number of variables it binds) pairs of `term`, in field
    order; none for a leaf."""
    return [(getattr(term, name), binds) for name, binds in _fields(term)]


def map_subterms(term: Term, fn) -> Term:
    """`term` with each subterm `t` that binds `k` variables replaced by
    `fn(t, k)`; `term` itself when every replacement is the subterm itself."""
    changed = {}
    for name, binds in _fields(term):
        old = getattr(term, name)
        new = fn(old, binds)
        if new is not old:
            changed[name] = new
    return dataclasses.replace(term, **changed) if changed else term


# The walks below are plain loops: a recursive call made inside `all()` or
# `any()` over a generator also nests C frames, and overflows the C stack of
# a deep term well before the recursion limit.

def validate(term: Term, depth: int) -> bool:
    """True iff every variable index is below its local binding depth plus `depth`."""
    return _constants(term, depth, set())


def _constants(term: Term, depth: int, acc: set) -> bool:
    """`validate`, adding the names of the constants met on the way to `acc`;
    `pretty_print` avoids them as binder names."""
    if isinstance(term, Var):
        return 0 <= term.ix < depth
    if isinstance(term, Constant):
        acc.add(term.name)
    for sub, binds in subterms(term):
        if not _constants(sub, depth + binds, acc):
            return False
    return True


def _used(term: Term, ix: int) -> bool:
    """Does de Bruijn index `ix` occur in `term`?"""
    if isinstance(term, Var):
        return term.ix == ix
    for sub, binds in subterms(term):
        if _used(sub, ix + binds):
            return True
    return False


def shift(term: Term, by: int, cutoff: int = 0) -> Term:
    """Shift free variables at or above `cutoff` by `by`."""
    if isinstance(term, Var):
        return Var(term.ix + by) if term.ix >= cutoff else term
    return map_subterms(term, lambda sub, binds: shift(sub, by, cutoff + binds))


# ---------------------------------------------------------------------------
# Pretty printing.  Output re-parses (see surface parser) to an alpha
# equivalent term; binder hints are freshened against everything in scope.

_RESERVED = {"def", "postulate", "fst", "snd", "refl", "J", "Id"}


def _fresh(hint: str, avoid: set) -> str:
    base = hint if hint and hint != "_" else "x"
    if base not in avoid and base not in _RESERVED:
        return base
    n = 1
    while f"{base}{n}" in avoid or f"{base}{n}" in _RESERVED:
        n += 1
    return f"{base}{n}"


def pretty_print(term: Term, names: list) -> str:
    """Render `term` in surface syntax; `names` gives the enclosing binders,
    innermost last."""
    avoid = set(names)
    if not _constants(term, len(names), avoid):
        raise MalformedTermError("pretty_print: term is not well scoped")
    return _pp(term, list(names), avoid, 0)


# prec: 0 = term (arrows, lambdas), 1 = application, 2 = atom
def _pp(term: Term, names: list, avoid: set, prec: int) -> str:
    def wrap(s: str, at: int) -> str:
        return f"({s})" if prec > at else s

    match term:
        case Var(ix):
            return names[len(names) - 1 - ix]
        case Universe(Level(i)):
            return f"U{i}"
        case Unit():
            return "1"
        case Star():
            return "*"
        case Constant(name):
            return name
        case Pi(d, c, h):
            x = "_" if not _used(c, 0) else _fresh(h, avoid)
            dom = _pp(d, names, avoid, 0)
            cod = _pp(c, names + [x], avoid | {x}, 0)
            return wrap(f"({x} : {dom}) -> {cod}", 0)
        case Sigma(f, s, h):
            x = "_" if not _used(s, 0) else _fresh(h, avoid)
            fst_s = _pp(f, names, avoid, 0)
            snd_s = _pp(s, names + [x], avoid | {x}, 0)
            return wrap(f"({x} : {fst_s}) * {snd_s}", 0)
        case Lambda():
            binders = []
            body = term
            while isinstance(body, Lambda):
                x = _fresh(body.hint, avoid)
                binders.append(x)
                avoid = avoid | {x}
                names = names + [x]
                body = body.body
            return wrap(f"\\{' '.join(binders)} -> {_pp(body, names, avoid, 0)}", 0)
        case Apply(f, a):
            return wrap(f"{_pp(f, names, avoid, 1)} {_pp(a, names, avoid, 2)}", 1)
        case Pair(a, b):
            return f"({_pp(a, names, avoid, 0)}, {_pp(b, names, avoid, 0)})"
        case Fst(p):
            return wrap(f"fst {_pp(p, names, avoid, 2)}", 1)
        case Snd(p):
            return wrap(f"snd {_pp(p, names, avoid, 2)}", 1)
        case Id(t, l, r):
            parts = " ".join(_pp(u, names, avoid, 2) for u in (t, l, r))
            return wrap(f"Id {parts}", 1)
        case Refl(p):
            return wrap(f"refl {_pp(p, names, avoid, 2)}", 1)
        case J(m, b, l, r, pr, hints):
            hx, hy, hp, bx = hints
            x = _fresh(hx, avoid)
            y = _fresh(hy, avoid | {x})
            p = _fresh(hp, avoid | {x, y})
            motive = f"(\\{x} {y} {p} -> {_pp(m, names + [x, y, p], avoid | {x, y, p}, 0)})"
            x2 = _fresh(bx, avoid)
            base = f"(\\{x2} -> {_pp(b, names + [x2], avoid | {x2}, 0)})"
            rest = " ".join(_pp(u, names, avoid, 2) for u in (l, r, pr))
            return wrap(f"J {motive} {base} {rest}", 1)
        case Annot(t, _):
            # annotations are elaborator-internal; print the underlying term
            return _pp(t, names, avoid, prec)
    raise MalformedTermError(f"not a term: {term!r}")
