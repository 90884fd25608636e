"""Core term language: nameless terms, contexts, declarations.

Variables are de Bruijn indices; the names attached to binders are printing
hints only and never influence equality (they are excluded from comparison).
"""

from __future__ import annotations

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
    hints: tuple = field(default=("x", "y", "p"), compare=False)


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


def validate(term: Term, depth: int) -> bool:
    """True iff every variable index is below its local binding depth plus `depth`."""
    match term:
        case Var(ix):
            return 0 <= ix < depth
        case Universe() | Unit() | Star() | Constant():
            return True
        case Pi(domain, codomain):
            return validate(domain, depth) and validate(codomain, depth + 1)
        case Lambda(body):
            return validate(body, depth + 1)
        case Apply(fn, arg):
            return validate(fn, depth) and validate(arg, depth)
        case Sigma(first, second):
            return validate(first, depth) and validate(second, depth + 1)
        case Pair(a, b):
            return validate(a, depth) and validate(b, depth)
        case Fst(p) | Snd(p):
            return validate(p, depth)
        case Id(ty, lhs, rhs):
            return validate(ty, depth) and validate(lhs, depth) and validate(rhs, depth)
        case Refl(point):
            return validate(point, depth)
        case J(motive, base, lhs, rhs, proof):
            return (
                validate(motive, depth + 3)
                and validate(base, depth + 1)
                and validate(lhs, depth)
                and validate(rhs, depth)
                and validate(proof, depth)
            )
        case Annot(t, ty):
            return validate(t, depth) and validate(ty, depth)
    raise MalformedTermError(f"not a term: {term!r}")


def _used(term: Term, ix: int) -> bool:
    """Does de Bruijn index `ix` occur in `term`?"""
    match term:
        case Var(i):
            return i == ix
        case Universe() | Unit() | Star() | Constant():
            return False
        case Pi(d, c):
            return _used(d, ix) or _used(c, ix + 1)
        case Lambda(b):
            return _used(b, ix + 1)
        case Apply(f, a):
            return _used(f, ix) or _used(a, ix)
        case Sigma(f, s):
            return _used(f, ix) or _used(s, ix + 1)
        case Pair(a, b):
            return _used(a, ix) or _used(b, ix)
        case Fst(p) | Snd(p):
            return _used(p, ix)
        case Id(t, l, r):
            return _used(t, ix) or _used(l, ix) or _used(r, ix)
        case Refl(p):
            return _used(p, ix)
        case J(m, b, l, r, pr):
            return (
                _used(m, ix + 3) or _used(b, ix + 1)
                or _used(l, ix) or _used(r, ix) or _used(pr, ix)
            )
        case Annot(t, ty):
            return _used(t, ix) or _used(ty, ix)
    raise MalformedTermError(f"not a term: {term!r}")


def shift(term: Term, by: int, cutoff: int = 0) -> Term:
    """Shift free variables at or above `cutoff` by `by`."""
    match term:
        case Var(ix):
            return Var(ix + by) if ix >= cutoff else term
        case Universe() | Unit() | Star() | Constant():
            return term
        case Pi(d, c, h):
            return Pi(shift(d, by, cutoff), shift(c, by, cutoff + 1), h)
        case Lambda(b, h):
            return Lambda(shift(b, by, cutoff + 1), h)
        case Apply(f, a):
            return Apply(shift(f, by, cutoff), shift(a, by, cutoff))
        case Sigma(f, s, h):
            return Sigma(shift(f, by, cutoff), shift(s, by, cutoff + 1), h)
        case Pair(a, b):
            return Pair(shift(a, by, cutoff), shift(b, by, cutoff))
        case Fst(p):
            return Fst(shift(p, by, cutoff))
        case Snd(p):
            return Snd(shift(p, by, cutoff))
        case Id(t, l, r):
            return Id(shift(t, by, cutoff), shift(l, by, cutoff), shift(r, by, cutoff))
        case Refl(p):
            return Refl(shift(p, by, cutoff))
        case J(m, b, l, r, pr, hs):
            return J(
                shift(m, by, cutoff + 3), shift(b, by, cutoff + 1),
                shift(l, by, cutoff), shift(r, by, cutoff), shift(pr, by, cutoff), hs,
            )
        case Annot(t, ty):
            return Annot(shift(t, by, cutoff), shift(ty, by, cutoff))
    raise MalformedTermError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Pretty printing.  Output re-parses (see surface parser) to an alpha
# equivalent term; binder hints are freshened against everything in scope.

def _constants(term: Term, acc: set) -> set:
    match term:
        case Constant(name):
            acc.add(name)
        case Pi(d, c) | Sigma(d, c):
            _constants(d, acc), _constants(c, acc)
        case Lambda(b):
            _constants(b, acc)
        case Apply(f, a) | Pair(f, a):
            _constants(f, acc), _constants(a, acc)
        case Fst(p) | Snd(p) | Refl(p):
            _constants(p, acc)
        case Id(t, l, r):
            _constants(t, acc), _constants(l, acc), _constants(r, acc)
        case J(m, b, l, r, pr):
            for sub in (m, b, l, r, pr):
                _constants(sub, acc)
        case Annot(t, ty):
            _constants(t, acc), _constants(ty, acc)
    return acc


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
    if not validate(term, len(names)):
        raise MalformedTermError("pretty_print: term is not well scoped")
    avoid = set(names) | _constants(term, set())
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
            hx, hy, hp = hints[:3] if len(hints) >= 3 else ("x", "y", "p")
            bx = hints[3] if len(hints) > 3 else hx
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
