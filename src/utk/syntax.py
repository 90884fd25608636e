"""Core term language: nameless terms, contexts, declarations.

Variables are de Bruijn indices; the names attached to binders are printing
hints only and never influence equality (they are excluded from comparison).

Terms are slotted dataclasses, small and quick to build, and nothing assigns
a field of a term once it is built except checking's `Hole.solution`.  So a
term may be shared, a DAG rather than a tree: every construction site takes
its `Var` and `Universe` from `var` and `universe`, which keep one of each
index and level, and a normal form shares every repeated subterm.
"""

from __future__ import annotations

import dataclasses
import functools
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


@dataclass(slots=True)
class Var:
    ix: int


@dataclass(slots=True)
class Universe:
    level: Level


@dataclass(slots=True)
class Pi:
    domain: "Term"
    codomain: "Term"  # binds one variable
    hint: str = field(default="_", compare=False)


@dataclass(slots=True)
class Lambda:
    body: "Term"  # binds one variable
    hint: str = field(default="x", compare=False)


@dataclass(slots=True)
class Apply:
    fn: "Term"
    arg: "Term"


@dataclass(slots=True)
class Sigma:
    first: "Term"
    second: "Term"  # binds one variable
    hint: str = field(default="_", compare=False)


@dataclass(slots=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(slots=True)
class Fst:
    pair: "Term"


@dataclass(slots=True)
class Snd:
    pair: "Term"


@dataclass(slots=True)
class Unit:
    pass


@dataclass(slots=True)
class Star:
    pass


@dataclass(slots=True)
class Id:
    type: "Term"
    lhs: "Term"
    rhs: "Term"


@dataclass(slots=True)
class Refl:
    point: "Term"


@dataclass(slots=True)
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


@dataclass(slots=True)
class Constant:
    name: str


@dataclass(slots=True)
class Annot:
    term: "Term"
    type: "Term"


@dataclass(eq=False)
class Hole:
    """The placeholder `_`: the parser makes it, checking solves it in place,
    and the elaborator replaces it by its solution before a declaration is
    produced.  Never part of checked output."""

    line: int = 0
    col: int = 0
    solution: Optional["Term"] = None


Term = Union[
    Var, Universe, Pi, Lambda, Apply, Sigma, Pair, Fst, Snd,
    Unit, Star, Id, Refl, J, Constant, Annot,
]

UNIT = Unit()
STAR = Star()


@functools.cache
def var(ix: int) -> Var:
    """The one `Var` of index `ix` (kept for good: one per index met)."""
    return Var(ix)


@functools.cache
def universe(i: int) -> Universe:
    """The one `Universe` of level `i` (`Level` rejects any other `i`)."""
    return Universe(Level(i))


@dataclass(frozen=True)
class Declaration:
    name: str
    type: Term
    body: Optional[Term] = None  # None = postulate
    opaque: bool = False  # opaque definitions do not unfold during evaluation


# Each term former's term-valued fields, in order, with the number of
# variables each field binds.  Every structural walk of core terms reads this
# table.  `LEAVES` have no subterms; `Hole`, which the parser makes and the
# elaborator replaces, is in neither.
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


def _equal(a: Term, b: Term) -> bool:
    """Structural equality of core terms, binder hints ignored, walked with
    an explicit stack; a `Hole` equals only itself."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        fields = SUBTERMS.get(cls)
        if fields is not None:
            for name, _ in fields:
                stack.append((getattr(a, name), getattr(b, name)))
        elif not (cls is Var and a.ix == b.ix or cls is Universe and a.level == b.level
                  or cls is Constant and a.name == b.name or cls is Unit or cls is Star):
            return False
    return True


# `==` replaces the generated one, which recursed through C, and nothing
# hashes a core term.
for _cls in (*SUBTERMS, *LEAVES):
    _cls.__eq__ = _equal
    _cls.__hash__ = None


def _fields(term) -> tuple:
    fields = SUBTERMS.get(type(term))
    if fields is not None:
        return fields
    if isinstance(term, LEAVES):
        return ()
    raise MalformedTermError(f"not a term: {term!r}")


def map_subterms(term: Term, fn, depth: int = 0) -> Term:
    """`term` with each subterm `t` that binds `k` variables replaced by
    `fn(t, depth + k)`; `term` itself when every replacement is the subterm
    itself."""
    changed = {}
    for name, binds in SUBTERMS.get(term.__class__) or _fields(term):
        old = getattr(term, name)
        new = fn(old, depth + binds)
        if new is not old:
            changed[name] = new
    return dataclasses.replace(term, **changed) if changed else term


# The walks below are plain loops: a recursive call made inside `all()` or
# `any()` over a generator also nests C frames, and overflows the C stack of
# a deep term well before the recursion limit.

def validate(term: Term, depth: int) -> bool:
    """True iff every variable index is below its local binding depth plus `depth`."""
    return _scan(term, depth, set(), set()) is not None


def _scan(term: Term, depth: int, consts: set, unnamed: set) -> Optional[int]:
    """The bitmask of `term`'s free de Bruijn indices, or None if it is not
    well scoped.  Adds the constants met to `consts`, and the id of each Pi or
    Sigma whose variable does not occur to `unnamed` (a mask does not depend
    on where its subterm occurs, so ids are sound on shared subterms)."""
    cls = term.__class__
    if cls is Var:
        return 1 << term.ix if 0 <= term.ix < depth else None
    if cls is Constant:
        consts.add(term.name)
    mask = 0
    for name, binds in _fields(term):
        sub = _scan(getattr(term, name), depth + binds, consts, unnamed)
        if sub is None:
            return None
        if binds and not sub & 1 and (cls is Pi or cls is Sigma):
            unnamed.add(id(term))
        mask |= sub >> binds
    return mask


def shift(term: Term, by: int, cutoff: int = 0) -> Term:
    """Shift free variables at or above `cutoff` by `by`."""
    if isinstance(term, Var):
        return var(term.ix + by) if term.ix >= cutoff else term
    return map_subterms(term, lambda sub, c: shift(sub, by, c), cutoff)


# ---------------------------------------------------------------------------
# Pretty printing.  Output re-parses (see `utk.parser`) to an alpha
# equivalent term; binder hints are freshened against everything in scope.

# The surface keywords: the parser's tokenizer reads them as keywords, so the
# printer never names a binder with one.
KEYWORDS = frozenset({"def", "postulate", "fst", "snd", "refl", "J", "Id"})


def _fresh(hint: str, avoid: set) -> str:
    base = hint if hint and hint != "_" else "x"
    if base not in avoid and base not in KEYWORDS:
        return base
    n = 1
    while f"{base}{n}" in avoid or f"{base}{n}" in KEYWORDS:
        n += 1
    return f"{base}{n}"


def pretty_print(term: Term, names: list) -> str:
    """Render `term` in surface syntax; `names` gives the enclosing binders,
    innermost last.  One walk checks scope and finds the unused Pi and Sigma
    binders, and a second writes the text to one buffer."""
    avoid, unnamed = set(names), set()
    if _scan(term, len(names), avoid, unnamed) is None:
        raise MalformedTermError("pretty_print: term is not well scoped")
    chunks, pieces = [], []

    def put(piece: str):  # held as joined chunks: a list of pieces or a StringIO peaks higher
        pieces.append(piece)
        if len(pieces) == 1024:
            chunks.append("".join(pieces))
            pieces.clear()

    _emit(term, 0, list(names), avoid, unnamed, put)
    chunks.append("".join(pieces))
    return "".join(chunks)


# `names` and `avoid` grow and shrink in place at each binder.  A fresh name
# is never already in `avoid`, so removing it restores the set; `_`, the only
# other name bound, is never looked up there.
def _bind(names: list, avoid: set, x: str) -> str:
    names.append(x)
    avoid.add(x)
    return x


def _unbind(names: list, avoid: set, k: int):
    avoid.difference_update(names[-k:])
    del names[-k:]


# prec: 0 = term (arrows, lambdas), 1 = application, 2 = atom.  A former is
# parenthesized where its context needs a tighter precedence than its own.
_PREC = {Pi: 0, Sigma: 0, Lambda: 0, Apply: 1, Fst: 1, Snd: 1, Refl: 1, Id: 1, J: 1}
_WORD_OF = {Fst: "fst", Snd: "snd", Refl: "refl", Id: "Id"}


def _emit(term: Term, prec: int, names: list, avoid: set, unnamed: set, put):
    cls = term.__class__
    if cls is Var:
        put(names[len(names) - 1 - term.ix])
        return
    wrap = prec > _PREC.get(cls, 2)
    if wrap:
        put("(")
    if cls is Apply:
        _emit(term.fn, 1, names, avoid, unnamed, put)
        put(" ")
        _emit(term.arg, 2, names, avoid, unnamed, put)
    elif cls is Pi or cls is Sigma:
        (dom, _), (cod, _) = SUBTERMS[cls]
        x = "_" if id(term) in unnamed else _fresh(term.hint, avoid)
        put(f"({x} : ")
        _emit(getattr(term, dom), 0, names, avoid, unnamed, put)
        put(") -> " if cls is Pi else ") * ")
        _bind(names, avoid, x)
        _emit(getattr(term, cod), 0, names, avoid, unnamed, put)
        _unbind(names, avoid, 1)
    elif cls is Lambda:
        k = len(names)
        while term.__class__ is Lambda:
            _bind(names, avoid, _fresh(term.hint, avoid))
            term = term.body
        k = len(names) - k
        put(f"\\{' '.join(names[-k:])} -> ")
        _emit(term, 0, names, avoid, unnamed, put)
        _unbind(names, avoid, k)
    elif cls is Constant:
        put(term.name)
    elif cls is Universe:
        put(f"U{term.level.index}")
    elif cls is Unit or cls is Star:
        put("1" if cls is Unit else "*")
    elif cls is Pair:
        put("(")
        _emit(term.fst, 0, names, avoid, unnamed, put)
        put(", ")
        _emit(term.snd, 0, names, avoid, unnamed, put)
        put(")")
    elif cls is Annot:
        _emit(term.term, prec, names, avoid, unnamed, put)  # annotations are elaborator-internal
    else:  # Fst, Snd, Refl, Id and J apply a keyword to atoms
        if cls is J:
            xs = [_bind(names, avoid, _fresh(hint, avoid)) for hint in term.hints[:3]]
            put(f"J (\\{' '.join(xs)} -> ")
            _emit(term.motive, 0, names, avoid, unnamed, put)
            _unbind(names, avoid, 3)
            put(f") (\\{_bind(names, avoid, _fresh(term.hints[3], avoid))} -> ")
            _emit(term.base, 0, names, avoid, unnamed, put)
            _unbind(names, avoid, 1)
            put(")")
        else:
            put(_WORD_OF[cls])
        for name, binds in SUBTERMS[cls]:
            if not binds:
                put(" ")
                _emit(getattr(term, name), 2, names, avoid, unnamed, put)
    if wrap:
        put(")")
