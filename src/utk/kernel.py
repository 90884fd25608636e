"""Bidirectional type checker with definitional equality by normalization.

Evaluation maps terms into a semantic domain (`Value`); conversion compares
values type-directedly, validating eta for Pi, Sigma and Unit.

Evaluation is call by need: an argument is a memoised `Lazy` that is
evaluated when a variable lookup first needs it.  Postulates and opaque
definitions are rigid neutral heads.  A transparent definition evaluates to a
glued neutral: its name and spine, plus its unfolding, computed when first
needed.  Conversion compares two glued neutrals with the same head by their
spines before it unfolds them, and `whnf` unfolds wherever a value's shape is
matched.  Quoting unfolds every transparent definition, so normal forms do not
depend on the gluing; a normal form shares every repeated subterm, built once
per call.  Evaluation, readback, conversion and the checker dispatch on
`__class__` with `is` tests, most frequent class first; no term or value
class is subclassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import syntax as S
from .syntax import (
    Annot, Apply, Constant, Declaration, Fst, Id, J, Lambda, Pair, Pi, Refl,
    Sigma, Snd, Star, Term, Unit, Universe, Var, MAX_LEVEL,
)


class KernelError(Exception):
    """Base class for checking failures."""


class TypeMismatchError(KernelError):
    """Names the expected and inferred normal forms in its message."""

    def __init__(self, expected: Term, inferred: Term, names: list):
        exp = S.pretty_print(expected, names)
        got = S.pretty_print(inferred, names)
        super().__init__(f"type mismatch: expected {exp}, got {got}")


class NoInferableTypeError(KernelError):
    pass


class UnboundConstantError(KernelError):
    pass


class UniverseOverflowError(KernelError):
    pass


class UnsolvablePlaceholderError(KernelError):
    """A `_` whose expected type is not a definitional singleton."""


class DeclarationError(KernelError):
    """Failure while checking a named declaration."""

    def __init__(self, name: str, cause: Exception):
        self.decl_name = name
        self.cause = cause
        super().__init__(f"{name}: {cause}")


# ---------------------------------------------------------------------------
# Semantic domain


class Lazy:
    """A memoised suspension: `fn(a, b, c)` runs on the first `force`, and
    the result is kept in place of the call.  Arguments (in environments and
    spines) and the unfoldings of glued neutrals are lazy.  The call has a
    fixed arity: `fn(*args)` would nest a C frame per forced thunk."""

    __slots__ = ("fn", "a", "b", "c", "value")

    def __init__(self, fn, a, b, c):
        self.fn, self.a, self.b, self.c = fn, a, b, c

    def force(self) -> "Value":
        if self.fn is not None:
            self.value = self.fn(self.a, self.b, self.c)
            self.fn = self.a = self.b = self.c = None
        return self.value


def force(v) -> "Value":
    return v.force() if v.__class__ is Lazy else v


@dataclass(slots=True)
class Closure:
    env: tuple
    body: Term
    scope: "GlobalScope" = None

    def apply(self, *args: "Value") -> "Value":
        return evaluate(self.scope, self.env + args, self.body)


@dataclass(slots=True)
class VUniverse:
    level: int


@dataclass(slots=True)
class VPi:
    domain: "Value"
    codomain: Closure
    hint: str = "_"


@dataclass(slots=True)
class VLambda:
    closure: Closure
    hint: str = "x"


@dataclass(slots=True)
class VSigma:
    first: "Value"
    second: Closure
    hint: str = "_"


@dataclass(slots=True)
class VPair:
    fst: "Value"
    snd: "Value"


@dataclass(slots=True)
class VUnit:
    pass


@dataclass(slots=True)
class VStar:
    pass


@dataclass(slots=True)
class VId:
    type: "Value"
    lhs: "Value"
    rhs: "Value"


@dataclass(slots=True)
class VRefl:
    point: "Value"


@dataclass(slots=True)
class VVar:
    lvl: int
    type: "Value"


@dataclass(slots=True)
class VConst:
    name: str
    type: "Value"
    body: Optional["Value"] = field(default=None, repr=False, compare=False)  # None: rigid


@dataclass(slots=True)
class SApp:
    arg: "Value"  # or a Lazy


@dataclass(slots=True)
class SFst:
    pass


@dataclass(slots=True)
class SSnd:
    pass


@dataclass(slots=True)
class SJ:
    motive: Closure  # three arguments
    base: Closure  # one argument
    lhs: "Value"
    rhs: "Value"
    hints: tuple = ("x", "y", "p", "x")


@dataclass(slots=True)
class VNeutral:
    """A head and its eliminators.  A neutral whose head is a transparent
    constant is glued: `unfold` is the value it δ-reduces to, computed when
    first needed.  Rigid neutrals have no unfolding."""

    head: Union[VVar, VConst]
    spine: tuple = ()
    unfold: object = field(default=None, repr=False, compare=False)
    mismatch: object = field(default=None, repr=False, compare=False)  # see _spines_convert


Value = Union[VUniverse, VPi, VLambda, VSigma, VPair, VUnit, VStar, VId, VRefl, VNeutral]

V_UNIT = VUnit()
V_STAR = VStar()
S_FST, S_SND = SFst(), SSnd()  # projections carry no data, so one of each serves every spine


@dataclass(slots=True)
class ScopeEntry:
    type: Value
    body: Optional[Value]  # None: postulate
    opaque: bool = False
    value: Value = None  # the constant as a neutral, glued to `body` unless opaque


class GlobalScope:
    """Checked declarations, in dependency order, and the solution checking
    found for each placeholder, keyed by its `Hole`."""

    def __init__(self):
        self.entries: dict = {}
        self.solutions: dict = {}

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> ScopeEntry:
        return self.entries[name]

    def add(self, name: str, entry: ScopeEntry):
        if name in self.entries:
            raise KernelError(f"duplicate declaration: {name}")
        self.entries[name] = entry


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(scope: GlobalScope, env: tuple, term: Term) -> Value:
    cls = term.__class__
    if cls is Var:
        v = env[len(env) - 1 - term.ix]
        return v.force() if v.__class__ is Lazy else v
    if cls is Apply:
        return do_apply(evaluate(scope, env, term.fn), delay(scope, env, term.arg))
    if cls is Lambda:
        return VLambda(Closure(env, term.body, scope), term.hint)
    if cls is Pi:
        return VPi(evaluate(scope, env, term.domain), Closure(env, term.codomain, scope), term.hint)
    if cls is Id:
        return VId(evaluate(scope, env, term.type), evaluate(scope, env, term.lhs),
                   evaluate(scope, env, term.rhs))
    if cls is Constant:
        entry = scope.entries.get(term.name)
        if entry is None:
            raise UnboundConstantError(f"unbound constant: {term.name}")
        return entry.value
    if cls is Sigma:
        return VSigma(evaluate(scope, env, term.first), Closure(env, term.second, scope), term.hint)
    if cls is Universe:
        return VUniverse(term.level.index)
    if cls is Fst:
        return do_fst(evaluate(scope, env, term.pair))
    if cls is Snd:
        return do_snd(evaluate(scope, env, term.pair))
    if cls is Pair:
        return VPair(evaluate(scope, env, term.fst), evaluate(scope, env, term.snd))
    if cls is Unit:
        return V_UNIT
    if cls is Refl:
        return VRefl(evaluate(scope, env, term.point))
    if cls is J:
        return do_j(
            Closure(env, term.motive, scope), Closure(env, term.base, scope),
            evaluate(scope, env, term.lhs), evaluate(scope, env, term.rhs),
            evaluate(scope, env, term.proof), term.hints,
        )
    if cls is Star:
        return V_STAR
    if cls is Annot:
        return evaluate(scope, env, term.term)
    if cls is S.Hole and term in scope.solutions:
        return evaluate(scope, env, scope.solutions[term])
    raise S.MalformedTermError(f"not a term: {term!r}")


def delay(scope: GlobalScope, env: tuple, term: Term):
    """The value of `term`, evaluated when first needed (call by need)."""
    if term.__class__ is Var:
        return env[len(env) - 1 - term.ix]
    return Lazy(evaluate, scope, env, term)


def neutral(head) -> VNeutral:
    """A head with no eliminators, glued to its body if it has one."""
    return VNeutral(head, (), head.body if head.__class__ is VConst else None)


def whnf(v: Value) -> Value:
    """Unfold glued neutrals until the value is rigid or not neutral."""
    while v.__class__ is VNeutral and v.unfold is not None:
        v = force(v.unfold)
    return v


def _extend(n: VNeutral, item) -> VNeutral:
    """n with one more eliminator; a glued neutral's unfolding follows.  J
    unfolds its proof first, so only applications and projections reach a
    glued neutral."""
    u = n.unfold
    return VNeutral(n.head, n.spine + (item,), None if u is None else Lazy(_eliminate, u, item, None))


def _eliminate(v, item, _) -> Value:
    """`v` eliminated by `item`; the third argument pads Lazy's arity."""
    v = force(v)
    if item.__class__ is SApp:
        return do_apply(v, item.arg)
    return do_fst(v) if item.__class__ is SFst else do_snd(v)


def do_apply(fn: Value, arg) -> Value:
    if fn.__class__ is VLambda:
        clo = fn.closure
        return evaluate(clo.scope, clo.env + (arg,), clo.body)
    if fn.__class__ is VNeutral:
        return _extend(fn, SApp(arg))
    raise KernelError(f"cannot apply non-function value {fn!r}")


def do_fst(p: Value) -> Value:
    if p.__class__ is VPair:
        return p.fst
    if p.__class__ is VNeutral:
        return _extend(p, S_FST)
    raise KernelError(f"cannot project non-pair value {p!r}")


def do_snd(p: Value) -> Value:
    if p.__class__ is VPair:
        return p.snd
    if p.__class__ is VNeutral:
        return _extend(p, S_SND)
    raise KernelError(f"cannot project non-pair value {p!r}")


def do_j(motive: Closure, base: Closure, lhs: Value, rhs: Value, proof: Value,
         hints: tuple = ("x", "y", "p", "x")) -> Value:
    """J computes on refl, so a glued proof unfolds first."""
    stuck = whnf(proof)
    if stuck.__class__ is VRefl:
        return base.apply(lhs)
    if stuck.__class__ is VNeutral:
        return _extend(stuck, SJ(motive, base, lhs, rhs, hints))
    raise KernelError(f"cannot eliminate non-path value {proof!r}")


def fresh(lvl: int, type_v: Value) -> VNeutral:
    return VNeutral(VVar(lvl, type_v))


def _j_vars(d: int, a_ty: Value) -> tuple:
    """J's variables at depth d over `a_ty`: the motive's x, y and
    p : Id a_ty x y.  The base binds x alone, so its x is the motive's."""
    x, y = fresh(d, a_ty), fresh(d + 1, a_ty)
    return x, y, fresh(d + 2, VId(a_ty, x, y))


# The type former that each spine item eliminates.
_ELIMINATES = {SApp: VPi, SFst: VSigma, SSnd: VSigma, SJ: VId}


def _spine_types(n: VNeutral):
    """Yield each item of n's spine with the type it eliminates, in whnf, or
    with None if the item does not fit that type, which ends the walk.  The
    type after an item is computed only when another item follows.  The
    prefix that a Snd or J type needs is built only there, from
    `neutral(head)` with the same eliminators, so it is glued if n is; only
    applications and projections reach a glued head."""
    head, spine = n.head, n.spine
    ty, prefix, built, last = head.type, None, 0, len(spine) - 1
    for i, item in enumerate(spine):
        t, cls = whnf(ty), item.__class__
        if t.__class__ is not _ELIMINATES[cls]:
            yield item, None
            return
        yield item, t
        if i == last:
            return
        if cls is SApp:
            ty = t.codomain.apply(item.arg)
        elif cls is SFst:
            ty = t.first
        else:
            prefix = prefix or neutral(head)
            for done in spine[built:i]:
                prefix = _extend(prefix, done)
            built = i
            if cls is SSnd:
                ty = t.second.apply(do_fst(prefix))
            else:
                ty = item.motive.apply(item.lhs, item.rhs, prefix)


# ---------------------------------------------------------------------------
# Quoting (type-directed readback; produces eta-long beta normal forms, with
# every transparent constant unfolded)


def _node(nodes: dict, cls, *fields) -> Term:
    """The readback's one `cls(*fields)`.  Subterms (unhashable) key by id,
    which the node keeps alive; hints and names key by value."""
    key = (cls, *[id(f) if f.__hash__ is None else f for f in fields])
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = cls(*fields)
    return node


def quote(d: int, value: Value, type_v: Value, nodes: dict) -> Term:
    ty = whnf(type_v)
    cls = ty.__class__
    if cls is VNeutral or cls is VId:
        v = whnf(value)
        if v.__class__ is VNeutral:
            return quote_neutral(d, v, nodes)
        if v.__class__ is VRefl and cls is VId:
            return _node(nodes, Refl, quote(d, v.point, ty.type, nodes))
    elif cls is VUniverse:
        return quote_type(d, value, nodes)
    elif cls is VPi:
        x, h = fresh(d, ty.domain), ty.hint
        body = quote(d + 1, do_apply(value, x), ty.codomain.apply(x), nodes)
        return _node(nodes, Lambda, body, h if h != "_" else "x")
    elif cls is VSigma:
        a = do_fst(value)
        return _node(nodes, Pair, quote(d, a, ty.first, nodes),
                     quote(d, do_snd(value), ty.second.apply(a), nodes))
    elif cls is VUnit:
        return S.STAR
    raise KernelError(f"quote: value {value!r} does not fit type {type_v!r}")


def quote_type(d: int, value: Value, nodes: dict) -> Term:
    v = whnf(value)
    cls = v.__class__
    if cls is VNeutral:
        return quote_neutral(d, v, nodes)
    if cls is VSigma:
        x = fresh(d, v.first)
        return _node(nodes, Sigma, quote_type(d, v.first, nodes),
                     quote_type(d + 1, v.second.apply(x), nodes), v.hint)
    if cls is VId:
        return _node(nodes, Id, quote_type(d, v.type, nodes), quote(d, v.lhs, v.type, nodes),
                     quote(d, v.rhs, v.type, nodes))
    if cls is VPi:
        x = fresh(d, v.domain)
        return _node(nodes, Pi, quote_type(d, v.domain, nodes),
                     quote_type(d + 1, v.codomain.apply(x), nodes), v.hint)
    if cls is VUniverse:
        return S.universe(v.level)
    if cls is VUnit:
        return S.UNIT
    raise KernelError(f"quote_type: not a type value: {value!r}")


def quote_neutral(d: int, value: VNeutral, nodes: dict) -> Term:
    """Read back a rigid neutral, typing each spine item at the type it
    eliminates."""
    head = value.head
    term: Term = S.var(d - 1 - head.lvl) if head.__class__ is VVar else _node(nodes, Constant, head.name)
    for item, t in _spine_types(value):
        cls = item.__class__
        if t is None:
            raise KernelError(f"quote_neutral: ill-typed spine item {item!r} on {head!r}")
        if cls is SApp:
            term = _node(nodes, Apply, term, quote(d, force(item.arg), t.domain, nodes))
        elif cls is SFst:
            term = _node(nodes, Fst, term)
        elif cls is SSnd:
            term = _node(nodes, Snd, term)
        else:
            a_ty, motive = t.type, item.motive
            x, y, p = _j_vars(d, a_ty)
            motive_t = quote_type(d + 3, motive.apply(x, y, p), nodes)
            base_t = quote(d + 1, item.base.apply(x), motive.apply(x, x, VRefl(x)), nodes)
            lhs, rhs = quote(d, item.lhs, a_ty, nodes), quote(d, item.rhs, a_ty, nodes)
            term = _node(nodes, J, motive_t, base_t, lhs, rhs, term, item.hints)
    return term


# ---------------------------------------------------------------------------
# Conversion (type-directed) and cumulativity, with glued δ after Coquand's
# 1996 algorithm and Kovács' smalltt.  Two neutrals with the same transparent
# head first compare by their spines with nothing unfolded (`flex`); if that
# fails, or the heads differ, both sides unfold.  A flex comparison never
# unfolds: it gives up instead, and the comparison that started it unfolds.


def _glued(v: Value) -> bool:
    return v.__class__ is VNeutral and v.unfold is not None


def _spines_convert(d: int, v1: Value, v2: Value) -> bool:
    """Whether v1 and v2 are glued neutrals with one head whose spines
    convert with nothing unfolded.  A failed spine comparison is remembered
    on v1, so that unfoldings which expose the same pair again skip it:
    without that, a chain of n such pairs costs n spine comparisons of up to
    n steps each."""
    if _glued(v1) and _glued(v2) and v1.head.name == v2.head.name and v1.mismatch is not v2:
        if convert_neutral(d, v1, v2, True):
            return True
        v1.mismatch = v2
    return False


def convert(d: int, v1: Value, v2: Value, type_v: Value, flex: bool = False) -> bool:
    if v1 is v2:
        return True
    type_v = whnf(type_v)
    cls = type_v.__class__
    if cls is VNeutral or cls is VId:
        if _glued(v1) or _glued(v2):
            if _spines_convert(d, v1, v2):
                return True
            if flex:
                return False
            v1, v2 = whnf(v1), whnf(v2)
        if v1.__class__ is VNeutral and v2.__class__ is VNeutral:
            return convert_neutral(d, v1, v2, flex)
        if v1.__class__ is VRefl and v2.__class__ is VRefl and cls is VId:
            return convert(d, v1.point, v2.point, type_v.type, flex)
        return False
    if cls is VUniverse:
        return convert_type(d, v1, v2, flex)
    if cls is VPi:
        x = fresh(d, type_v.domain)
        return convert(d + 1, do_apply(v1, x), do_apply(v2, x), type_v.codomain.apply(x), flex)
    if cls is VSigma:
        a1 = do_fst(v1)
        if not convert(d, a1, do_fst(v2), type_v.first, flex):
            return False
        return convert(d, do_snd(v1), do_snd(v2), type_v.second.apply(a1), flex)
    if cls is VUnit:
        return True
    raise KernelError(f"convert: not a type value: {type_v!r}")


def convert_type(d: int, t1: Value, t2: Value, flex: bool = False, sub: bool = False) -> bool:
    """Conversion of two types; with `sub`, cumulativity, t1 <= t2: U_i <=
    U_j for i <= j, and Pi codomains and Sigma components compare
    covariantly.  Pi domains and Id types always compare by conversion."""
    if t1 is t2:
        return True
    if _glued(t1) or _glued(t2):
        if _spines_convert(d, t1, t2):
            return True
        if flex:
            return False
        t1, t2 = whnf(t1), whnf(t2)
    cls = t1.__class__
    if cls is not t2.__class__:
        return False
    if cls is VNeutral:
        return convert_neutral(d, t1, t2, flex)
    if cls is VId:
        a1 = t1.type
        return (
            convert_type(d, a1, t2.type, flex)
            and convert(d, t1.lhs, t2.lhs, a1, flex)
            and convert(d, t1.rhs, t2.rhs, a1, flex)
        )
    if cls is VSigma:
        if not convert_type(d, t1.first, t2.first, flex, sub):
            return False
        x = fresh(d, t1.first)
        return convert_type(d + 1, t1.second.apply(x), t2.second.apply(x), flex, sub)
    if cls is VUniverse:
        return t1.level <= t2.level if sub else t1.level == t2.level
    if cls is VPi:
        if not convert_type(d, t1.domain, t2.domain, flex):
            return False
        x = fresh(d, t1.domain)
        return convert_type(d + 1, t1.codomain.apply(x), t2.codomain.apply(x), flex, sub)
    return cls is VUnit


def convert_neutral(d: int, n1: VNeutral, n2: VNeutral, flex: bool = False) -> bool:
    """Compare two neutrals by head and spine, each item pair at the type
    that n1's item eliminates."""
    head, other = n1.head, n2.head
    if head.__class__ is not other.__class__ or (
            head.lvl != other.lvl if head.__class__ is VVar else head.name != other.name):
        return False
    if len(n1.spine) != len(n2.spine):
        return False
    for (i1, t), i2 in zip(_spine_types(n1), n2.spine):
        cls = i1.__class__
        if t is None or cls is not i2.__class__:
            return False
        if cls is SApp:
            a1 = i1.arg
            if a1 is not i2.arg and not convert(d, force(a1), force(i2.arg), t.domain, flex):
                return False
        elif cls is SJ:
            a_ty, m1 = t.type, i1.motive
            x, y, p = _j_vars(d, a_ty)
            if not convert_type(d + 3, m1.apply(x, y, p), i2.motive.apply(x, y, p), flex):
                return False
            if not convert(d + 1, i1.base.apply(x), i2.base.apply(x), m1.apply(x, x, VRefl(x)), flex):
                return False
            if not convert(d, i1.lhs, i2.lhs, a_ty, flex) or not convert(d, i1.rhs, i2.rhs, a_ty, flex):
                return False
    return True


def subtype(d: int, t1: Value, t2: Value) -> bool:
    """Cumulativity, t1 <= t2 (see `convert_type`)."""
    return convert_type(d, t1, t2, False, True)


# ---------------------------------------------------------------------------
# Bidirectional checking.  The context is the environment: each entry is a
# fresh variable, whose head carries its type.


class Checker:
    def __init__(self, scope: GlobalScope, names=None, env=None):
        self.scope = scope
        self.names = names or []  # printing hints, outermost first
        self.env = tuple(env or ())  # fresh variables, outermost first
        self.depth = len(self.env)

    def bind(self, hint: str, type_v: Value) -> "Checker":
        x = fresh(self.depth, type_v)
        return Checker(self.scope, self.names + [hint], self.env + (x,))

    def eval(self, term: Term) -> Value:
        return evaluate(self.scope, self.env, term)

    def infer(self, term: Term) -> Value:
        cls = term.__class__
        if cls is Var:
            ix = term.ix
            if not (0 <= ix < self.depth):
                raise S.MalformedTermError(f"unbound variable index {ix}")
            return self.env[self.depth - 1 - ix].head.type
        if cls is Apply:
            ft = self._infer_as(VPi, term.fn, "cannot apply a term of non-function type")
            self.check(term.arg, ft.domain)
            return ft.codomain.apply(delay(self.scope, self.env, term.arg))
        if cls is Constant:
            entry = self.scope.entries.get(term.name)
            if entry is None:
                raise UnboundConstantError(f"unbound constant: {term.name}")
            return entry.type
        if cls is Pi or cls is Sigma:
            first, second = (term.domain, term.codomain) if cls is Pi else (term.first, term.second)
            i = self.infer_universe(first)
            j = self.bind(term.hint, self.eval(first)).infer_universe(second)
            return VUniverse(max(i, j))
        if cls is Fst:
            return self._infer_as(VSigma, term.pair, "fst of a term of non-pair type").first
        if cls is Universe:
            i = term.level.index
            if i + 1 > MAX_LEVEL:
                raise UniverseOverflowError(
                    f"U{i} has no type below the level ceiling {MAX_LEVEL}")
            return VUniverse(i + 1)
        if cls is Id:
            i = self.infer_universe(term.type)
            tv = self.eval(term.type)
            self.check(term.lhs, tv)
            self.check(term.rhs, tv)
            return VUniverse(i)
        if cls is Snd:
            pt = self._infer_as(VSigma, term.pair, "snd of a term of non-pair type")
            return pt.second.apply(do_fst(self.eval(term.pair)))
        if cls is Unit:
            return VUniverse(0)
        if cls is J:
            m, b, l, r, pr = term.motive, term.base, term.lhs, term.rhs, term.proof
            try:
                a_ty = self.infer(l)
            except NoInferableTypeError:
                # endpoints may be eta-expanded pairs/lambdas; read the type
                # off the proof instead
                pr_ty = whnf(self.infer(pr))
                if pr_ty.__class__ is not VId:
                    raise
                a_ty = pr_ty.type
                self.check(l, a_ty)
            self.check(r, a_ty)
            lv, rv = self.eval(l), self.eval(r)
            self.check(pr, VId(a_ty, lv, rv))
            hx, hy, hp, hb = term.hints
            x, y, p = _j_vars(self.depth, a_ty)
            Checker(self.scope, self.names + [hx, hy, hp], self.env + (x, y, p)).infer_universe(m)
            motive = Closure(self.env, m, self.scope)
            Checker(self.scope, self.names + [hb], self.env + (x,)).check(
                b, motive.apply(x, x, VRefl(x)))
            return motive.apply(lv, rv, self.eval(pr))
        if cls is Star:
            return V_UNIT
        if cls is Refl:
            pt = self.infer(term.point)
            pv = self.eval(term.point)
            return VId(pt, pv, pv)
        if cls is Annot:
            self.infer_universe(term.type)
            tv = self.eval(term.type)
            self.check(term.term, tv)
            return tv
        if cls is Lambda or cls is Pair:
            raise NoInferableTypeError(
                "cannot infer a type for an unannotated lambda or pair")
        if cls is S.Hole:
            raise UnsolvablePlaceholderError(
                "placeholder in a position with no expected type")
        raise S.MalformedTermError(f"not a term: {term!r}")

    def _infer_as(self, cls, term: Term, what: str) -> Value:
        """The type of `term`, in whnf, which must be a `cls`."""
        ty = whnf(self.infer(term))
        if ty.__class__ is not cls:
            raise KernelError(f"{what} {self._show(ty)}")
        return ty

    def _show(self, type_v: Value) -> str:
        return S.pretty_print(quote_type(self.depth, type_v, {}), self.names)

    def infer_universe(self, term: Term) -> int:
        return self._infer_as(VUniverse, term, "expected a universe, got").level

    def solve_placeholder(self, type_v: Value) -> Term:
        """Inhabit a definitional singleton type: the eta-long form of a
        variable of that type, which mentions no variable exactly when the
        type is a singleton.  The solution is closed."""
        solution = quote(self.depth + 1, fresh(self.depth, type_v), type_v, {})
        if not S.validate(solution, 0):
            raise UnsolvablePlaceholderError(
                "placeholder not determined by its expected type " + self._show(type_v))
        return solution

    def check(self, term: Term, type_v: Value):
        ty = whnf(type_v)
        cls = term.__class__
        if cls is Lambda:
            if ty.__class__ is not VPi:
                raise KernelError(
                    "a lambda only checks against a function type, not " + self._show(type_v))
            h = term.hint
            inner = self.bind(h if h != "x" else ty.hint, ty.domain)
            inner.check(term.body, ty.codomain.apply(inner.env[-1]))
        elif cls is Pair:
            if ty.__class__ is not VSigma:
                raise KernelError(
                    "a pair only checks against a pair type, not " + self._show(type_v))
            self.check(term.fst, ty.first)
            self.check(term.snd, ty.second.apply(delay(self.scope, self.env, term.fst)))
        elif cls is Refl and ty.__class__ is VId:
            # lets the point be a pair or lambda, which cannot infer
            p = term.point
            self.check(p, ty.type)
            pv = self.eval(p)
            if not (convert(self.depth, pv, ty.lhs, ty.type)
                    and convert(self.depth, pv, ty.rhs, ty.type)):
                raise TypeMismatchError(
                    quote_type(self.depth, type_v, {}),
                    quote_type(self.depth, VId(ty.type, pv, pv), {}), self.names)
        elif cls is S.Hole:
            self.scope.solutions[term] = self.solve_placeholder(type_v)
        else:
            inferred = self.infer(term)
            if not subtype(self.depth, inferred, type_v):
                raise TypeMismatchError(
                    quote_type(self.depth, type_v, {}),
                    quote_type(self.depth, inferred, {}), self.names)


def _context_checker(scope: GlobalScope, ctx) -> Checker:
    chk = Checker(scope)
    for name, ty in ctx:
        chk.infer_universe(ty)
        chk = chk.bind(name, chk.eval(ty))
    return chk


# ---------------------------------------------------------------------------
# Public operations


def normalize(scope: GlobalScope, ctx, term: Term) -> Term:
    """Beta-eta normal form of a well-typed term."""
    chk = _context_checker(scope, ctx)
    if not S.validate(term, chk.depth):
        raise S.MalformedTermError("normalize: term is not well scoped")
    ty = chk.infer(term)
    return quote(chk.depth, chk.eval(term), ty, {})


def convertible(scope: GlobalScope, ctx, t: Term, u: Term, type: Term) -> bool:
    """Definitional equality at a type, including eta for Pi, Sigma, Unit."""
    chk = _context_checker(scope, ctx)
    ty = chk.eval(type)
    return convert(chk.depth, chk.eval(t), chk.eval(u), ty)


def infer(scope: GlobalScope, ctx, term: Term) -> Term:
    chk = _context_checker(scope, ctx)
    return quote_type(chk.depth, chk.infer(term), {})


def check(scope: GlobalScope, ctx, term: Term, type: Term) -> None:
    chk = _context_checker(scope, ctx)
    chk.infer_universe(type)
    chk.check(term, chk.eval(type))


def check_declaration(scope: GlobalScope, decl: Declaration) -> ScopeEntry:
    chk = Checker(scope)
    try:
        chk.infer_universe(decl.type)
        type_v = chk.eval(decl.type)
        if decl.body is None:
            return ScopeEntry(type_v, None, True, neutral(VConst(decl.name, type_v)))
        chk.check(decl.body, type_v)
        body_v = chk.eval(decl.body)
        head = VConst(decl.name, type_v, None if decl.opaque else body_v)
        return ScopeEntry(type_v, body_v, decl.opaque, neutral(head))
    except (KernelError, S.MalformedTermError) as exc:
        raise DeclarationError(decl.name, exc) from exc


def check_program(decls) -> GlobalScope:
    """Fold declarations in order; postulates become opaque constants."""
    scope = GlobalScope()
    for decl in decls:
        scope.add(decl.name, check_declaration(scope, decl))
    return scope
