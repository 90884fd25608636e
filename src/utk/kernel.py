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
depend on the gluing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import syntax as S
from .syntax import (
    Annot, Apply, Constant, Declaration, Fst, Id, J, Lambda, Level, Pair, Pi,
    Refl, Sigma, Snd, Star, Term, Unit, Universe, Var, MAX_LEVEL,
)


class KernelError(Exception):
    """Base class for checking failures."""


class TypeMismatchError(KernelError):
    """Carries the expected and inferred normal forms."""

    def __init__(self, expected: Term, inferred: Term, names: list):
        self.expected = expected
        self.inferred = inferred
        self.names = names
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
    """A memoised suspension: `fn(*args)` runs on the first `force`, and the
    result is kept in place of `fn` and `args`.  Arguments (in environments
    and spines) and the unfoldings of glued neutrals are lazy."""

    __slots__ = ("fn", "args", "value")

    def __init__(self, fn, *args):
        self.fn = fn
        self.args = args

    def force(self) -> "Value":
        if self.fn is not None:
            self.value = self.fn(*self.args)
            self.fn = self.args = None
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
    mismatch: object = field(default=None, repr=False, compare=False)  # see _convert_glued


Value = Union[VUniverse, VPi, VLambda, VSigma, VPair, VUnit, VStar, VId, VRefl, VNeutral]

V_UNIT = VUnit()
V_STAR = VStar()


@dataclass(slots=True)
class ScopeEntry:
    type: Value
    body: Optional[Value]  # None: postulate
    opaque: bool = False
    value: Value = None  # the constant as a neutral, glued to `body` unless opaque


class GlobalScope:
    """Checked declarations, in dependency order."""

    def __init__(self):
        self.entries: dict = {}
        self.order: list = []

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> ScopeEntry:
        return self.entries[name]

    def add(self, name: str, entry: ScopeEntry):
        if name in self.entries:
            raise KernelError(f"duplicate declaration: {name}")
        self.entries[name] = entry
        self.order.append(name)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(scope: GlobalScope, env: tuple, term: Term) -> Value:
    match term:
        case Var(ix):
            v = env[len(env) - 1 - ix]
            return v.force() if v.__class__ is Lazy else v
        case Universe(Level(i)):
            return VUniverse(i)
        case Pi(d, c, h):
            return VPi(evaluate(scope, env, d), Closure(env, c, scope), h)
        case Lambda(b, h):
            return VLambda(Closure(env, b, scope), h)
        case Apply(f, a):
            return do_apply(evaluate(scope, env, f), delay(scope, env, a))
        case Sigma(f, s, h):
            return VSigma(evaluate(scope, env, f), Closure(env, s, scope), h)
        case Pair(a, b):
            return VPair(evaluate(scope, env, a), evaluate(scope, env, b))
        case Fst(p):
            return do_fst(evaluate(scope, env, p))
        case Snd(p):
            return do_snd(evaluate(scope, env, p))
        case Unit():
            return V_UNIT
        case Star():
            return V_STAR
        case Id(t, l, r):
            return VId(evaluate(scope, env, t), evaluate(scope, env, l), evaluate(scope, env, r))
        case Refl(p):
            return VRefl(evaluate(scope, env, p))
        case J(m, b, l, r, pr, hints):
            return do_j(
                Closure(env, m, scope), Closure(env, b, scope),
                evaluate(scope, env, l), evaluate(scope, env, r),
                evaluate(scope, env, pr), hints,
            )
        case Constant(name):
            if name not in scope:
                raise UnboundConstantError(f"unbound constant: {name}")
            return scope[name].value
        case Annot(t, _):
            return evaluate(scope, env, t)
        case S.Hole(solution=sol) if sol is not None:
            return evaluate(scope, env, sol)
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
    return VNeutral(n.head, n.spine + (item,), None if u is None else Lazy(_eliminate, u, item))


def _eliminate(v, item) -> Value:
    v = force(v)
    match item:
        case SApp(arg):
            return do_apply(v, arg)
        case SFst():
            return do_fst(v)
        case SSnd():
            return do_snd(v)


def do_apply(fn: Value, arg) -> Value:
    match fn:
        case VLambda(clo):
            return clo.apply(arg)
        case VNeutral():
            return _extend(fn, SApp(arg))
    raise KernelError(f"cannot apply non-function value {fn!r}")


def do_fst(p: Value) -> Value:
    match p:
        case VPair(a, _):
            return a
        case VNeutral():
            return _extend(p, SFst())
    raise KernelError(f"cannot project non-pair value {p!r}")


def do_snd(p: Value) -> Value:
    match p:
        case VPair(_, b):
            return b
        case VNeutral():
            return _extend(p, SSnd())
    raise KernelError(f"cannot project non-pair value {p!r}")


def do_j(motive: Closure, base: Closure, lhs: Value, rhs: Value, proof: Value,
         hints: tuple = ("x", "y", "p", "x")) -> Value:
    """J computes on refl, so a glued proof unfolds first."""
    match whnf(proof):
        case VRefl(_):
            return base.apply(lhs)
        case VNeutral() as stuck:
            return _extend(stuck, SJ(motive, base, lhs, rhs, hints))
    raise KernelError(f"cannot eliminate non-path value {proof!r}")


def fresh(lvl: int, type_v: Value) -> VNeutral:
    return VNeutral(VVar(lvl, type_v))


# ---------------------------------------------------------------------------
# Quoting (type-directed readback; produces eta-long beta normal forms, with
# every transparent constant unfolded)


def quote(d: int, value: Value, type_v: Value) -> Term:
    match whnf(type_v):
        case VPi(dom, cod, h):
            x = fresh(d, dom)
            return Lambda(quote(d + 1, do_apply(value, x), cod.apply(x)), hint=h if h != "_" else "x")
        case VSigma(first, second, _):
            a = do_fst(value)
            return Pair(quote(d, a, first), quote(d, do_snd(value), second.apply(a)))
        case VUnit():
            return S.STAR
        case VUniverse(_):
            return quote_type(d, value)
        case VId(ty, _, _):
            match whnf(value):
                case VRefl(point):
                    return Refl(quote(d, point, ty))
                case VNeutral() as n:
                    return quote_neutral(d, n)[0]
        case VNeutral():
            match whnf(value):
                case VNeutral() as n:
                    return quote_neutral(d, n)[0]
    raise KernelError(f"quote: value {value!r} does not fit type {type_v!r}")


def quote_type(d: int, value: Value) -> Term:
    match whnf(value):
        case VUniverse(i):
            return S.universe(i)
        case VPi(dom, cod, h):
            x = fresh(d, dom)
            return Pi(quote_type(d, dom), quote_type(d + 1, cod.apply(x)), h)
        case VSigma(first, second, h):
            x = fresh(d, first)
            return Sigma(quote_type(d, first), quote_type(d + 1, second.apply(x)), h)
        case VUnit():
            return S.UNIT
        case VId(ty, lhs, rhs):
            return Id(quote_type(d, ty), quote(d, lhs, ty), quote(d, rhs, ty))
        case VNeutral() as n:
            return quote_neutral(d, n)[0]
    raise KernelError(f"quote_type: not a type value: {value!r}")


def quote_neutral(d: int, value: VNeutral):
    """Read back a rigid neutral; returns (term, type value of the whole
    spine)."""
    head = value.head
    match head:
        case VVar(lvl, ty):
            term: Term = Var(d - 1 - lvl)
        case VConst(name, ty):
            term = Constant(name)
    current: Value = neutral(head)
    for item in value.spine:
        match item, whnf(ty):
            case SApp(arg), VPi(dom, cod, _):
                term = Apply(term, quote(d, force(arg), dom))
                ty = cod.apply(arg)
                current = do_apply(current, arg)
            case SFst(), VSigma(first, _, _):
                term = Fst(term)
                ty = first
                current = do_fst(current)
            case SSnd(), VSigma(first, second, _):
                term = Snd(term)
                ty = second.apply(do_fst(current))
                current = do_snd(current)
            case SJ(motive, base, lhs, rhs, hints), VId(a_ty, _, _):
                x = fresh(d, a_ty)
                y = fresh(d + 1, a_ty)
                p = fresh(d + 2, VId(a_ty, x, y))
                motive_t = quote_type(d + 3, motive.apply(x, y, p))
                bx = fresh(d, a_ty)
                base_t = quote(d + 1, base.apply(bx), motive.apply(bx, bx, VRefl(bx)))
                term = J(
                    motive_t, base_t,
                    quote(d, lhs, a_ty), quote(d, rhs, a_ty), term, hints,
                )
                ty = motive.apply(lhs, rhs, current)
                current = do_j(motive, base, lhs, rhs, current, hints)
            case _:
                raise KernelError(f"quote_neutral: ill-typed spine item {item!r} at {ty!r}")
    return term, ty


# ---------------------------------------------------------------------------
# Conversion (type-directed) and cumulativity, with glued δ after Coquand's
# 1996 algorithm and Kovács' smalltt.  Two neutrals with the same transparent
# head first compare by their spines with nothing unfolded (`flex`); if that
# fails, or the heads differ, both sides unfold.  A flex comparison never
# unfolds: it gives up instead, and the comparison that started it unfolds.


def _glued(v: Value) -> bool:
    return v.__class__ is VNeutral and v.unfold is not None


def _convert_glued(d: int, v1: Value, v2: Value, flex: bool, compare, *type_v) -> bool:
    """Glued δ for `compare` (convert at type_v, convert_type or subtype)
    when v1 or v2 is glued.  A failed spine comparison is remembered on v1,
    so that unfoldings which expose the same pair again skip it: without
    that, a chain of n such pairs costs n spine comparisons of up to n
    steps each."""
    if _glued(v1) and _glued(v2) and v1.head.name == v2.head.name and v1.mismatch is not v2:
        if convert_neutral(d, v1, v2, True) is not None:
            return True
        v1.mismatch = v2
    if flex:
        return False
    return compare(d, whnf(v1), whnf(v2), *type_v)


def convert(d: int, v1: Value, v2: Value, type_v: Value, flex: bool = False) -> bool:
    if v1 is v2:
        return True
    type_v = whnf(type_v)
    match type_v:
        case VPi(dom, cod, _):
            x = fresh(d, dom)
            return convert(d + 1, do_apply(v1, x), do_apply(v2, x), cod.apply(x), flex)
        case VSigma(first, second, _):
            a1 = do_fst(v1)
            if not convert(d, a1, do_fst(v2), first, flex):
                return False
            return convert(d, do_snd(v1), do_snd(v2), second.apply(a1), flex)
        case VUnit():
            return True
        case VUniverse(_):
            return convert_type(d, v1, v2, flex)
        case VId(ty, _, _):
            if _glued(v1) or _glued(v2):
                return _convert_glued(d, v1, v2, flex, convert, type_v)
            match v1, v2:
                case VRefl(p1), VRefl(p2):
                    return convert(d, p1, p2, ty, flex)
                case VNeutral(), VNeutral():
                    return convert_neutral(d, v1, v2, flex) is not None
                case _:
                    return False
        case VNeutral():
            if _glued(v1) or _glued(v2):
                return _convert_glued(d, v1, v2, flex, convert, type_v)
            match v1, v2:
                case VNeutral(), VNeutral():
                    return convert_neutral(d, v1, v2, flex) is not None
            return False
    raise KernelError(f"convert: not a type value: {type_v!r}")


def convert_type(d: int, t1: Value, t2: Value, flex: bool = False) -> bool:
    if t1 is t2:
        return True
    if _glued(t1) or _glued(t2):
        return _convert_glued(d, t1, t2, flex, convert_type)
    match t1, t2:
        case VUniverse(i), VUniverse(j):
            return i == j
        case VPi(d1, c1, _), VPi(d2, c2, _):
            if not convert_type(d, d1, d2, flex):
                return False
            x = fresh(d, d1)
            return convert_type(d + 1, c1.apply(x), c2.apply(x), flex)
        case VSigma(f1, s1, _), VSigma(f2, s2, _):
            if not convert_type(d, f1, f2, flex):
                return False
            x = fresh(d, f1)
            return convert_type(d + 1, s1.apply(x), s2.apply(x), flex)
        case VUnit(), VUnit():
            return True
        case VId(a1, l1, r1), VId(a2, l2, r2):
            return (
                convert_type(d, a1, a2, flex)
                and convert(d, l1, l2, a1, flex)
                and convert(d, r1, r2, a1, flex)
            )
        case VNeutral(), VNeutral():
            return convert_neutral(d, t1, t2, flex) is not None
    return False


def convert_neutral(d: int, n1: VNeutral, n2: VNeutral, flex: bool = False) -> Optional[Value]:
    """Compare two neutrals by head and spine; on success return the type of
    the common spine."""
    match n1.head, n2.head:
        case VVar(l1, ty), VVar(l2, _):
            if l1 != l2:
                return None
        case VConst(c1, ty), VConst(c2, _):
            if c1 != c2:
                return None
        case _:
            return None
    if len(n1.spine) != len(n2.spine):
        return None
    current: Value = neutral(n1.head)
    for i1, i2 in zip(n1.spine, n2.spine):
        match i1, i2, whnf(ty):
            case SApp(a1), SApp(a2), VPi(dom, cod, _):
                if a1 is not a2 and not convert(d, force(a1), force(a2), dom, flex):
                    return None
                ty = cod.apply(a1)
                current = do_apply(current, a1)
            case SFst(), SFst(), VSigma(first, _, _):
                ty = first
                current = do_fst(current)
            case SSnd(), SSnd(), VSigma(_, second, _):
                ty = second.apply(do_fst(current))
                current = do_snd(current)
            case SJ(m1, b1, l1, r1, _), SJ(m2, b2, l2, r2, _), VId(a_ty, _, _):
                x = fresh(d, a_ty)
                y = fresh(d + 1, a_ty)
                p = fresh(d + 2, VId(a_ty, x, y))
                if not convert_type(d + 3, m1.apply(x, y, p), m2.apply(x, y, p), flex):
                    return None
                bx = fresh(d, a_ty)
                if not convert(d + 1, b1.apply(bx), b2.apply(bx), m1.apply(bx, bx, VRefl(bx)), flex):
                    return None
                if not convert(d, l1, l2, a_ty, flex) or not convert(d, r1, r2, a_ty, flex):
                    return None
                ty = m1.apply(l1, r1, current)
                current = do_j(m1, b1, l1, r1, current)
            case _:
                return None
    return ty


def subtype(d: int, t1: Value, t2: Value) -> bool:
    """Cumulativity: U_i <= U_j for i <= j, covariant Pi codomains and Sigma
    components, conversion elsewhere."""
    if _glued(t1) or _glued(t2):
        return _convert_glued(d, t1, t2, False, subtype)
    match t1, t2:
        case VUniverse(i), VUniverse(j):
            return i <= j
        case VPi(d1, c1, _), VPi(d2, c2, _):
            if not convert_type(d, d1, d2):
                return False
            x = fresh(d, d1)
            return subtype(d + 1, c1.apply(x), c2.apply(x))
        case VSigma(f1, s1, _), VSigma(f2, s2, _):
            if not subtype(d, f1, f2):
                return False
            x = fresh(d, f1)
            return subtype(d + 1, s1.apply(x), s2.apply(x))
        case _:
            return convert_type(d, t1, t2)


# ---------------------------------------------------------------------------
# Bidirectional checking.  `Checker` carries the environment (values) and the
# context types in lockstep.


class Checker:
    def __init__(self, scope: GlobalScope, names=None, types=None, env=None):
        self.scope = scope
        self.names = names or []  # printing hints, outermost first
        self.types = types or []  # Value types, outermost first
        self.env = tuple(env or ())

    @property
    def depth(self) -> int:
        return len(self.types)

    def bind(self, hint: str, type_v: Value) -> "Checker":
        x = fresh(self.depth, type_v)
        return Checker(self.scope, self.names + [hint], self.types + [type_v], self.env + (x,))

    def eval(self, term: Term) -> Value:
        return evaluate(self.scope, self.env, term)

    def infer(self, term: Term) -> Value:
        match term:
            case Var(ix):
                if not (0 <= ix < self.depth):
                    raise S.MalformedTermError(f"unbound variable index {ix}")
                return self.types[self.depth - 1 - ix]
            case Universe(Level(i)):
                if i + 1 > MAX_LEVEL:
                    raise UniverseOverflowError(
                        f"U{i} has no type below the level ceiling {MAX_LEVEL}")
                return VUniverse(i + 1)
            case Pi(d, c, h):
                i = self.infer_universe(d)
                j = self.bind(h, self.eval(d)).infer_universe(c)
                return VUniverse(max(i, j))
            case Sigma(f, s, h):
                i = self.infer_universe(f)
                j = self.bind(h, self.eval(f)).infer_universe(s)
                return VUniverse(max(i, j))
            case Unit():
                return VUniverse(0)
            case Star():
                return V_UNIT
            case Id(t, l, r):
                i = self.infer_universe(t)
                tv = self.eval(t)
                self.check(l, tv)
                self.check(r, tv)
                return VUniverse(i)
            case Refl(p):
                pt = self.infer(p)
                pv = self.eval(p)
                return VId(pt, pv, pv)
            case Apply(f, a):
                ft = whnf(self.infer(f))
                match ft:
                    case VPi(dom, cod, _):
                        self.check(a, dom)
                        return cod.apply(delay(self.scope, self.env, a))
                raise KernelError(
                    f"cannot apply a term of non-function type "
                    f"{S.pretty_print(quote_type(self.depth, ft), self.names)}")
            case Fst(p):
                pt = whnf(self.infer(p))
                match pt:
                    case VSigma(first, _, _):
                        return first
                raise KernelError(
                    f"fst of a term of non-pair type "
                    f"{S.pretty_print(quote_type(self.depth, pt), self.names)}")
            case Snd(p):
                pt = whnf(self.infer(p))
                match pt:
                    case VSigma(_, second, _):
                        return second.apply(do_fst(self.eval(p)))
                raise KernelError(
                    f"snd of a term of non-pair type "
                    f"{S.pretty_print(quote_type(self.depth, pt), self.names)}")
            case J(m, b, l, r, pr, hints):
                try:
                    a_ty = self.infer(l)
                except NoInferableTypeError:
                    # endpoints may be eta-expanded pairs/lambdas; read the
                    # type off the proof instead
                    pr_ty = whnf(self.infer(pr))
                    match pr_ty:
                        case VId(ty, _, _):
                            a_ty = ty
                        case _:
                            raise
                    self.check(l, a_ty)
                self.check(r, a_ty)
                lv, rv = self.eval(l), self.eval(r)
                self.check(pr, VId(a_ty, lv, rv))
                hx, hy, hp, _ = hints
                cx = self.bind(hx, a_ty)
                cy = cx.bind(hy, a_ty)
                x, y = cx.env[-1], cy.env[-1]
                cp = cy.bind(hp, VId(a_ty, x, y))
                cp.infer_universe(m)
                motive = Closure(self.env, m, self.scope)
                cb = self.bind(hx, a_ty)
                bx = cb.env[-1]
                cb.check(b, motive.apply(bx, bx, VRefl(bx)))
                return motive.apply(lv, rv, self.eval(pr))
            case Constant(name):
                if name not in self.scope:
                    raise UnboundConstantError(f"unbound constant: {name}")
                return self.scope[name].type
            case Annot(t, ty):
                self.infer_universe(ty)
                tv = self.eval(ty)
                self.check(t, tv)
                return tv
            case Lambda() | Pair():
                raise NoInferableTypeError(
                    "cannot infer a type for an unannotated lambda or pair")
            case S.Hole():
                raise UnsolvablePlaceholderError(
                    "placeholder in a position with no expected type")
        raise S.MalformedTermError(f"not a term: {term!r}")

    def infer_universe(self, term: Term) -> int:
        ty = whnf(self.infer(term))
        match ty:
            case VUniverse(i):
                return i
        raise KernelError(
            f"expected a universe, got "
            f"{S.pretty_print(quote_type(self.depth, ty), self.names)}")

    def solve_placeholder(self, type_v: Value, d: int = None) -> Term:
        """Inhabit a definitional singleton type; the solution is closed."""
        d = self.depth if d is None else d
        match whnf(type_v):
            case VUnit():
                return S.STAR
            case VSigma(first, second, _):
                a = self.solve_placeholder(first, d)
                av = evaluate(self.scope, (), a)
                return Pair(a, self.solve_placeholder(second.apply(av), d))
            case VPi(dom, cod, h):
                body = self.solve_placeholder(cod.apply(fresh(d, dom)), d + 1)
                return Lambda(body, h if h != "_" else "x")
        raise UnsolvablePlaceholderError(
            "placeholder not determined by its expected type "
            + S.pretty_print(quote_type(d, type_v), self.names + ["?"] * (d - self.depth)))

    def check(self, term: Term, type_v: Value):
        match term, whnf(type_v):
            case S.Hole(), _:
                term.solution = self.solve_placeholder(type_v)
                return
            case Lambda(b, h), VPi(dom, cod, ph):
                inner = self.bind(h if h != "x" else ph, dom)
                inner.check(b, cod.apply(inner.env[-1]))
                return
            case Lambda(), _:
                raise KernelError(
                    "a lambda only checks against a function type, not "
                    + S.pretty_print(quote_type(self.depth, type_v), self.names))
            case Pair(a, b), VSigma(first, second, _):
                self.check(a, first)
                self.check(b, second.apply(delay(self.scope, self.env, a)))
                return
            case Pair(), _:
                raise KernelError(
                    "a pair only checks against a pair type, not "
                    + S.pretty_print(quote_type(self.depth, type_v), self.names))
            case Refl(p), VId(ty, lhs, rhs):
                # lets the point be a pair or lambda, which cannot infer
                self.check(p, ty)
                pv = self.eval(p)
                if not (convert(self.depth, pv, lhs, ty)
                        and convert(self.depth, pv, rhs, ty)):
                    raise TypeMismatchError(
                        quote_type(self.depth, type_v),
                        quote_type(self.depth, VId(ty, pv, pv)), self.names)
                return
            case _:
                inferred = self.infer(term)
                if not subtype(self.depth, inferred, type_v):
                    raise TypeMismatchError(
                        quote_type(self.depth, type_v),
                        quote_type(self.depth, inferred), self.names)


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
    return quote(chk.depth, chk.eval(term), ty)


def convertible(scope: GlobalScope, ctx, t: Term, u: Term, type: Term) -> bool:
    """Definitional equality at a type, including eta for Pi, Sigma, Unit."""
    chk = _context_checker(scope, ctx)
    ty = chk.eval(type)
    return convert(chk.depth, chk.eval(t), chk.eval(u), ty)


def infer(scope: GlobalScope, ctx, term: Term) -> Term:
    chk = _context_checker(scope, ctx)
    return quote_type(chk.depth, chk.infer(term))


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
        entry = check_declaration(scope, decl)
        scope.add(decl.name, entry)
    return scope
