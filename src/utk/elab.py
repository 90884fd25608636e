"""Name resolution from surface syntax to core terms.

Elaboration is not a solver: the only type-directed step is filling `_`
placeholders whose expected type is a definitional singleton (Unit, or a
Sigma/Pi of singletons), which `check` resolves in place.
"""

from __future__ import annotations

import time

from . import kernel as K
from . import parser as P
from . import syntax as S
from .report import Report
from .syntax import (
    Apply, Constant, Declaration, Fst, Hole, Id, J, Lambda, Pair, Pi, Refl,
    Sigma, Snd, Term, Var, shift,
)


class ElabError(Exception):
    pass


class UnboundIdentifierError(ElabError):
    pass


UnsolvablePlaceholderError = K.UnsolvablePlaceholderError


def elab_term(sterm, binders: list, constants) -> Term:
    """Resolve names to de Bruijn indices and constants.

    `binders` lists the enclosing binder names, innermost last; `_` entries
    are anonymous and never resolve.
    """
    match sterm:
        case P.SVar(name):
            for i, b in enumerate(reversed(binders)):
                if b == name and name != "_":
                    return Var(i)
            if name in constants:
                return Constant(name)
            raise UnboundIdentifierError(f"unbound identifier: {name}")
        case P.SUniverse(i):
            return S.universe(i)
        case P.SPi(binder, dom, cod):
            hint = binder if binder is not None else "_"
            return Pi(
                elab_term(dom, binders, constants),
                elab_term(cod, binders + [binder if binder is not None else "_"], constants),
                hint,
            )
        case P.SSigma(binder, first, second):
            return Sigma(
                elab_term(first, binders, constants),
                elab_term(second, binders + [binder], constants),
                binder,
            )
        case P.SLambda(names, body):
            inner = elab_term(body, binders + names, constants)
            for name in reversed(names):
                inner = Lambda(inner, name)
            return inner
        case P.SApply(f, a):
            return Apply(elab_term(f, binders, constants), elab_term(a, binders, constants))
        case P.SPair(a, b):
            return Pair(elab_term(a, binders, constants), elab_term(b, binders, constants))
        case P.SFst(t):
            return Fst(elab_term(t, binders, constants))
        case P.SSnd(t):
            return Snd(elab_term(t, binders, constants))
        case P.SUnit():
            return S.UNIT
        case P.SStar():
            return S.STAR
        case P.SId(t, l, r):
            return Id(
                elab_term(t, binders, constants),
                elab_term(l, binders, constants),
                elab_term(r, binders, constants),
            )
        case P.SRefl(t):
            return Refl(elab_term(t, binders, constants))
        case P.SJ(m, b, l, r, pr):
            motive, mhints = _strip_binders(elab_term(m, binders, constants), 3)
            base, bhints = _strip_binders(elab_term(b, binders, constants), 1)
            return J(
                motive, base,
                elab_term(l, binders, constants),
                elab_term(r, binders, constants),
                elab_term(pr, binders, constants),
                tuple(mhints) + tuple(bhints),
            )
        case P.SHole(line, col):
            return Hole(line, col)
    raise ElabError(f"not a surface term: {sterm!r}")


def _strip_binders(term: Term, n: int):
    """A J motive/base argument is a lambda of `n` binders; strip them.  A
    non-lambda argument f is accepted as f applied to the bound variables."""
    hints = []
    body = term
    for _ in range(n):
        if isinstance(body, Lambda):
            hints.append(body.hint)
            body = body.body
        else:
            body = None
            break
    if body is not None:
        return body, hints
    wrapped = shift(term, n)
    for i in range(n - 1, -1, -1):
        wrapped = Apply(wrapped, Var(i))
    return wrapped, ["x", "y", "p"][:n]


def _zonk(term: Term) -> Term:
    """Replace solved holes by their solutions.  A subterm without holes is
    returned as it is, so a hole-free declaration is not copied."""
    if isinstance(term, Hole):
        if term.solution is None:
            raise UnsolvablePlaceholderError(
                f"{term.line}:{term.col}: unsolved placeholder")
        return term.solution
    return S.map_subterms(term, lambda sub, _: _zonk(sub))


def elaborate_and_check(surface_decls, opaque=frozenset()):
    """Elaborate and check declarations in order, stopping at the first
    that fails.  Placeholders are solved against the expected types seen by
    the checker, then replaced by their solutions.

    Returns (core declarations, the checked GlobalScope, a Report with one
    row per declaration reached, and the DeclarationError of the failing
    declaration or None).
    """
    scope = K.GlobalScope()
    core = []
    report = Report()
    for sd in surface_decls:
        t0 = time.time()
        try:
            constants = scope.entries.keys()
            type_t = elab_term(sd.type, [], constants)
            body_t = None if sd.body is None else elab_term(sd.body, [], constants)
            decl = Declaration(sd.name, type_t, body_t, opaque=sd.name in opaque)
            entry = K.check_declaration(scope, decl)
            decl = Declaration(
                sd.name, _zonk(type_t), None if body_t is None else _zonk(body_t),
                opaque=decl.opaque,
            )
        except (ElabError, K.KernelError, S.MalformedTermError) as exc:
            if not isinstance(exc, K.DeclarationError):
                exc = K.DeclarationError(sd.name, exc)
            report.add_error(sd.name, str(exc.cause), time.time() - t0)
            return core, scope, report, exc
        scope.add(sd.name, entry)
        core.append(decl)
        report.add_ok(sd.name, time.time() - t0)
    return core, scope, report, None


def elaborate(surface_decls, opaque=frozenset()):
    """Surface declarations to core declarations; every output validates.
    Raises the DeclarationError of the first declaration that fails."""
    core, _, _, failure = elaborate_and_check(surface_decls, opaque)
    if failure is not None:
        raise failure
    return core
