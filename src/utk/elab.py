"""Elaboration of parsed declarations: resolve their free names against
the scope, check them, and fill their placeholders.

Elaboration is not a solver: the only type-directed step is filling `_`
placeholders whose expected type is a definitional singleton (Unit, or a
Sigma/Pi of singletons), which `check` resolves in place.
"""

from __future__ import annotations

import time

from . import kernel as K
from . import syntax as S
from .report import Report
from .syntax import Constant, Declaration, Hole, Term, Var


class ElabError(Exception):
    pass


class UnboundIdentifierError(ElabError):
    pass


def elab_term(term: Term, binders: list, constants, holes: list = None) -> Term:
    """Resolve the names the parser left as constants: one named in
    `binders`, the enclosing binder names (innermost last), becomes its
    `Var`; any other must be in `constants`.  Placeholders are kept, and
    appended to `holes` if given."""
    index = {name: len(binders) - 1 - i for i, name in enumerate(binders)}

    def resolve(term: Term, depth: int) -> Term:
        cls = term.__class__
        if cls is Var:
            return term
        if cls is Constant:
            name = term.name
            if name in index:
                return S.var(depth + index[name])
            if name not in constants:
                raise UnboundIdentifierError(f"unbound identifier: {name}")
            return term
        if cls is Hole:
            if holes is not None:
                holes.append(term)
            return term
        return S.map_subterms(term, resolve, depth)

    return resolve(term, 0)


def _zonk(term: Term) -> Term:
    """Replace solved holes by their solutions.  A subterm without holes is
    returned as it is, so a hole-free declaration is not copied."""
    if isinstance(term, Hole):
        if term.solution is None:
            raise K.UnsolvablePlaceholderError(
                f"{term.line}:{term.col}: unsolved placeholder")
        return term.solution
    return S.map_subterms(term, lambda sub, _: _zonk(sub))


def elaborate_and_check(decls, opaque=frozenset()):
    """Elaborate and check parsed declarations in order, stopping at the
    first that fails.  Placeholders are solved against the expected types
    seen by the checker, then replaced by their solutions.

    Returns (core declarations, the checked GlobalScope, a Report with one
    row per declaration reached, and the DeclarationError of the failing
    declaration or None).
    """
    scope = K.GlobalScope()
    core = []
    report = Report()
    for decl in decls:
        t0 = time.perf_counter()
        try:
            constants, holes = scope.entries.keys(), []
            decl = Declaration(
                decl.name, elab_term(decl.type, [], constants, holes),
                None if decl.body is None else elab_term(decl.body, [], constants, holes),
                opaque=decl.name in opaque,
            )
            entry = K.check_declaration(scope, decl)
            if holes:
                decl = Declaration(
                    decl.name, _zonk(decl.type), None if decl.body is None else _zonk(decl.body),
                    opaque=decl.opaque,
                )
            scope.add(decl.name, entry)  # a name declared in an earlier file fails here
        except (ElabError, K.KernelError, S.MalformedTermError) as exc:
            if not isinstance(exc, K.DeclarationError):
                exc = K.DeclarationError(decl.name, exc)
            report.add_error(decl.name, str(exc.cause), time.perf_counter() - t0)
            return core, scope, report, exc
        core.append(decl)
        report.add_ok(decl.name, time.perf_counter() - t0)
    return core, scope, report, None


def elaborate(decls):
    """Parsed declarations to checked ones; every output validates.
    Raises the DeclarationError of the first declaration that fails."""
    core, _, _, failure = elaborate_and_check(decls)
    if failure is not None:
        raise failure
    return core
