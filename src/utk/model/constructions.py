"""Strictification, realignment and the path constructions on fibrations.

Everything here manipulates fibrations over a fixed base and produces new
fibrations whose defining equations (endpoint reindexings, restriction
equations) hold as equalities of finite data; the self-test checks them on
the fixture library, over sampled stages, maps and problems (see `selftest`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .interval import (
    dm_is_const, dm_sym, face_bot, face_forall, face_of_eq, face_or,
    face_subst_clause,
)
from .cset import (
    CSetMap, Cofibration, CubeMap, CubicalSet, Family, ProductIntervalCSet,
    ReindexedFamily, RestrictedCSet, cof_endpoints, fst_map, pairing_map,
)
from .fib import (
    CompositionError, Fib, Problem, clause_stage, discrete_fib, fill, fill_path,
    partial_at, path_at, restrict_partial, restrict_problem, _fresh_dim,
)


@dataclass
class StrictIso:
    """Fiberwise mutually inverse maps from the family `source` to another
    family over the same base: fwd carries an element of `source` there,
    bwd carries it back."""

    source: Family
    fwd: object  # (I, rho, a) -> b
    bwd: object  # (I, rho, b) -> a


def identity_iso(family: Family) -> StrictIso:
    return StrictIso(family, lambda I, rho, a: a, lambda I, rho, b: b)


@dataclass
class FibPath:
    """A fibration over base*I whose endpoint reindexings are the recorded
    fibrations, as equalities of finite data."""

    line: Fib  # over ProductIntervalCSet(base)
    source: Fib
    target: Fib


@dataclass
class ContrStruct:
    """A centre in every fiber and a path from it to every element."""

    centre: object  # (I, rho) -> element
    path: object  # (I, rho, a, z) -> element over I+{z}, centre at 0, a at 1


def reindex_fib(fib: Fib, gamma: CSetMap) -> Fib:
    """Pull a fibration back along a map of bases; composition pushes the
    problem's path forward."""
    family = ReindexedFamily(fib.family, gamma)

    def comp(problem: Problem):
        return fib.comp(replace(problem, path=gamma.apply(problem.zctx, problem.path)))

    return Fib(family, comp)


def endpoint_reindex(path_fib: Fib, base: CubicalSet, endpoint: int) -> Fib:
    """Reindex a fibration over base*I along <id, endpoint>."""
    return reindex_fib(path_fib, pairing_map(base, endpoint))


# ---------------------------------------------------------------------------
# Realignment


def realign(cof: Cofibration, beta: Fib, alpha: Fib) -> Fib:
    """A composition structure on alpha's family that restricts on the nose
    to beta over the cofibration.

    beta lives over the restricted base (same family data); the realigned
    structure extends every problem by the fill of beta over the region where
    the whole path satisfies the cofibration.
    """
    family = alpha.family

    def comp(problem: Problem):
        phi_p = cof.face(problem.zctx, problem.path)
        allf = face_forall(phi_p, problem.z)
        phi2 = face_or(problem.phi, allf)
        values = {}
        for clause in phi2.clauses():
            if face_subst_clause(allf, clause).is_top:  # the clause entails allf
                restricted = restrict_problem(family, problem, clause)
                values[clause] = fill_path(beta, restricted)
            else:
                values[clause] = partial_at(family, problem, clause)
        return alpha.comp(replace(problem, phi=phi2, values=values))

    return Fib(family, comp)


# ---------------------------------------------------------------------------
# Closure under isomorphism


def isofib(iso: StrictIso, beta: Fib) -> Fib:
    """Transfer a composition structure across a fiberwise isomorphism (only
    the retraction law bwd . fwd = id is used)."""
    family = iso.source
    base = beta.base

    def comp(problem: Problem):
        values = {}
        for clause, v in problem.values.items():
            stage = clause_stage(problem.I, clause) | {problem.z}
            values[clause] = iso.fwd(stage, path_at(base, problem, clause), v)
        b0 = iso.fwd(problem.I, path_at(base, problem, problem.end(problem.e)),
                     problem.a0)
        b1 = beta.comp(replace(problem, values=values, a0=b0))
        return iso.bwd(problem.I, path_at(base, problem, problem.end(1 - problem.e)), b1)

    return Fib(family, comp)


# ---------------------------------------------------------------------------
# Strictification


class StrictifiedFamily(Family):
    """A's fibers where the cofibration holds, B's elsewhere; restrictions
    entering the region pass through the isomorphism's inverse once."""

    def __init__(self, cof: Cofibration, partial: Family, total: Family, iso: StrictIso):
        super().__init__(total.base)
        self.cof = cof
        self.partial = partial
        self.total = total
        self.iso = iso

    def fiber(self, context, rho):
        if self.cof.holds(context, rho):
            return self.partial.fiber(context, rho)
        return self.total.fiber(context, rho)

    def restrict(self, rho, f, x):
        if self.cof.holds(f.src, rho):
            return self.partial.restrict(rho, f, x)
        rho_f = self.base.restrict(f, rho)
        lands_inside = self.cof.holds(f.dst, rho_f)
        y = self.total.restrict(rho, f, x)
        if lands_inside:
            return self.iso.bwd(f.dst, rho_f, y)
        return y


def strictify(cof: Cofibration, partial: Family, total: Family,
              iso: StrictIso):
    """Replace `total` by a family equal to `partial` over the cofibration
    and isomorphic to `total`, the isomorphism extending `iso`."""
    out = StrictifiedFamily(cof, partial, total, iso)

    def fwd(I, rho, x):
        if cof.holds(I, rho):
            return iso.fwd(I, rho, x)
        return x

    def bwd(I, rho, y):
        if cof.holds(I, rho):
            return iso.bwd(I, rho, y)
        return y

    return out, StrictIso(out, fwd, bwd)


def strictify_fib(cof: Cofibration, partial: Fib, total: Fib, iso: StrictIso):
    """Fibration-level strictification: the new fibration restricts to
    `partial` on the nose (family and composition), via realignment."""
    family, iso2 = strictify(cof, partial.family, total.family, iso)
    pre = isofib(iso2, total)
    restricted = Fib(family, partial.comp)
    comp = realign(cof, restricted, pre).comp
    return Fib(family, comp), iso2


# ---------------------------------------------------------------------------
# The join of two fibrations over the endpoints of base*I


def _side(rho) -> int:
    """The endpoint at which a veebar cell (x, r) sits."""
    _, r = rho
    if dm_is_const(r, 0):
        return 0
    if dm_is_const(r, 1):
        return 1
    raise CompositionError("veebar cell is not at an endpoint")


class VeebarFamily(Family):
    """Over (base*I) restricted to (i=0) \\/ (i=1): A's fibers on the 0 end,
    B's on the 1 end."""

    def __init__(self, A: Family, B: Family, restricted: RestrictedCSet):
        super().__init__(restricted)
        self.sides = (A, B)

    def fiber(self, context, rho):
        return self.sides[_side(rho)].fiber(context, rho[0])

    def restrict(self, rho, f, a):
        return self.sides[_side(rho)].restrict(rho[0], f, a)


def veebar(A: Fib, B: Fib) -> Fib:
    """The fibration over (base*I)|((i=0) \\/ (i=1)) that is A at 0 and B
    at 1; a problem's path is forced to one side because the interval is
    connected."""
    restricted = RestrictedCSet(ProductIntervalCSet(A.base), cof_endpoints())
    family = VeebarFamily(A.family, B.family, restricted)

    def comp(problem: Problem):
        side = (A, B)[_side(problem.path)]
        return side.comp(replace(problem, path=problem.path[0]))

    return Fib(family, comp)


# ---------------------------------------------------------------------------
# Improving misaligned paths; paths from isomorphisms


def improve(line: Fib, iso0: StrictIso, iso1: StrictIso, source: Fib,
            target: Fib) -> FibPath:
    """Strictify a misaligned path, a line over base*I whose ends are
    isomorphic to source (by iso0) and target (by iso1), so its endpoints
    are the recorded fibrations on the nose: the line is strictified along
    veebar of the recorded ends, with iso0 and iso1 joined over `_side`
    into an isomorphism from veebar to the line over the endpoints."""
    vee = veebar(source, target)
    isos = (iso0, iso1)
    joined = StrictIso(vee.family,
                       lambda I, rho, a: isos[_side(rho)].fwd(I, rho[0], a),
                       lambda I, rho, b: isos[_side(rho)].bwd(I, rho[0], b))
    line2, _ = strictify_fib(cof_endpoints(), vee, line, joined)
    return FibPath(line2, source, target)


def isopath(iso: StrictIso, A: Fib, B: Fib) -> FibPath:
    """A path between strictly isomorphic fibrations: improve the constant
    line at B along (iso, id)."""
    line = reindex_fib(B, fst_map(ProductIntervalCSet(A.base)))
    return improve(line, iso, identity_iso(B.family), A, B)


def coerce_along(P: FibPath, I: frozenset, x, a):
    """Transport along a path of fibrations: the empty composition from 0
    to 1 over the path (x, z)."""
    product = P.line.base  # base*I
    zctx = I | {"z"}
    x_w = product.base.restrict(CubeMap.weaken(I, zctx), x)
    path = (x_w, dm_sym(zctx, "z"))
    problem = Problem(I, "z", 0, path, face_bot(I), {}, a)
    return P.line.comp(problem)


def coerce_iso_witness(iso: StrictIso, B: Fib, I: frozenset, x, a):
    """A path value over I + {w} whose w = 0 end is iso.fwd applied to a
    and whose w = 1 end is the coercion along isopath(iso): the degenerate
    fill of the empty problem at iso.fwd(a)."""
    zctx = I | {"z"}
    x_w = B.base.restrict(CubeMap.weaken(I, zctx), x)
    problem = Problem(I, "z", 0, x_w, face_bot(I), {}, iso.fwd(I, x, a))
    return fill(B, problem, "w")


# ---------------------------------------------------------------------------
# The contraction of a family, and paths to the unit


class ContractionFamily(Family):
    """C_A over base*I: the fiber at (x, r) is the set of partial elements of
    A(x) defined on (r = 0), as clause dictionaries."""

    def __init__(self, A: Family, product: ProductIntervalCSet):
        super().__init__(product)
        self.A = A
        self._fibers = {}  # (context, rho) -> the fiber, as a tuple

    def fiber(self, context, rho):
        key = (context, rho)
        out = self._fibers.get(key)
        if out is None:
            out = self._fibers[key] = tuple(self._enumerate(context, rho))
        return list(out)  # a fresh list: callers may mutate it

    def _enumerate(self, context, rho):
        x, r = rho
        clauses = face_of_eq(r, 0).clauses()
        if not clauses:
            return [frozenset()]
        choices = []
        for clause in clauses:
            stage = clause_stage(context, clause)
            xr = self.base.base.restrict(CubeMap.face(context, clause), x)
            choices.append([(clause, v) for v in self.A.fiber(stage, xr)])
        return [frozenset(combo) for combo in itertools.product(*choices)
                if self._compatible(context, x, dict(combo))]

    def _compatible(self, context, x, values) -> bool:
        ident = CubeMap.identity(context)
        for c1, c2 in itertools.combinations(values, 2):
            union = c1 | c2
            if len(dict(union)) < len(union):
                continue  # the clauses fix a name at both ends: no overlap
            if (restrict_partial(self.A, x, [(c1, values[c1])], ident, [union])
                    != restrict_partial(self.A, x, [(c2, values[c2])], ident, [union])):
                return False
        return True

    def restrict(self, rho, f, a):
        x, r = rho
        clauses = face_of_eq(f.apply_dm(r), 0).clauses()
        return frozenset(restrict_partial(self.A, x, a, f, clauses).items())


def contraction_fib(A: Fib, extend) -> Fib:
    """The contraction C_A with the composition induced by an extension
    structure `extend(I, rho, phi, values)`, which extends every cofibrant
    partial element of a fiber: each boundary value is extended fiberwise."""
    base = A.base
    product = ProductIntervalCSet(base)
    family = ContractionFamily(A.family, product)

    def comp(problem: Problem):
        x_path, r_path = problem.path
        end = 1 - problem.e
        end_map = problem.end_map(end)
        end_x = base.restrict(end_map, x_path)
        end_r = end_map.apply_dm(r_path)
        face0 = face_of_eq(end_r, 0)
        out = []
        for clause in face0.clauses():
            stage = clause_stage(problem.I, clause)
            x_c = base.restrict(CubeMap.face(problem.I, clause), end_x)
            phi_c = face_subst_clause(problem.phi, clause)
            values = {}
            for v in phi_c.clauses():
                at_end = partial_at(family, problem, clause | v | problem.end(end))
                # the end face is trivially true under the clause, so the
                # partial element is total; its value sits at the empty clause
                values[v] = dict(at_end)[frozenset()]
            out.append((clause, extend(stage, x_c, phi_c, values)))
        return frozenset(out)

    return Fib(family, comp)


def extend_from_contractible(A: Fib, contr: ContrStruct):
    """A fibrant contractible family extends partial elements: the extension
    structure composes from the centre along the contraction paths."""
    base = A.base

    def extend(I, x, phi, values):
        z = _fresh_dim(I)
        zctx = I | {z}
        x_w = base.restrict(CubeMap.weaken(I, zctx), x)
        path_values = {}
        for clause, v in values.items():
            stage = clause_stage(I, clause)
            xr = base.restrict(CubeMap.face(I, clause), x)
            path_values[clause] = contr.path(stage, xr, v, z)
        problem = Problem(I, z, 0, x_w, phi, path_values, contr.centre(I, x))
        return A.comp(problem)

    return extend


def contract_path(A: Fib, contr: ContrStruct) -> FibPath:
    """The path from a contractible fibration to the unit: improve the
    contraction C_A along the evident endpoint isomorphisms."""
    cfib = contraction_fib(A, extend_from_contractible(A, contr))
    unit = discrete_fib(A.base, ["*"])

    def iso0_fwd(I, x, a):
        return frozenset({(frozenset(), a)})

    def iso0_bwd(I, x, d):
        return dict(d)[frozenset()]  # the fiber at 0 holds total elements

    iso0 = StrictIso(A.family, iso0_fwd, iso0_bwd)
    iso1 = StrictIso(unit.family, lambda I, x, a: frozenset(), lambda I, x, d: "*")
    return improve(cfib, iso0, iso1, A, unit)
