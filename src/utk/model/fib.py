"""Composition structures and fibrations.

A composition problem for a family A over Gamma, at a stage I with a fresh
direction z, carries a path p into Gamma (a cell over I+z), a face formula
phi over I, a partial path `values` mapping each canonical clause c of phi
to an element over (I - dims c) + z at the restricted path, and a starting
element at the end e.  A composition structure solves every problem,
landing at the other end and agreeing with the partial path there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .interval import (
    Face, ModelError, dm_const, dm_join, dm_meet, dm_neg, dm_subst, dm_sym,
    face_of_eq, face_or, face_subst_clause, face_weaken,
)
from .cset import (
    CubeMap, CubicalSet, Family, LabelFamily, SigmaFamily, TotalCSet,
    extend_clause_map,
)


class CompositionError(ModelError):
    pass


def clause_stage(I: frozenset, clause: frozenset) -> frozenset:
    return I - {name for name, _ in clause}


@dataclass
class Problem:
    I: frozenset
    z: str
    e: int
    path: object  # cell of the base over I + {z}
    phi: Face  # over I
    values: dict  # canonical clause of phi -> element over its stage + {z}
    a0: object  # element over (I, path at z:=e)

    @property
    def zctx(self) -> frozenset:
        return self.I | {self.z}

    def end_map(self, endpoint: int) -> CubeMap:
        return CubeMap.face(self.zctx, frozenset({(self.z, endpoint)}))


@dataclass
class Fib:
    """A family with a composition structure."""

    family: Family
    comp: object  # callable Problem -> element

    @property
    def base(self) -> CubicalSet:
        return self.family.base


def path_at(base: CubicalSet, problem: Problem, endpoint: int):
    return base.restrict(problem.end_map(endpoint), problem.path)


def clause_path(base: CubicalSet, problem: Problem, clause: frozenset):
    """The path restricted under a clause's face map, still with direction z."""
    gz = extend_clause_map(CubeMap.face(problem.I, clause), problem.z)
    return base.restrict(gz, problem.path)


def partial_at(family: Family, problem: Problem, clause: frozenset):
    """Value of the partial path at any clause entailing phi, resolved
    through a canonical clause it extends."""
    for c, value in problem.values.items():
        if c <= clause:
            extra = frozenset(clause - c)
            if not extra:
                return value
            f = extend_clause_map(
                CubeMap.face(clause_stage(problem.I, c), extra), problem.z)
            return family.restrict(clause_path(family.base, problem, c), f, value)
    raise CompositionError(
        f"partial path has no value covering the clause {sorted(clause)}")


def partial_end(family: Family, problem: Problem, clause: frozenset,
                endpoint: int):
    """Partial value at a clause, evaluated at a z endpoint."""
    value = partial_at(family, problem, clause)
    stage = clause_stage(problem.I, clause) | {problem.z}
    emap = CubeMap.face(stage, frozenset({(problem.z, endpoint)}))
    return family.restrict(clause_path(family.base, problem, clause), emap, value)


def _end_violations(fib: Fib, problem: Problem, endpoint: int, a):
    """Violations of a as an element at the path's end `endpoint`: it must
    lie in that fiber and extend the partial path there."""
    end = path_at(fib.base, problem, endpoint)
    if a not in fib.family.fiber(problem.I, end):
        yield ("fiber", a)
    for clause in problem.phi.clauses():
        g = CubeMap.face(problem.I, clause)
        got = fib.family.restrict(end, g, a)
        want = partial_end(fib.family, problem, clause, endpoint)
        if got != want:
            yield ("boundary", clause, got, want)


def check_boundary(fib: Fib, problem: Problem, result) -> list:
    """Violations of the boundary condition: the result must lie in the far
    fiber and extend the partial path there."""
    return list(_end_violations(fib, problem, 1 - problem.e, result))


def check_start_agreement(fib: Fib, problem: Problem) -> bool:
    """Precondition of a problem: a0 agrees with the partial path at e."""
    return next(_end_violations(fib, problem, problem.e, problem.a0), None) is None


def restrict_problem(family: Family, problem: Problem,
                     clause: frozenset) -> Problem:
    """Reindex a problem along the face map of a clause over its stage."""
    stage = clause_stage(problem.I, clause)
    g = CubeMap.face(problem.I, clause)
    new_path = clause_path(family.base, problem, clause)
    new_phi = face_subst_clause(problem.phi, clause)
    new_values = {
        c: partial_at(family, problem, frozenset(clause | c))
        for c in new_phi.clauses()
    }
    start = path_at(family.base, problem, problem.e)
    new_a0 = family.restrict(start, g, problem.a0)
    return Problem(stage, problem.z, problem.e, new_path,
                   new_phi, new_values, new_a0)


# ---------------------------------------------------------------------------
# Stock composition structures


def comp_discrete(problem: Problem):
    """Composition for constant families: transport is the identity."""
    return problem.a0


def label_fib(base: CubicalSet, labels) -> Fib:
    """A discrete fibration whose fiber over rho is labels(rho)."""
    return Fib(LabelFamily(base, labels), comp_discrete)


def discrete_fib(base: CubicalSet, labels) -> Fib:
    """The constant discrete fibration: the same labels over every cell."""
    labels = list(labels)
    return label_fib(base, lambda rho: labels)


def comp_interval(problem: Problem):
    """Composition for the fiberwise interval (fibers dm(I)).

    Wall values are glued by the connection sandwich

        L = join_c (A_c and m_c)      U = meet_c (A_c or ~m_c)
        result = L or (U and a0)

    where A_c weakens the wall value of clause c and m_c is the meet of the
    clause's literals.  In any De Morgan algebra F(t) >= F(e) and m and
    F(t) <= F(e) or ~m hold for the literal m of the endpoint e, so L and U
    agree with every wall and L <= U; any element between them, in
    particular the one above, restricts to the walls on the nose.  The same
    formula computes the fillers, so filling and composing commute.
    """
    I = problem.I
    far = 1 - problem.e
    ends = {}
    for clause in problem.phi.clauses():
        stage = clause_stage(I, clause)
        ends[clause] = dm_subst(
            problem.values[clause], {**{n: dm_sym(stage, n) for n in stage},
                                     problem.z: dm_const(stage, far)}, stage)
    if not ends:
        return problem.a0
    if frozenset() in ends:
        # total partial path: the answer is forced
        return ends[frozenset()]
    lower = dm_const(I, 0)
    upper = dm_const(I, 1)
    for clause, value in ends.items():
        stage = clause_stage(I, clause)
        wall = dm_subst(value, {n: dm_sym(I, n) for n in stage}, I)
        m = dm_const(I, 1)
        for name, endpoint in clause:
            s = dm_sym(I, name)
            m = dm_meet(m, s if endpoint == 1 else dm_neg(s))
        lower = dm_join(lower, dm_meet(wall, m))
        upper = dm_meet(upper, dm_join(wall, dm_neg(m)))
    return dm_join(lower, dm_meet(upper, problem.a0))


def comp_sigma(first: Fib, second: Fib) -> Fib:
    """Composition for a dependent sum: compose the first component, fill it
    to transport the second, then compose the second along the total path."""
    if not isinstance(second.family.base, TotalCSet):
        raise ModelError("second component must live over the total set of the first")
    family = SigmaFamily(first.family, second.family)

    def comp(problem: Problem):
        a0, b0 = problem.a0
        fst = replace(problem, a0=a0,
                      values={c: v[0] for c, v in problem.values.items()})
        snd = replace(problem, a0=b0, path=(problem.path, fill_path(first, fst)),
                      values={c: v[1] for c, v in problem.values.items()})
        return (first.comp(fst), second.comp(snd))

    return Fib(family, comp)


def _fresh_dim(used: frozenset) -> str:
    for candidate in ("w", "w1", "w2", "w3", "w4"):
        if candidate not in used:
            return candidate
    raise CompositionError("no fresh dimension symbol available")


def fill(fib: Fib, problem: Problem, out_dim: str):
    """The filler: an element q over I + out_dim with q(out_dim=e) = a0,
    q agreeing with the partial path over phi (reparameterized in out_dim),
    and q(out_dim=1-e) the composition of the problem.  Derived from
    composition by squashing the direction with a connection."""
    I, z, e = problem.I, problem.z, problem.e
    w = out_dim
    if w in I or w == z:
        raise CompositionError("fill output dimension must be fresh")
    wctx = I | {w}
    wzctx = wctx | {z}
    base = fib.base
    conn = dm_meet if e == 0 else dm_join

    squash = CubeMap.make(
        problem.zctx, wzctx,
        {**{n: dm_sym(wzctx, n) for n in I},
         z: conn(dm_sym(wzctx, z), dm_sym(wzctx, w))})
    new_path = base.restrict(squash, problem.path)
    new_phi = face_or(face_weaken(problem.phi, wctx),
                      face_of_eq(dm_sym(wctx, w), e))

    new_values = {}
    for clause in new_phi.clauses():
        fixed = dict(clause)
        if w in fixed:
            # the w = e wall: the constant path at a0, under the remaining
            # endpoints of the clause
            rest = frozenset(c for c in clause if c[0] != w)
            small = clause_stage(I, rest)
            start = path_at(base, problem, e)
            a0r = fib.family.restrict(start, CubeMap.face(I, rest), problem.a0)
            start_r = base.restrict(CubeMap.face(I, rest), start)
            new_values[clause] = fib.family.restrict(
                start_r, CubeMap.weaken(small, small | {z}), a0r)
        else:
            # a phi wall: the original value with its direction squashed
            value = partial_at(fib.family, problem, clause)
            stage = clause_stage(I, clause) | {z}
            tstage = clause_stage(wctx, clause) | {z}
            sq = CubeMap.make(
                stage, tstage,
                {**{n: dm_sym(tstage, n) for n in clause_stage(I, clause)},
                 z: conn(dm_sym(tstage, z), dm_sym(tstage, w))})
            new_values[clause] = fib.family.restrict(
                clause_path(base, problem, clause), sq, value)

    a0w = fib.family.restrict(path_at(base, problem, e), CubeMap.weaken(I, wctx),
                              problem.a0)
    return fib.comp(Problem(wctx, z, e, new_path, new_phi, new_values, a0w))


def fill_path(fib: Fib, problem: Problem):
    """The filler as a path element over the problem's own direction."""
    w = _fresh_dim(problem.zctx)
    q = fill(fib, problem, w)
    I, z = problem.I, problem.z
    wctx = I | {w}
    to_w = CubeMap.make(problem.zctx, wctx,
                        {**{n: dm_sym(wctx, n) for n in I}, z: dm_sym(wctx, w)})
    path_w = fib.base.restrict(to_w, problem.path)
    rename = CubeMap.make(wctx, problem.zctx,
                          {**{n: dm_sym(problem.zctx, n) for n in I},
                           w: dm_sym(problem.zctx, z)})
    return fib.family.restrict(path_w, rename, q)
