"""Composition structures and fibrations.

A partial element of a family over a cell x is a `{clause: element}` map:
each clause of a face formula over x's stage carries an element over the
clause's face of x, the elements agreeing where clauses overlap.  One
function, `restrict_partial`, restricts it along any cube map, and every
partial element here goes through it: problem walls, fillers and the
contraction family's members.

A composition problem for a family A over Gamma, at a stage I with a fresh
direction z, carries a path p into Gamma (a cell over I+z), a face formula
phi over I, a partial path `values`, the partial element over p at the
clauses of phi, and a starting element at the end e.  A composition
structure solves every problem, landing at the other end and agreeing with
the partial path there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .interval import (
    Face, ModelError, dm_const, dm_join, dm_meet, dm_neg, dm_subst, dm_sym,
    face_of_eq, face_or, face_subst_clause, face_weaken,
)
from .cset import (
    CubeMap, CubicalSet, Family, LabelFamily, SigmaFamily, TotalCSet, _factor,
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

    def end(self, endpoint: int) -> frozenset:
        """The clause z = endpoint."""
        return frozenset({(self.z, endpoint)})

    def end_map(self, endpoint: int) -> CubeMap:
        return CubeMap.face(self.zctx, self.end(endpoint))


@dataclass
class Fib:
    """A family with a composition structure."""

    family: Family
    comp: object  # callable Problem -> element

    @property
    def base(self) -> CubicalSet:
        return self.family.base


def path_at(base: CubicalSet, problem: Problem, clause: frozenset):
    """The path under the face map of a clause over I + z: a clause over I
    keeps the direction, the clause `problem.end(e)` gives the end e."""
    return base.restrict(CubeMap.face(problem.zctx, clause), problem.path)


def restrict_partial(family: Family, x, values, f: CubeMap, clauses) -> dict:
    """Restrict a partial element along any cube map f.  `values` are the
    (clause, element) pairs of a partial element over the cell x of f.src,
    each element over its clause's face of x; the result maps each clause
    of `clauses`, over f.dst, to its element, read off the first recorded
    clause that f followed by the clause's face map factors through."""
    out = {}
    for clause in clauses:
        m = f.then(CubeMap.face(f.dst, clause))
        for c, v in values:
            remainder = _factor(m, c)
            if remainder is not None:
                xc = family.base.restrict(CubeMap.face(f.src, c), x)
                out[clause] = family.restrict(xc, remainder, v)
                break
        else:
            raise CompositionError(
                f"partial element has no value covering the clause {sorted(clause)}")
    return out


def partial_at(family: Family, problem: Problem, clause: frozenset):
    """Value of the partial path at any clause over I + z that entails phi."""
    return restrict_partial(family, problem.path, problem.values.items(),
                            CubeMap.identity(problem.zctx), [clause])[clause]


def _end_violations(fib: Fib, problem: Problem, endpoint: int, a):
    """Violations of a as an element at the path's end `endpoint`: it must
    lie in that fiber and extend the partial path there."""
    end = path_at(fib.base, problem, problem.end(endpoint))
    if a not in fib.family.fiber(problem.I, end):
        yield ("fiber", a)
    for clause in problem.phi.clauses():
        got = fib.family.restrict(end, CubeMap.face(problem.I, clause), a)
        want = partial_at(fib.family, problem, clause | problem.end(endpoint))
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
    new_phi = face_subst_clause(problem.phi, clause)
    new_values = restrict_partial(family, problem.path, problem.values.items(),
                                  CubeMap.face(problem.zctx, clause), new_phi.clauses())
    start = path_at(family.base, problem, problem.end(problem.e))
    new_a0 = family.restrict(start, CubeMap.face(problem.I, clause), problem.a0)
    return Problem(clause_stage(problem.I, clause), problem.z, problem.e,
                   path_at(family.base, problem, clause), new_phi, new_values, new_a0)


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

    # the phi walls squash their direction; the w = e walls are the
    # constant path at a0
    clauses = new_phi.clauses()
    at_w = [c for c in clauses if w in dict(c)]
    start = path_at(base, problem, problem.end(e))
    new_values = restrict_partial(fib.family, problem.path, problem.values.items(),
                                  squash, [c for c in clauses if c not in at_w])
    new_values.update(restrict_partial(fib.family, start, [(frozenset(), problem.a0)],
                                       CubeMap.weaken(I, wzctx), at_w))
    a0w = fib.family.restrict(start, CubeMap.weaken(I, wctx), problem.a0)
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
