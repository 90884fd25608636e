import re

import pytest

from utk.model import cset as CS
from utk.model import fib as FB
from utk.model import fixtures as FX
from utk.model import selftest as ST
from utk.model.interval import (
    ctx, dm_const, dm_eq, dm_join, dm_meet, dm_neg, dm_sym, face_bot,
    face_eq_sym, face_or, face_top,
)

E = frozenset()
I = ctx("i")


def mkproblem(fib, I_, path, e=0, phi=None, values=None, a0=None, z="z"):
    phi = phi if phi is not None else face_bot(I_)
    return FB.Problem(I_, z, e, path, phi, values or {}, a0)


def test_discrete_comp_is_identity():
    point = CS.DiscreteCSet(["pt"])
    fib = FX.discrete_fib(point, ["x", "y"])
    problem = mkproblem(fib, E, "pt", a0="x")
    assert fib.comp(problem) == "x"
    assert FB.check_boundary(fib, problem, "x") == []


def test_comp_with_total_partial_path_is_forced():
    # phi = T forces the answer to the far end of the partial path
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    z = dm_sym(ctx("z"), "z")
    problem = mkproblem(w, E, "pt", e=0, phi=face_top(E),
                        values={frozenset(): z}, a0=dm_const(E, 0))
    assert FB.check_start_agreement(w, problem)
    assert dm_eq(w.comp(problem), dm_const(E, 1))


def test_unit_comp():
    point = CS.DiscreteCSet(["pt"])
    unit = FB.discrete_fib(point, ["*"])
    problem = mkproblem(unit, E, "pt", a0="*")
    assert unit.comp(problem) == "*"


def test_interval_two_sided_interpolation():
    # walls z at (i=0) and ~z at (i=1) glue to a genuine square
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    z = dm_sym(ctx("z"), "z")
    phi = face_or(face_eq_sym(I, "i", 0), face_eq_sym(I, "i", 1))
    problem = mkproblem(
        w, I, "pt", e=0, phi=phi,
        values={frozenset({("i", 0)}): z, frozenset({("i", 1)}): dm_neg(z)},
        a0=dm_sym(I, "i"))
    assert FB.check_start_agreement(w, problem)
    result = w.comp(problem)
    assert FB.check_boundary(w, problem, result) == []
    # oracle by direct substitution: the walls at z := 1
    assert dm_eq(w.family.restrict("pt", CS.CubeMap.face(I, frozenset({("i", 0)})), result),
                 dm_const(E, 1))
    assert dm_eq(w.family.restrict("pt", CS.CubeMap.face(I, frozenset({("i", 1)})), result),
                 dm_const(E, 0))


def test_fill_endpoints_constant_family():
    point = CS.DiscreteCSet(["pt"])
    fib = FX.discrete_fib(point, ["x", "y"])
    problem = mkproblem(fib, E, "pt", a0="y")
    q = FB.fill(fib, problem, "w")
    W = ctx("w")
    at0 = fib.family.restrict("pt", CS.CubeMap.face(W, frozenset({("w", 0)})), q)
    at1 = fib.family.restrict("pt", CS.CubeMap.face(W, frozenset({("w", 1)})), q)
    assert at0 == "y"  # the starting end
    assert at1 == fib.comp(problem)  # the defining property


def test_fill_agrees_with_partial_by_substitution():
    # brute force the fill of an interval problem through De Morgan
    # substitutions at both walls
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    z = dm_sym(ctx("z"), "z")
    phi = face_eq_sym(I, "i", 0)
    problem = mkproblem(w, I, "pt", e=0, phi=phi,
                        values={frozenset({("i", 0)}): z}, a0=dm_const(I, 0))
    assert FB.check_start_agreement(w, problem)
    q = FB.fill(w, problem, "w")
    IW = I | {"w"}
    # on the wall i=0 the fill is the squashed wall value z /\ w
    wall = w.family.restrict("pt", CS.CubeMap.face(IW, frozenset({("i", 0)})), q)
    assert dm_eq(wall, dm_sym(ctx("w"), "w"))
    # at w=1 the fill solves the problem
    top = w.family.restrict("pt", CS.CubeMap.face(IW, frozenset({("w", 1)})), q)
    assert dm_eq(top, w.comp(problem))


def test_sigma_comp_discrete_slices():
    _, _, _, sigma = FX.sigma_fixture()
    # a problem with empty cofibration: first component stays, second
    # composes in its slice
    problem = mkproblem(sigma, E, "p", a0=("a1", dm_const(E, 0)))
    result = sigma.comp(problem)
    assert result[0] == "a1"
    assert dm_eq(result[1], dm_const(E, 0))
    assert FB.check_boundary(sigma, problem, result) == []


def test_sigma_comp_forced_by_top():
    _, _, _, sigma = FX.sigma_fixture()
    z = dm_sym(ctx("z"), "z")
    problem = mkproblem(sigma, E, "p", e=0, phi=face_top(E),
                        values={frozenset(): ("a1", z)},
                        a0=("a1", dm_const(E, 0)))
    assert FB.check_start_agreement(sigma, problem)
    a1, b1 = sigma.comp(problem)
    assert a1 == "a1"
    assert dm_eq(b1, dm_const(E, 1))


def test_problem_enumeration_respects_preconditions():
    point = CS.DiscreteCSet(["pt"])
    fib = FX.discrete_fib(point, ["x", "y"])
    count = 0
    for problem in ST.enumerate_problems(fib, 2):
        assert FB.check_start_agreement(fib, problem)
        count += 1
    assert count > 0


def test_restrict_partial_along_a_connection():
    # {(i=0): 1} restricted along i := j /\ k is defined on (j=0) \/ (k=0),
    # and each clause reads the one recorded value
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    JK = ctx("j", "k")
    f = CS.CubeMap.make(I, JK, {"i": dm_meet(dm_sym(JK, "j"), dm_sym(JK, "k"))})
    j0, k0 = frozenset({("j", 0)}), frozenset({("k", 0)})
    got = FB.restrict_partial(w.family, "pt", [(frozenset({("i", 0)}), dm_const(E, 1))],
                              f, [j0, k0])
    assert got == {j0: dm_const(ctx("k"), 1), k0: dm_const(ctx("j"), 1)}


def test_restrict_partial_names_an_uncovered_clause():
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    i1 = frozenset({("i", 1)})
    with pytest.raises(FB.CompositionError, match=re.escape(str(sorted(i1)))):
        FB.restrict_partial(w.family, "pt", [(frozenset({("i", 0)}), dm_const(E, 1))],
                            CS.CubeMap.identity(I), [i1])


def with_z(f, z):
    """The map f: I -> J extended to I + z -> J + z, leaving z alone."""
    jz = f.dst | {z}
    up = CS.CubeMap.weaken(f.dst, jz)
    return CS.CubeMap.make(f.src | {z}, jz,
                           {**{n: up.apply_dm(r) for n, r in f.assign}, z: dm_sym(jz, z)})


def uniformity_violations(fib, max_dim=2):
    """The number of cases, and the map of each violation, of uniformity:
    comp(P)·f against comp(P·f), for each enumerated problem P and each
    enumerated map f from its stage to a stage below the bound."""
    cases, bad = 0, []
    for problem in ST.enumerate_problems(fib, max_dim):
        end = FB.path_at(fib.base, problem, problem.end(1 - problem.e))
        result = fib.comp(problem)
        for J in CS.enumerate_contexts(max_dim - 1):
            for f in CS.enumerate_maps(problem.I, J):
                cases += 1
                restricted = FB.restrict_problem(fib.family, problem, with_z(f, problem.z))
                assert FB.check_start_agreement(fib, restricted), (problem, f)
                if fib.family.restrict(end, f, result) != fib.comp(restricted):
                    bad.append(f)
    return cases, bad


def _uniformity_fibs():
    fibs = {fx.name: fx.fib for fx in FX.builtin_fixtures()}
    fibs["sigma"] = FX.sigma_fixture()[3]
    return fibs


@pytest.mark.parametrize("name, cases, violations", [
    ("pt/one", 88, 0), ("pt/two", 176, 0), ("pt/three", 264, 0),
    ("interval/two", 2976, 0), ("pt/interval-fiber", 1856, 24), ("sigma", 2840, 24)])
def test_composition_commutes_with_restriction(name, cases, violations):
    # CCHM composition is uniform.  The interval over the point is not: with
    # phi = (i=0), a wall z and a0 = 0 at e = 0, the ends force c = ~i, yet
    # i |-> i \/ ~i pulls phi back to bottom, so c restricted must be a0 = 0,
    # and ~(i \/ ~i) is i /\ ~i.  The sigma fixture fails through its interval
    # slice; each violation is along i |-> i /\ ~i or i |-> i \/ ~i.
    got_cases, bad = uniformity_violations(_uniformity_fibs()[name])
    assert (got_cases, len(bad)) == (cases, violations)
    i = dm_sym(I, "i")
    squashes = {CS.CubeMap.make(I, I, {"i": op(i, dm_neg(i))}) for op in (dm_meet, dm_join)}
    assert set(bad) <= squashes
