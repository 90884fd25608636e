import pytest

from utk.model import cset as CS
from utk.model import constructions as CO
from utk.model import fib as FB
from utk.model import fixtures as FX
from utk.model import selftest as ST
from utk.model.interval import ctx, dm_const, dm_eq, dm_sym, face_bot

E = frozenset()


def point_fibs():
    point = CS.DiscreteCSet(["pt"])
    A = FX.discrete_fib(point, ["x", "y"])
    B = FX.discrete_fib(point, ["s", "t"])
    iso = CO.StrictIso(A.family, lambda I, rho, a: {"x": "s", "y": "t"}[a],
                       lambda I, rho, b: {"s": "x", "t": "y"}[b])
    return point, A, B, iso


def test_realign_bot_equals_alpha():
    iv = CS.IntervalCSet()
    fib = FX.discrete_fib(iv, ["x", "y"])
    realigned = CO.realign(CS.cof_false(), fib, fib)
    for problem in list(ST.enumerate_problems(fib, 2))[:200]:
        assert realigned.comp(problem) == fib.comp(problem)


def test_realign_restriction_equation_exact():
    iv = CS.IntervalCSet()
    fib = FX.discrete_fib(iv, ["x", "y"])
    cof = CS.cof_true()
    realigned = CO.realign(cof, fib, fib)
    for problem in list(ST.enumerate_problems(fib, 2))[:200]:
        assert realigned.comp(problem) == fib.comp(problem)


def test_isofib_identity_is_beta():
    _, _, B, _ = point_fibs()
    ident = CO.isofib(CO.identity_iso(B.family), B)
    for problem in list(ST.enumerate_problems(B, 2))[:200]:
        assert ident.comp(problem) == B.comp(problem)


def test_isofib_boundary():
    _, _, B, iso = point_fibs()
    other = CO.isofib(iso, B)
    for problem in list(ST.enumerate_problems(other, 2))[:200]:
        result = other.comp(problem)
        assert FB.check_boundary(other, problem, result) == []


def test_strictify_endpoint_cases():
    _, A, B, iso = point_fibs()
    # bot: nothing changes
    fam, iso2 = CO.strictify(CS.cof_false(), A.family, B.family, iso)
    assert sorted(fam.fiber(E, "pt")) == sorted(B.family.fiber(E, "pt"))
    assert iso2.fwd(E, "pt", "s") == "s"
    # top: the partial family on the nose, iso extended
    fam, iso2 = CO.strictify(CS.cof_true(), A.family, B.family, iso)
    assert sorted(fam.fiber(E, "pt")) == sorted(A.family.fiber(E, "pt"))
    assert iso2.fwd(E, "pt", "x") == "s"


def test_strictified_family_functorial_over_interval():
    iv = CS.IntervalCSet()
    A = FX.discrete_fib(iv, ["u", "v"])
    B = FX.discrete_fib(iv, ["x", "y"])
    iso = CO.StrictIso(A.family, lambda I, rho, a: {"u": "x", "v": "y"}[a],
                       lambda I, rho, b: {"x": "u", "y": "v"}[b])
    fam, _ = CO.strictify(CS.cof_interval_eq(0), A.family, B.family, iso)
    assert CS.validate_cset(fam, max_dim=2, max_points=10, max_pairs=150) == []


def test_veebar_comp_delegates():
    _, A, B, _ = point_fibs()
    vee = CO.veebar(A, B)
    zctx = ctx("z")
    problem = FB.Problem(E, "z", 0, ("pt", dm_const(zctx, 1)), face_bot(E),
                         {}, "s")
    assert vee.comp(problem) == B.comp(
        FB.Problem(E, "z", 0, "pt", face_bot(E), {}, "s"))


def test_veebar_rejects_diagonal_paths():
    _, A, B, _ = point_fibs()
    vee = CO.veebar(A, B)
    zctx = ctx("z")
    problem = FB.Problem(E, "z", 0, ("pt", dm_sym(zctx, "z")), face_bot(E),
                         {}, "x")
    with pytest.raises(Exception):
        vee.comp(problem)


@pytest.mark.parametrize("sides, count", [("discrete", 56), ("interval", 364)])
def test_veebar_composes_over_its_restricted_base(sides, count):
    # the problems come from the (i=0) \/ (i=1) subpresheaf of point*I itself:
    # its cells and action, never a side's own base
    point, A, B, _ = point_fibs()
    if sides == "interval":
        A = FX.interval_fib(point)
    vee = CO.veebar(A, B)
    assert isinstance(vee.base, CS.RestrictedCSet)
    problems = list(ST.enumerate_problems(vee, 2))
    assert len(problems) == count
    for problem in problems:
        assert FB.check_boundary(vee, problem, vee.comp(problem)) == []


def test_isopath_coerce_swaps_two_points():
    _, A, B, iso = point_fibs()
    path = CO.isopath(iso, A, B)
    assert CO.coerce_along(path, E, "pt", "x") == "s"
    assert CO.coerce_along(path, E, "pt", "y") == "t"


def test_isopath_endpoints_exact():
    point, A, B, iso = point_fibs()
    path = CO.isopath(iso, A, B)
    assert ST.fibs_equal(CO.endpoint_reindex(path.line, point, 0), A) == []
    assert ST.fibs_equal(CO.endpoint_reindex(path.line, point, 1), B) == []


def test_contract_path_unit_to_unit():
    point = CS.DiscreteCSet(["pt"])
    unit_like = FX.discrete_fib(point, ["x"])
    contr = CO.ContrStruct(lambda I, rho: "x", lambda I, rho, a, z: "x")
    path = CO.contract_path(unit_like, contr)
    unit = FB.discrete_fib(point, ["*"])
    assert ST.fibs_equal(CO.endpoint_reindex(path.line, point, 0), unit_like) == []
    assert ST.fibs_equal(CO.endpoint_reindex(path.line, point, 1), unit) == []


def test_contraction_fiber_shapes():
    # fibers of C_A at the endpoints: a copy of A at 0, a point at 1
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    ext = CO.extend_from_contractible(w, FX.interval_contraction(point))
    cfib = CO.contraction_fib(w, ext)
    at0 = cfib.family.fiber(E, ("pt", dm_const(E, 0)))
    at1 = cfib.family.fiber(E, ("pt", dm_const(E, 1)))
    assert len(at0) == len(w.family.fiber(E, "pt")) == 2
    assert at1 == [frozenset()]


def test_contraction_fiber_is_a_fresh_list_on_each_call():
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    family = CO.contraction_fib(w, CO.extend_from_contractible(
        w, FX.interval_contraction(point))).family
    I = ctx("i")
    for context, r in ((E, dm_const(E, 0)), (E, dm_const(E, 1)), (I, dm_sym(I, "i"))):
        first = family.fiber(context, ("pt", r))
        second = family.fiber(context, ("pt", r))
        assert first == second and first is not second
        first.append("junk")
        assert family.fiber(context, ("pt", r)) == second


def test_extension_structure_extends():
    point = CS.DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    ext = CO.extend_from_contractible(w, FX.interval_contraction(point))
    # phi = bot: the centre transported
    out = ext(E, "pt", face_bot(E), {})
    assert dm_eq(out, dm_const(E, 0))
    # phi = (i=0): the result restricts to the given partial element
    from utk.model.interval import face_eq_sym
    I = ctx("i")
    value = dm_const(E, 1)
    out = ext(I, "pt", face_eq_sym(I, "i", 0), {frozenset({("i", 0)}): value})
    got = w.family.restrict("pt", CS.CubeMap.face(I, frozenset({("i", 0)})), out)
    assert dm_eq(got, value)


def test_coerce_iso_witness_endpoints():
    _, A, B, iso = point_fibs()
    path = CO.isopath(iso, A, B)
    q = CO.coerce_iso_witness(iso, B, E, "pt", "x")
    W = ctx("w")
    at0 = B.family.restrict("pt", CS.CubeMap.face(W, frozenset({("w", 0)})), q)
    at1 = B.family.restrict("pt", CS.CubeMap.face(W, frozenset({("w", 1)})), q)
    assert at0 == "s"  # f applied
    assert at1 == CO.coerce_along(path, E, "pt", "x")
