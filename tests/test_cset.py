import itertools

import pytest

from utk.model import cset as CS
from utk.model import fib as FB
from utk.model import selftest as ST
from utk.report import Report
from utk.model.interval import ctx, dm_all, dm_const, dm_meet, dm_neg, dm_sym, dm_eq

I = ctx("i")
IJ = ctx("i", "j")
E = frozenset()


def test_cubemap_identity_and_composition():
    ident = CS.CubeMap.identity(IJ)
    assert ident.is_identity()
    f = CS.CubeMap.face(IJ, frozenset({("j", 0)}))
    g = CS.CubeMap.make(I, E, {"i": dm_const(E, 1)})
    fg = f.then(g)
    assert fg.src == IJ and fg.dst == E


def test_cubemap_associativity_on_fixtures():
    # includes a connection, a face and a degeneracy
    conn = CS.CubeMap.make(I, IJ, {"i": dm_meet(dm_sym(IJ, "i"), dm_sym(IJ, "j"))})
    swap = CS.CubeMap.make(IJ, IJ, {"i": dm_sym(IJ, "j"), "j": dm_sym(IJ, "i")})
    face = CS.CubeMap.face(IJ, frozenset({("i", 1)}))
    lhs = conn.then(swap).then(face)
    rhs = conn.then(swap.then(face))
    assert lhs == rhs


def test_interval_restriction_is_substitution():
    iv = CS.IntervalCSet()
    i = dm_sym(I, "i")
    to_zero = CS.CubeMap.make(I, E, {"i": dm_const(E, 0)})
    assert dm_eq(iv.restrict(to_zero, i), dm_const(E, 0))


def test_constant_cset_restriction():
    d = CS.DiscreteCSet(["p", "q"])
    f = CS.CubeMap.face(I, frozenset({("i", 0)}))
    assert d.restrict(f, "p") == "p"


def test_validate_constant_and_interval():
    assert CS.validate_cset(CS.DiscreteCSet(["a", "b"]), max_dim=2) == []
    assert CS.validate_cset(CS.IntervalCSet(), max_dim=2) == []


def test_validate_product_and_total():
    prod = CS.ProductIntervalCSet(CS.DiscreteCSet(["p"]))
    assert CS.validate_cset(prod, max_dim=2) == []
    fam = CS.LabelFamily(CS.DiscreteCSet(["p", "q"]), lambda rho: ["x", "y"])
    assert CS.validate_cset(fam, max_dim=2) == []
    assert CS.validate_cset(CS.IntervalFamily(CS.DiscreteCSet(["pt"])), max_dim=2) == []


def test_a_label_family_restricts_only_its_own_labels():
    fam = CS.LabelFamily(CS.DiscreteCSet(["p", "q"]), {"p": ["x"], "q": ["y"]}.__getitem__)
    f = CS.CubeMap.make(frozenset(), ctx("i"), {})
    assert fam.restrict("q", f, "y") == "y"
    with pytest.raises(CS.ElementNotInObjectError, match=r"'y' not among \['x'\]"):
        fam.restrict("p", f, "y")


def test_membership_is_exact_at_every_problem_stage():
    # a family's members are its fiber's elements: the interval family lists
    # the whole free algebra up to two dimensions
    family = CS.IntervalFamily(CS.DiscreteCSet(["pt"]))
    for stage, size in ((E, 2), (I, 6), (IJ, 168)):
        assert family.fiber(stage, "pt") == list(dm_all(stage))
        assert len(family.fiber(stage, "pt")) == size
    assert dm_const(E, 0) not in family.fiber(I, "pt")
    assert dm_sym(I, "i") not in family.fiber(IJ, "pt")
    # and the boundary checks ask only at stages of at most two dimensions
    point = FB.discrete_fib(CS.DiscreteCSet(["pt"]), ["x"])
    for max_dim in (2, 3):
        stages = {problem.I for problem in ST.enumerate_problems(point, max_dim)}
        assert stages == set(CS.enumerate_contexts(max_dim - 1))
        assert max(map(len, stages)) == max_dim - 1 <= 2


class TabularCSet(CS.CubicalSet):
    """Explicit finite presheaf given by tables, for fault injection.  Missing
    action entries fall back to the identity on cells (the discrete action)."""

    def __init__(self, cells_by_dim: dict, action: dict):
        self._cells = {frozenset(k): list(v) for k, v in cells_by_dim.items()}
        self.action = action

    def cells(self, context):
        if context not in self._cells:
            raise CS.ElementNotInObjectError(f"no cells recorded at {sorted(context)}")
        return list(self._cells[context])

    def restrict(self, f, x):
        return self.action.get((f, x), x)


def corrupted_cset():
    """A discrete cset whose face i := 0 wrongly sends a to b."""
    face = CS.CubeMap.face(I, frozenset({("i", 0)}))
    return TabularCSet({E: ["a", "b"], I: ["a", "b"],
                           IJ: ["a", "b"],
                           frozenset({"j"}): ["a", "b"]},
                          action={(face, "a"): "b"})


def test_validate_catches_corruption():
    violations = CS.validate_cset(corrupted_cset(), max_dim=2)
    assert violations


class OneMapFaultySet(CS.IntervalCSet):
    """The interval, except that x·m is negated for the one map m.  It lists
    cells over the empty context only, which every map is reached from: as
    g after the one map out of it, or as f when m starts there."""

    def __init__(self, m):
        self.m = m

    def cells(self, context):
        return super().cells(context) if not context else []

    def restrict(self, f, x):
        y = super().restrict(f, x)
        return dm_neg(y) if f is self.m else y


class OneMapFaultyFamily(CS.IntervalFamily):
    """The interval family over a point, except that a·m is negated for the
    one map m.  Like `OneMapFaultySet`, it lists elements over the empty
    context only."""

    def __init__(self, m):
        super().__init__(CS.DiscreteCSet(["pt"]))
        self.m = m

    def fiber(self, context, rho):
        return super().fiber(context, rho) if not context else []

    def restrict(self, rho, f, a):
        y = super().restrict(rho, f, a)
        return dm_neg(y) if f is self.m else y


@pytest.mark.parametrize("faulty", [OneMapFaultySet, OneMapFaultyFamily])
def test_a_law_fault_on_one_map_is_caught(faulty):
    contexts = CS.enumerate_contexts(2)
    maps = [m for src in contexts for dst in contexts
            for m in CS.enumerate_maps(src, dst) if not m.is_identity()]
    assert len(maps) == 184
    for m in maps:
        violations = CS.validate_cset(faulty(m), max_dim=2)
        assert violations, m
        # every violation is a composition through the faulty map
        for _, _, _, _, f, g, _ in violations:
            assert m in (f, g, f.then(g)), (m, f, g)


def test_cubemap_repr_shows_components():
    J = ctx("j")
    f = CS.CubeMap.make(IJ, J, {"i": dm_const(J, 0), "j": dm_sym(J, "j")})
    assert repr(f) == "CubeMap(i,j -> j: i:=0, j:=j)"
    conn = CS.CubeMap.make(I, IJ, {"i": dm_meet(dm_sym(IJ, "i"), dm_neg(dm_sym(IJ, "j")))})
    assert repr(conn) == "CubeMap(i -> i,j: i:=(i /\\ ~j))"
    assert repr(CS.CubeMap.identity(E)) == "CubeMap(() -> ())"


def test_corruption_report_names_the_map():
    report = Report()
    ST._run_check(report, "functor-laws/corrupt",
                  lambda: CS.validate_cset(corrupted_cset(), max_dim=2))
    assert not report.ok
    assert "CubeMap(i -> (): i:=0)" in report.entries[0].error


def test_functoriality_degeneracy_then_face():
    # restricting a square along a degeneracy then a face equals the direct
    # composite restriction
    iv = CS.IntervalCSet()
    square = dm_meet(dm_sym(IJ, "i"), dm_neg(dm_sym(IJ, "j")))
    degen = CS.CubeMap.make(IJ, I, {"i": dm_sym(I, "i"), "j": dm_sym(I, "i")})
    face = CS.CubeMap.make(I, E, {"i": dm_const(E, 1)})
    via = iv.restrict(face, iv.restrict(degen, square))
    direct = iv.restrict(degen.then(face), square)
    assert dm_eq(via, direct)


def test_cofibration_closed_under_restriction():
    iv = CS.IntervalCSet()
    cof = CS.cof_interval_eq(0)
    # (i=0) holds at the cell 0 over the empty context; restricting preserves it
    zero = dm_const(E, 0)
    assert cof.holds(E, zero)
    for context in CS.enumerate_contexts(2):
        for x in dm_all(context):
            if cof.holds(context, x):
                for dst in CS.enumerate_contexts(2):
                    for f in CS.enumerate_maps(context, dst)[:40]:
                        assert cof.holds(dst, iv.restrict(f, x))


def test_memoised_holds_agrees_with_the_face():
    iv = CS.IntervalCSet()
    prod = CS.ProductIntervalCSet(CS.DiscreteCSet(["pt"]))
    cases = [(CS.cof_false(), iv), (CS.cof_true(), iv), (CS.cof_interval_eq(0), iv),
             (CS.cof_interval_eq(1), iv), (CS.cof_endpoints(), prod)]
    for cof, base in cases:
        seen = set()
        for _ in range(2):  # the first call decides, the repeat reads the memo
            for context in CS.enumerate_contexts(2):
                for x in base.cells(context):
                    assert cof.holds(context, x) is cof.face(context, x).is_top
                    seen.add(cof.holds(context, x))
        if cof.name not in ("bot", "top"):
            assert seen == {False, True}, cof.name


def test_factor_through_a_clause():
    contexts = CS.enumerate_contexts(2)
    for src in contexts:
        names = sorted(src)
        clauses = [frozenset((n, e) for n, e in zip(names, ends) if e is not None)
                   for ends in itertools.product((None, 0, 1), repeat=len(names))]
        for dst in contexts:
            for m in CS.enumerate_maps(src, dst):
                for c in clauses:
                    remainder = CS._factor(m, c)
                    sent = all(m.assignment[n] is dm_const(dst, e) for n, e in c)
                    assert (remainder is not None) == sent, (m, c)
                    if sent:
                        assert CS.CubeMap.face(src, c).then(remainder) is m
