import itertools
import random

import pytest

from utk.model import interval as IV
from utk.model.cset import CubeMap
from utk.model.interval import (
    GEN, ctx, dm_all, dm_basic, dm_const, dm_eq, dm_is_const, dm_join,
    dm_meet, dm_neg, dm_subst, dm_sym, face_and, face_bot, face_eq_sym,
    face_forall, face_of_eq, face_or, face_subst_clause, face_top, face_weaken,
)

I = ctx("i")
IJ = ctx("i", "j")


# ---------------------------------------------------------------------------
# Independent oracle for the free De Morgan algebra on one generator: the
# free bounded distributive lattice on the literals {i, ~i}, in antichain
# normal form.  Elements are antichains of clauses; a clause is a frozenset
# of literals ("i" or "~i").  This shares no code with the DM4 tables.

def _norm(clauses):
    clauses = set(clauses)
    out = set()
    for c in clauses:
        if any(d < c for d in clauses):
            continue  # absorbed
        out.add(c)
    return frozenset(out)


DNF_BOT = frozenset()
DNF_TOP = frozenset({frozenset()})


def dnf_join(a, b):
    return _norm(a | b)


def dnf_meet(a, b):
    return _norm(frozenset(c | d for c in a for d in b))


def dnf_neg(a):
    # De Morgan duality; negation swaps the literals
    flip = {"i": "~i", "~i": "i"}
    out = DNF_TOP
    for clause in a:
        out = dnf_meet(out, _norm(frozenset(frozenset({flip[l]}) for l in clause)))
    if not a:
        return DNF_TOP
    return out


def dnf_closure():
    gen = frozenset({frozenset({"i"})})
    elems = {DNF_BOT, DNF_TOP, gen}
    changed = True
    while changed:
        changed = False
        current = list(elems)
        for x in current:
            if dnf_neg(x) not in elems:
                elems.add(dnf_neg(x))
                changed = True
        for x, y in itertools.product(current, current):
            for z in (dnf_meet(x, y), dnf_join(x, y)):
                if z not in elems:
                    elems.add(z)
                    changed = True
    return elems


def test_dm4_oracle_cross_check():
    # the oracle is computed first and pinned: the free De Morgan algebra on
    # one generator has exactly six elements
    oracle = dnf_closure()
    assert len(oracle) == 6
    assert len(dm_all(I)) == 6


def test_one_generator_elements_are_the_expected_ones():
    i = dm_sym(I, "i")
    expected = [
        dm_const(I, 0), dm_const(I, 1), i, dm_neg(i),
        dm_meet(i, dm_neg(i)), dm_join(i, dm_neg(i)),
    ]
    tables = {e.table for e in expected}
    assert len(tables) == 6
    assert tables == {e.table for e in dm_all(I)}


# ---------------------------------------------------------------------------
# dm_eq examples

def test_lattice_unit_law():
    i = dm_sym(I, "i")
    assert dm_eq(dm_meet(i, dm_const(I, 1)), i)


def test_de_morgan_law():
    i, j = dm_sym(IJ, "i"), dm_sym(IJ, "j")
    assert dm_eq(dm_neg(dm_meet(i, j)), dm_join(dm_neg(i), dm_neg(j)))


def test_excluded_middle_fails():
    # oracle: the valuation i -> a gives a != 1
    i = dm_sym(I, "i")
    lhs = dm_join(i, dm_neg(i))
    one = dm_const(I, 1)
    assert not dm_eq(lhs, one)
    # the witnessing valuation, read off the packed table's 2-bit digit
    idx = list(itertools.product((0, 1, 2, 3), repeat=1)).index((1,))
    assert (lhs.table >> 2 * idx) & 3 == 1 and (one.table >> 2 * idx) & 3 == 3


def test_context_mismatch_raises():
    with pytest.raises(IV.ContextMismatchError):
        dm_eq(dm_sym(I, "i"), dm_sym(IJ, "i"))


def test_substitution():
    i = dm_sym(IJ, "i")
    j = dm_sym(IJ, "j")
    e = dm_meet(i, dm_neg(j))
    sub = dm_subst(e, {"i": dm_const(I, 1), "j": dm_sym(I, "i")}, I)
    assert dm_eq(sub, dm_neg(dm_sym(I, "i")))


def test_connection_squares():
    # i /\ j restricted along j := 1 is i; along j := 0 is 0
    i, j = dm_sym(IJ, "i"), dm_sym(IJ, "j")
    conn = dm_meet(i, j)
    at1 = dm_subst(conn, {"i": dm_sym(I, "i"), "j": dm_const(I, 1)}, I)
    at0 = dm_subst(conn, {"i": dm_sym(I, "i"), "j": dm_const(I, 0)}, I)
    assert dm_eq(at1, dm_sym(I, "i"))
    assert dm_is_const(at0, 0)


def test_dm_basic_subset_of_all():
    alltab = {e.table for e in dm_all(IJ)}
    assert {e.table for e in dm_basic(IJ)} <= alltab
    assert len(dm_all(IJ)) == 168  # free De Morgan algebra on two generators


# ---------------------------------------------------------------------------
# Face lattice

def test_face_clauses_and_entailment():
    f = face_or(face_eq_sym(IJ, "i", 0), face_eq_sym(IJ, "j", 1))
    cl = f.clauses()
    assert frozenset({("i", 0)}) in cl and frozenset({("j", 1)}) in cl
    assert face_eq_sym(IJ, "i", 0).entails(f)
    assert not f.entails(face_eq_sym(IJ, "i", 0))


@pytest.mark.parametrize("n", range(3))
def test_clause_entails_a_face_iff_substituting_it_gives_top(n):
    # over every face of up to two symbols, bitmasks included that no formula
    # builds, and every clause of the context
    context = ctx(*"ij"[:n])
    names = sorted(context)
    clauses = [frozenset((m, e) for m, e in zip(names, ends) if e is not None)
               for ends in itertools.product((None, 0, 1), repeat=n)]
    c = IV._context(context)
    for sat in range(c.face_full + 1):
        a = c.face(sat)
        for clause in clauses:
            as_face = face_top(context)
            for m, e in clause:
                as_face = face_and(as_face, face_eq_sym(context, m, e))
            assert as_face.entails(a) == face_subst_clause(a, clause).is_top, (a, clause)


def test_face_meet_of_opposites_is_bot():
    f = face_and(face_eq_sym(I, "i", 0), face_eq_sym(I, "i", 1))
    assert f.is_bot


def test_face_endpoints_not_top():
    f = face_or(face_eq_sym(I, "i", 0), face_eq_sym(I, "i", 1))
    assert not f.is_top and not f.is_bot


def test_forall_examples():
    # forall i. (i=0) is absurd; forall i. ((i=0) \/ (i=1)) is absurd;
    # forall i. T is trivial
    f0 = face_eq_sym(I, "i", 0)
    assert face_forall(f0, "i").is_bot
    both = face_or(f0, face_eq_sym(I, "i", 1))
    assert face_forall(both, "i").is_bot
    assert face_forall(face_top(I), "i").is_top
    # forall i. ((j=0) \/ (i=0)) = (j=0)
    mixed = face_or(face_eq_sym(IJ, "j", 0), face_eq_sym(IJ, "i", 0))
    assert face_forall(mixed, "i").sat == face_eq_sym(I.union({"j"}) - {"i"}, "j", 0).sat


def test_face_of_eq_translation():
    i, j = dm_sym(IJ, "i"), dm_sym(IJ, "j")
    # (i /\ j = 1) is (i=1) /\ (j=1)
    f = face_of_eq(dm_meet(i, j), 1)
    assert f.sat == face_and(face_eq_sym(IJ, "i", 1), face_eq_sym(IJ, "j", 1)).sat
    # (~i = 0) is (i=1)
    assert face_of_eq(dm_neg(i), 0).sat == face_eq_sym(IJ, "i", 1).sat
    # (0 = 0) is trivially true
    assert face_of_eq(dm_const(IJ, 0), 0).is_top


def test_face_of_eq_respects_dm_equality():
    # the translation factors through De Morgan equality on sampled pairs
    i, j = dm_sym(IJ, "i"), dm_sym(IJ, "j")
    pairs = [
        (i, dm_meet(i, dm_join(i, j))),  # absorption
        (dm_meet(i, dm_const(IJ, 1)), i),
        (dm_neg(dm_neg(i)), i),
    ]
    for x, y in pairs:
        assert dm_eq(x, y)
        for e in (0, 1):
            assert face_of_eq(x, e).sat == face_of_eq(y, e).sat


def test_face_subst_clause():
    f = face_or(face_eq_sym(IJ, "i", 0), face_eq_sym(IJ, "j", 1))
    g = face_subst_clause(f, frozenset({("i", 0)}))
    assert g.is_top
    h = face_subst_clause(f, frozenset({("i", 1)}))
    assert h.sat == face_eq_sym(ctx("j"), "j", 1).sat


# ---------------------------------------------------------------------------
# The table algebra against the expression-tree semantics it replaces.  A
# tree is ("const", e), ("sym", n), ("neg", t), ("meet", a, b) or
# ("join", a, b); the references below work on trees and share no code with
# the tables beyond the constructors.

def random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.2 or not names:
            return ("const", rng.randint(0, 1))
        return ("sym", rng.choice(names))
    op = rng.choice(("neg", "meet", "join"))
    if op == "neg":
        return ("neg", random_tree(rng, names, depth - 1))
    return (op, random_tree(rng, names, depth - 1), random_tree(rng, names, depth - 1))


def tree_dm(tree, context):
    match tree:
        case ("const", e):
            return dm_const(context, e)
        case ("sym", n):
            return dm_sym(context, n)
        case ("neg", t):
            return dm_neg(tree_dm(t, context))
        case ("meet", a, b):
            return dm_meet(tree_dm(a, context), tree_dm(b, context))
        case ("join", a, b):
            return dm_join(tree_dm(a, context), tree_dm(b, context))


def tree_face(tree, e, context):
    """The textbook clause recursion for the face formula (tree = e)."""
    match tree:
        case ("const", c):
            return face_top(context) if c == e else face_bot(context)
        case ("sym", n):
            return face_eq_sym(context, n, e)
        case ("neg", t):
            return tree_face(t, 1 - e, context)
        case (op, a, b):
            both = face_and if (op == "meet") == (e == 1) else face_or
            return both(tree_face(a, e, context), tree_face(b, e, context))


def tree_subst(tree, assign):
    match tree:
        case ("const", _):
            return tree
        case ("sym", n):
            return assign[n]
        case ("neg", t):
            return ("neg", tree_subst(t, assign))
        case (op, a, b):
            return (op, tree_subst(a, assign), tree_subst(b, assign))


CONTEXTS = [ctx(*"ijk"[:n]) for n in (1, 2, 3)]


@pytest.mark.parametrize("context", CONTEXTS, ids=len)
def test_face_of_eq_matches_clause_recursion(context):
    rng = random.Random(len(context))
    names = sorted(context)
    for _ in range(300):
        tree = random_tree(rng, names, 4)
        for e in (0, 1):
            assert face_of_eq(tree_dm(tree, context), e) == tree_face(tree, e, context), tree


@pytest.mark.parametrize("context", CONTEXTS, ids=len)
def test_dm_subst_matches_tree_substitution(context):
    rng = random.Random(10 + len(context))
    for _ in range(300):
        target = ctx(*rng.sample("ijkl", rng.randint(0, 3)))
        tree = random_tree(rng, sorted(context), 4)
        assign = {n: random_tree(rng, sorted(target), 2) for n in context}
        got = dm_subst(tree_dm(tree, context),
                       {n: tree_dm(t, target) for n, t in assign.items()}, target)
        assert got == tree_dm(tree_subst(tree, assign), target), (tree, assign)


def test_dm_show_is_the_normal_form():
    assert len({IV.dm_show(x) for x in dm_all(IJ)}) == len(dm_all(IJ))
    i, j = dm_sym(IJ, "i"), dm_sym(IJ, "j")
    assert IV.dm_show(dm_meet(i, dm_neg(j))) == "(i /\\ ~j)"
    assert IV.dm_show(dm_const(IJ, 0)) == "0"
    assert IV.dm_show(dm_const(IJ, 1)) == "1"
    assert IV.dm_show(dm_join(i, dm_meet(i, j))) == "i"
    assert IV.dm_show(dm_neg(dm_meet(i, j))) == "(~i \\/ ~j)"
    assert repr(dm_join(dm_meet(i, dm_neg(i)), j)) == "DM((j \\/ (i /\\ ~i)))"


# ---------------------------------------------------------------------------
# The packed encodings against references written out here.  An element
# packs its DM4 value at the k-th valuation (itertools.product order) into
# bits 2k and 2k + 1; a face sets bit k for the k-th satisfying {0, 1,
# generic} valuation in the same order.  DM4 is the diamond 0 < 1, 2 < 3
# with 1 and 2 the fixed points of the involution.

MEET4 = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
JOIN4 = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
NEG4 = (3, 1, 2, 0)


def dm4_digits(x):
    size = 4 ** len(x.ctx)
    assert 0 <= x.table < 4 ** size  # no bits beyond the last valuation
    return [(x.table >> 2 * k) & 3 for k in range(size)]


@pytest.mark.parametrize("context", CONTEXTS, ids=len)
def test_packed_algebra_matches_dm4_tables(context):
    rng = random.Random(20 + len(context))
    names = sorted(context)
    for k, name in enumerate(names):
        assert dm4_digits(dm_sym(context, name)) == [
            v[k] for v in itertools.product(range(4), repeat=len(names))]
    for _ in range(200):
        x = tree_dm(random_tree(rng, names, 3), context)
        y = tree_dm(random_tree(rng, names, 3), context)
        dx, dy = dm4_digits(x), dm4_digits(y)
        assert dm4_digits(dm_meet(x, y)) == [MEET4[u][v] for u, v in zip(dx, dy)]
        assert dm4_digits(dm_join(x, y)) == [JOIN4[u][v] for u, v in zip(dx, dy)]
        assert dm4_digits(dm_neg(x)) == [NEG4[u] for u in dx]


def face_valuations(names):
    return list(itertools.product((0, 1, GEN), repeat=len(names)))


def face_set(a):
    """The satisfying valuations a face's bitmask stands for."""
    return frozenset(v for k, v in enumerate(face_valuations(sorted(a.ctx)))
                     if a.sat >> k & 1)


def random_face(rng, context, depth):
    """A random face built with the face operations, with the set of
    valuations that satisfy it, computed on sets."""
    names = sorted(context)
    every = frozenset(face_valuations(names))
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(3 if names else 2)
        if pick == 0:
            return face_top(context), every
        if pick == 1:
            return face_bot(context), frozenset()
        k, e = rng.randrange(len(names)), rng.randint(0, 1)
        return (face_eq_sym(context, names[k], e),
                frozenset(v for v in every if v[k] == e))
    (a, sa), (b, sb) = (random_face(rng, context, depth - 1) for _ in range(2))
    if rng.random() < 0.5:
        return face_and(a, b), sa & sb
    return face_or(a, b), sa | sb


def ref_forall(sat, names, name):
    k = names.index(name)
    return frozenset(v for v in face_valuations(names[:k] + names[k + 1:])
                     if all(v[:k] + (inst,) + v[k:] in sat for inst in (0, 1, GEN)))


def ref_weaken(sat, names, target):
    tnames = sorted(target)
    return frozenset(w for w in face_valuations(tnames)
                     if tuple(w[tnames.index(n)] for n in names) in sat)


def ref_subst_clause(sat, names, clause):
    fixed = dict(clause)
    rest = [n for n in names if n not in fixed]
    return frozenset(v for v in face_valuations(rest)
                     if tuple({**dict(zip(rest, v)), **fixed}[n] for n in names) in sat)


def ref_clauses(sat, names):
    # minimal valuations, a generic coordinate being below both endpoints
    return {frozenset((n, e) for n, e in zip(names, v) if e != GEN)
            for v in sat
            if not any(w != v and all(wi in (GEN, vi) for wi, vi in zip(w, v))
                       for w in sat)}


@pytest.mark.parametrize("n", range(4))
def test_face_bitmasks_match_valuation_sets(n):
    context = ctx(*"ijk"[:n])
    names = sorted(context)
    every = frozenset(face_valuations(names))
    rng = random.Random(30 + n)
    for _ in range(150):
        (a, sa), (b, sb) = (random_face(rng, context, 3) for _ in range(2))
        assert face_set(a) == sa
        assert face_set(face_and(a, b)) == sa & sb
        assert face_set(face_or(a, b)) == sa | sb
        assert a.entails(b) == (sa <= sb)
        assert a.is_top == (sa == every) and a.is_bot == (not sa)
        assert set(a.clauses()) == ref_clauses(sa, names)
        assert list(a.clauses()) == sorted(a.clauses(), key=sorted)
        for name in names:
            assert face_set(face_forall(a, name)) == ref_forall(sa, names, name)
        for extra in ("l", "lm"):
            target = context | set(extra)
            assert face_set(face_weaken(a, target)) == ref_weaken(sa, names, target)
        clause = frozenset((m, rng.randint(0, 1)) for m in names if rng.random() < 0.5)
        assert face_set(face_subst_clause(a, clause)) == ref_subst_clause(sa, names, clause)


def test_equal_values_are_the_same_object():
    i, j = dm_sym(IJ, "i"), dm_sym(IJ, "j")
    assert dm_meet(i, dm_join(i, j)) is i
    assert dm_neg(dm_neg(j)) is j
    assert dm_sym(ctx("j", "i"), "i") is i  # an equal context built anew
    f = face_or(face_eq_sym(IJ, "i", 0), face_eq_sym(IJ, "j", 1))
    assert face_or(face_eq_sym(IJ, "j", 1), face_eq_sym(IJ, "i", 0)) is f
    m = CubeMap.make(IJ, I, {"i": dm_sym(I, "i"), "j": dm_const(I, 0)})
    assert CubeMap.make(ctx("j", "i"), ctx("i"),
                        {"j": dm_const(ctx("i"), 0), "i": dm_sym(ctx("i"), "i")}) is m
    assert CubeMap.face(IJ, frozenset({("j", 0)})) is m
