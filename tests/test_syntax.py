"""The subterm table that every structural walk of core terms reads, and
the size of core terms."""

import dataclasses
import gc
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
import typing
from pathlib import Path

import pytest

import utk
from utk import corpuscheck as C
from utk import elab as E
from utk import kernel as K
from utk import parser as P
from utk import syntax as S
from utk.syntax import Apply, Constant, Hole, Lambda, Pair, Pi, Var

BINDERS = {
    (S.Pi, "codomain"): 1, (S.Lambda, "body"): 1, (S.Sigma, "second"): 1,
    (S.J, "motive"): 3, (S.J, "base"): 1,
}


def test_table_lists_exactly_the_term_fields_of_each_former():
    formers = typing.get_args(S.Term)
    assert set(S.SUBTERMS) | set(S.LEAVES) == set(formers)
    for cls in formers:
        hints = typing.get_type_hints(cls, vars(S))
        term_fields = tuple(f.name for f in dataclasses.fields(cls)
                            if hints[f.name] == S.Term)
        if cls in S.LEAVES:
            assert cls not in S.SUBTERMS and term_fields == (), cls
            continue
        assert tuple(name for name, _ in S.SUBTERMS[cls]) == term_fields, cls
        for name, binds in S.SUBTERMS[cls]:
            assert binds == BINDERS.get((cls, name), 0), (cls, name)


def test_zonk_returns_a_hole_free_term_itself():
    term = Pi(Apply(Constant("c"), Var(0)), Lambda(Pair(Var(0), Var(1))))
    assert E._zonk(term) is term


def test_zonk_shares_the_hole_free_siblings_of_a_solved_hole():
    left = Apply(Constant("f"), Var(0))
    zonked = E._zonk(Lambda(Pair(left, Hole(1, 1, S.STAR))))
    assert zonked == Lambda(Pair(left, S.STAR))
    assert zonked.body.fst is left


DEEP_WALKS = textwrap.dedent("""
    from utk import elab as E, kernel as K, syntax as S

    n = 20000
    term = S.Hole(solution=S.Var(0))
    for _ in range(n):
        term = S.Apply(S.Constant("f"), term)
    zonked = E._zonk(term)
    assert S.validate(zonked, 1) and not S.validate(zonked, 0)
    assert E._zonk(zonked) is zonked
    shifted = S.shift(zonked, 1)
    text = S.pretty_print(shifted, ["a", "b"])
    assert text == "f (" * (n - 1) + "f a" + ")" * (n - 1)

    def redexes(n, leaf):  # ((\\x -> x) : U1 -> U1) applied n times to leaf
        term = leaf
        for _ in range(n):
            term = S.Apply(S.Annot(S.Lambda(S.Var(0)), S.Pi(S.universe(1), S.universe(1))), term)
        return term

    n = 60000
    chain = redexes(n, S.universe(0))
    K.check(K.GlobalScope(), [], chain, S.universe(1))
    assert K.normalize(K.GlobalScope(), [], chain) == S.universe(0)
    same, other = redexes(n, S.universe(0)), redexes(n, S.UNIT)
    assert chain == same and not chain != same
    assert chain != other and not chain == other
    print("ok")
""")


def test_walks_of_a_deep_term_run_on_the_main_thread():
    """No walk may nest C frames per level: with the recursion limit that
    importing utk sets, 20000- and 60000-deep chains must not overflow the
    main thread's stack."""
    src = str(Path(utk.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", DEEP_WALKS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"


def test_printing_a_long_pi_chain_is_fast():
    """The printer costs a constant per node: no walk of the rest of the
    chain at each binder, and no copy of the names in scope."""
    n = 8000
    body = Var(n)
    for _ in range(n):
        body = Pi(S.UNIT, body)
    t0 = time.perf_counter()
    text = S.pretty_print(Lambda(body), [])
    elapsed = time.perf_counter() - t0
    assert text == "\\x -> " + "(_ : 1) -> " * n + "x"
    assert elapsed < 2.0, elapsed


def test_var_and_universe_are_shared_per_index_and_level():
    assert S.var(3) is S.var(3) and S.var(3) == Var(3) and S.var(3) is not S.var(4)
    levels = [S.universe(i) for i in range(S.MAX_LEVEL + 1)]
    assert [u.level.index for u in levels] == list(range(S.MAX_LEVEL + 1))
    assert all(S.universe(i) is u for i, u in enumerate(levels))
    for i in (-1, S.MAX_LEVEL + 1):
        with pytest.raises(S.MalformedTermError,
                           match=re.escape(f"universe level {i} out of range 0..4")):
            S.universe(i)


def _unshared_leaves(term) -> list:
    """Each `Var` and `Universe` in `term` that is not the shared one."""
    unshared, stack = [], [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var) and t is not S.var(t.ix) or (
                isinstance(t, S.Universe) and t is not S.universe(t.level.index)):
            unshared.append(t)
        elif isinstance(t, Hole) and t.solution is not None:
            stack.append(t.solution)
        else:
            stack.extend(getattr(t, name) for name, _ in S.SUBTERMS.get(type(t), ()))
    return unshared


def test_parsed_and_checked_terms_use_the_shared_leaves(checked_corpus):
    corpus = C.corpus_dir()
    parsed = P.parse_files(corpus / name for name in C._lines(corpus / "MANIFEST"))
    for decl in (*parsed, *checked_corpus[0]):
        for term in (decl.type, decl.body):
            assert term is None or _unshared_leaves(term) == [], decl.name
    term = E.elab_term(P.parse_term("\\x -> f x y"), ["y"], {"f"})
    shifted = S.shift(term, 2)
    assert term.body.arg is S.var(1) and shifted.body.arg is S.var(3)


def test_a_large_normal_form_is_small_and_shares_its_leaves(checked_corpus):
    """`conj1_to_conj2`'s normal form is 28,248 nodes as a tree and 921
    distinct nodes, and retains about 46.5 KB (763 KB when only the leaves
    were shared); its size is measured on a second normalization, once the
    constants it unfolds are forced."""
    core, scope, _ = checked_corpus
    decl = next(d for d in core if d.name == "conj1_to_conj2")
    term = S.Annot(decl.body, decl.type)
    K.normalize(scope, [], term)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nf = K.normalize(scope, [], term)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.15e6, retained
    assert _unshared_leaves(nf) == []


def _nodes(term) -> dict:
    """The distinct nodes of `term`, by id."""
    nodes, stack = {}, [term]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(getattr(t, name) for name, _ in S.SUBTERMS.get(type(t), ()))
    return nodes


def _repeated_subterms(term) -> list:
    """Each node of `term` that is a second distinct object equal, hints
    included, to another node.  Nodes are numbered bottom-up by the first
    node of their kind, so no key is deeper than one level."""
    first, canon, repeated = {}, {}, []  # key -> first node; id -> its first node
    stack = [(term, False)]
    while stack:
        t, children_done = stack.pop()
        if id(t) in canon:
            continue
        subs = [name for name, _ in S.SUBTERMS.get(type(t), ())]
        if not children_done:
            stack.append((t, True))
            stack.extend((getattr(t, name), False) for name in subs)
            continue
        key = (type(t), *(id(canon[id(getattr(t, f.name))]) if f.name in subs
                          else getattr(t, f.name) for f in dataclasses.fields(t)))
        canon[id(t)] = first.setdefault(key, t)
        if canon[id(t)] is not t:
            repeated.append(t)
    return repeated


def test_every_corpus_normal_form_shares_its_repeated_subterms(corpus_normal_forms):
    for name, nf, _, _ in corpus_normal_forms:
        assert _repeated_subterms(nf) == [], name
    x = S.var(0)
    assert len(_repeated_subterms(Apply(Lambda(x, "a"), Lambda(x, "a")))) == 1
    assert _repeated_subterms(Apply(Lambda(x, "a"), Lambda(x, "b"))) == []


def test_subterms_that_differ_in_a_hint_stay_apart():
    source = textwrap.dedent("""
        def A : U1 := (a : U0) -> U0
        def B : U1 := (b : U0) -> U0
        def f : (p : A) * B := (\\x -> x, \\y -> y)
    """)
    core, scope, _, failure = E.elaborate_and_check(P.parse_program(source))
    assert failure is None
    nf = K.normalize(scope, [], S.Annot(core[-1].body, core[-1].type))
    assert S.pretty_print(nf, []) == "(\\a -> a, \\b -> b)"
    assert nf.fst == nf.snd and nf.fst is not nf.snd


def test_each_normalization_builds_its_own_nodes(checked_corpus):
    core, scope, _ = checked_corpus
    decl = next(d for d in core if d.name == "conj1_to_conj2")
    term = S.Annot(decl.body, decl.type)
    first, second = K.normalize(scope, [], term), K.normalize(scope, [], term)
    assert first == second
    inner = [t for t in _nodes(first).values() if not isinstance(t, S.LEAVES)]
    assert len(inner) > 800
    theirs = _nodes(second)
    assert not any(id(t) in theirs for t in inner)
