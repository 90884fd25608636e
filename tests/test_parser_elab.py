import pytest

from utk import elab as E
from utk import kernel as K
from utk import parser as P
from utk import syntax as S
from utk.syntax import (
    Apply, Constant, J, Lambda, Pair, Pi, Refl, Sigma, Star, Unit, Var, universe,
)


def elab_closed(src: str, constants=()):
    return E.elab_term(P.parse_term(src), [], set(constants))


def test_parse_def():
    decls = P.parse_program("def id : (A : U0) -> A -> A := \\A a -> a")
    assert len(decls) == 1
    assert decls[0].name == "id"
    assert decls[0].body == Lambda(Lambda(Var(0)))
    # the parser resolves bound names only; the rest stay constants
    assert P.parse_term("\\x -> x y") == Lambda(Apply(Var(0), Constant("y")))


def test_parse_postulate():
    decls = P.parse_program(
        "postulate ua : (A : U0) -> (B : U0) -> ((f : A -> B) * 1) -> Id U0 A B"
    )
    assert len(decls) == 1
    assert decls[0].body is None


def test_parse_error_location():
    with pytest.raises(P.ParseError) as e:
        P.parse_program("def x :=")
    assert e.value.line == 1
    with pytest.raises(P.ParseError, match=r"^1:9: universe level 5 out of range 0\.\.4$"):
        P.parse_program("def a : U5 := U0")
    # a non-lambda J motive is shifted under its binders, and a hole cannot be
    with pytest.raises(P.ParseError, match=r"^1:1: not a term: Hole\(line=1, col=6"):
        P.parse_term("J (f _) b x y p")


def test_parse_duplicate_name():
    with pytest.raises(P.DuplicateNameError):
        P.parse_program("def a : U1 := U0\ndef a : U1 := U0")


def test_elab_identity():
    decls = E.elaborate(P.parse_program("def id : (A : U0) -> A -> A := \\A a -> a"))
    assert decls[0].body == Lambda(Lambda(Var(0)))
    assert S.validate(decls[0].body, 0)


def test_elab_unbound():
    with pytest.raises(K.DeclarationError) as e:
        E.elaborate(P.parse_program("def x : U0 := foo"))
    assert isinstance(e.value.cause, E.UnboundIdentifierError)
    src = "def x : (A : U0) -> (a : A) -> U0 := \\A a -> J (\\u v q -> zz) (\\u -> A) a a (refl a)"
    with pytest.raises(K.DeclarationError) as e:
        E.elaborate(P.parse_program(src))
    assert str(e.value.cause) == "unbound identifier: zz"


def test_elab_rebinds_enclosing_binders():
    # outside the term `a` is Var(0) and `B` Var(1); a parsed binder shadows them
    binders = ["B", "a"]
    assert E.elab_term(P.parse_term("\\x -> x a"), binders, ()) == Lambda(Apply(Var(0), Var(1)))
    assert E.elab_term(P.parse_term("\\a -> a"), binders, ()) == Lambda(Var(0))
    assert E.elab_term(P.parse_term("(x : B) -> B"), binders, ()) == Pi(Var(1), Var(2))
    j = E.elab_term(P.parse_term("J (\\u v q -> B) (\\u -> a) a a (refl a)"), binders, ())
    assert j == J(Var(4), Var(1), Var(0), Var(0), Refl(Var(0)))
    # a non-lambda motive is the function applied to the motive's binders
    j = E.elab_term(P.parse_term("J (f B) (\\u -> a) a a (refl a)"), binders, {"f"})
    assert j.motive == Apply(Apply(Apply(Apply(Constant("f"), Var(4)), Var(2)), Var(1)), Var(0))


def test_elab_application_left_assoc():
    t = elab_closed("f a b", constants={"f", "a", "b"})
    assert t == Apply(Apply(Constant("f"), Constant("a")), Constant("b"))


def test_elab_arrow_right_assoc():
    t = elab_closed("U0 -> U0 -> U0")
    assert t == Pi(universe(0), Pi(universe(0), universe(0)))


def test_elab_sigma_and_pair():
    t = elab_closed("(_ : 1) * 1")
    assert t == Sigma(Unit(), Unit())
    t = elab_closed("(*, *)")
    assert t == Pair(Star(), Star())


def test_placeholder_solved_at_unit():
    src = "def u : (_ : 1) * 1 := (*, _)"
    decls = E.elaborate(P.parse_program(src))
    assert decls[0].body == Pair(Star(), Star())


def test_placeholder_unsolvable():
    with pytest.raises(K.DeclarationError) as e:
        E.elaborate(P.parse_program("def u : U0 -> U0 := \\A -> _"))
    assert isinstance(e.value.cause, K.UnsolvablePlaceholderError)


def test_j_motive_stripping():
    src = (
        "def tr : (A : U0) -> (P : A -> U0) -> (x : A) -> (y : A) -> Id A x y -> P x -> P y\n"
        "  := \\A P x y p -> J (\\u v q -> P u -> P v) (\\u px -> px) x y p"
    )
    decls, _, _, _ = E.elaborate_and_check(P.parse_program(src))
    body = decls[0].body
    j = body
    while isinstance(j, Lambda):
        j = j.body
    assert isinstance(j, S.J)
    assert isinstance(j.motive, Pi)  # stripped, not a Lambda


def test_roundtrip_print_parse():
    srcs = [
        "\\x -> x",
        "(_ : U0) -> U0",
        "(_ : 1) * 1",
        "\\A a -> a",
        "(x : U0) -> (P : x -> U0) -> (a : x) -> P a -> (b : x) * P b",
    ]
    for src in srcs:
        t = elab_closed(src)
        printed = S.pretty_print(t, [])
        t2 = elab_closed(printed)
        assert t2 == t, f"{src} -> {printed} -> {t2}"


def test_pretty_print_examples():
    assert S.pretty_print(Lambda(Var(0)), []) == "\\x -> x"
    assert S.pretty_print(Pi(universe(0), universe(0)), []) == "(_ : U0) -> U0"
    assert S.pretty_print(Sigma(Unit(), Unit()), []) == "(_ : 1) * 1"


def test_pretty_print_rejects_ill_scoped_terms():
    with pytest.raises(S.MalformedTermError):
        S.pretty_print(Var(0), [])
    with pytest.raises(S.MalformedTermError):
        S.pretty_print(Lambda(Var(2)), [])
    # an annotation's type is never printed, but is scope-checked
    with pytest.raises(S.MalformedTermError, match="^pretty_print: term is not well scoped$"):
        S.pretty_print(S.Annot(Star(), Var(0)), [])
    with pytest.raises(S.MalformedTermError, match=r"^not a term: Hole\(line=5, col=6"):
        S.pretty_print(Lambda(S.Hole(5, 6)), [])


def test_normal_forms_stay_well_scoped():
    # validate is preserved through evaluation and readback
    src = "def twice : (A : U0) -> (A -> A) -> A -> A := \\A f a -> f (f a)"
    decls, scope, _, _ = E.elaborate_and_check(P.parse_program(src))
    d = decls[0]
    nf = K.normalize(scope, [], S.Annot(d.body, d.type))
    assert S.validate(nf, 0)


def test_elaborate_outputs_validate():
    src = (
        "def const : (A : U0) -> (B : U0) -> A -> B -> A := \\A B a b -> a\n"
        "postulate X : U0\n"
        "def cx : X -> X -> X := const X X\n"
    )
    decls, _, _, _ = E.elaborate_and_check(P.parse_program(src))
    for d in decls:
        assert S.validate(d.type, 0)
        if d.body is not None:
            assert S.validate(d.body, 0)
    # accepted by a fresh check_program run
    K.check_program(decls)
