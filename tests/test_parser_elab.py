import hashlib

import pytest

from utk import corpuscheck as C
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


# The SHA-256 of each corpus file's (kind, text, line, col) token stream, and
# the exact messages of malformed inputs: positions computed from offsets on
# demand must equal those of a tokenizer that counts lines and columns as it
# goes, which produced these values.
CORPUS_TOKEN_DIGESTS = {
    "prelude.tt": "c699b00f9e809a99269c349a2bd5d3424df2cb95f0ac43757a71907fc877189b",
    "funext_equiv.tt": "7a068c59b5906ec89c50cce2e00163793ba25464be82c52060b07debaa15a09c",
    "univalence.tt": "0db5a4900a1308ab09f0a150fa9367da3f149bf8f998a0e0e539b72a2f61b67e",
    "decompose.tt": "17692a627aa43ccb9873c3e133c5db8428b1d6dc01fc17784d9ba170debe63e8",
    "axioms.tt": "3d3965fc386cf10ff471b1c767d88cf1ddd8bff55bfb5b802fa182de68a633e2",
    "ua.tt": "256c7fe7573aa54c6b6e708fe62cbefe311f1c007065cf99316bb3337ba949a6",
}


def test_corpus_token_streams_are_pinned():
    directory = C.corpus_dir()
    digests = {}
    for name in C._lines(directory / "MANIFEST"):
        source = (directory / name).read_text()
        h = hashlib.sha256()
        for kind, text, offset in P.tokenize(source):
            h.update(repr((kind, text, *P.position(source, offset))).encode())
        digests[name] = h.hexdigest()
    assert digests == CORPUS_TOKEN_DIGESTS


MALFORMED = [
    # a comment line
    (P.parse_program, "-- a comment line\n  def a : U1 := U0 )", "2:20: expected 'def' or 'postulate'"),
    (P.parse_term, "-- c\n\tJ (f\r\n  _) b x y p", "2:2: not a term: Hole(line=3, col=3, solution=None)"),
    # a tab counts one column
    (P.parse_program, "def a :\tU1 :=\t\t$", "1:16: unexpected character '$'"),
    (P.parse_program, "def a : U1 := U0\r\n\r\n\tdef", "3:5: expected 'ident', found ''"),
    # `\r\n`: the `\r` ends no line, and a lone `\r` counts one column
    (P.parse_program, "def a : U1 := U0\r\ndef b : U1 := \r\n  %", "3:3: unexpected character '%'"),
    (P.parse_program, "def a : U1 :=\r  %", "1:17: unexpected character '%'"),
    # end of input, after whitespace or a comment
    (P.parse_program, "def a : U1 :=\n  ", "2:3: unexpected token ''"),
    (P.parse_program, "def a : U1 :=  -- c\n\n \t", "3:3: unexpected token ''"),
    (P.parse_term, "(U0", "1:4: expected ')', found ''"),
    (P.parse_term, "(U0 -- c", "1:9: expected ')', found ''"),
    (P.parse_term, "\\x -> x )", "1:9: trailing input ')'"),
    # an unexpected character
    (P.parse_program, "def a : U1 := U0 ?", "1:18: unexpected character '?'"),
    (P.parse_program, "def a : U1 := 12", "1:15: unexpected character '1'"),
    # positions of other errors
    (P.parse_program, "def a : U1 := U9", "1:15: universe level 9 out of range 0..4"),
    (P.parse_program, "def a : U1 := U0\n\n def a : U1 := U0", "3:6: duplicate name 'a'"),
    (P.parse_program, "def a : U1 := \\ -> U0", "1:17: expected at least one binder after '\\'"),
    (P.parse_program, "def a : U1 := (x : U0) U0", "1:24: expected '->' or '*' after a binder"),
    # a `_` that nothing solves
    (P.parse_term, "J (f _) b x y p", "1:1: not a term: Hole(line=1, col=6, solution=None)"),
    (lambda src: E.elaborate(P.parse_program(src)), "def u : U0 -> U0 := \\A -> _",
     "u: placeholder not determined by its expected type U0"),
    (lambda src: E.elaborate(P.parse_program(src)), "def u : U1 := _ U0",
     "u: placeholder in a position with no expected type"),
]


@pytest.mark.parametrize("parse, source, message", MALFORMED)
def test_malformed_input_messages(parse, source, message):
    with pytest.raises((P.ParseError, K.DeclarationError)) as e:
        parse(source)
    assert str(e.value) == message


def test_trailing_comment_and_whitespace_end_cleanly():
    assert P.tokenize("U0 -- c")[-1] == ("eof", "", 7)
    assert len(P.parse_program("def a : U1 := U0 -- c\n\n  \t")) == 1


def test_one_string_per_identifier():
    decls = P.parse_program("postulate Alpha : U0\ndef f : Alpha -> Alpha := \\x -> x")
    ty = decls[1].type
    assert ty.domain.name is ty.codomain.name is decls[0].name
    assert P.parse_term("Alpha").name is decls[0].name


HOLED_AND_HOLE_FREE = "def u : (_ : 1) * 1 := (*, _)\ndef v : (A : U0) -> A -> A := \\A a -> a"


def zonked_terms(monkeypatch) -> list:
    """The terms `_zonk` is called with from now on."""
    calls, zonk = [], E._zonk

    def spy(term):
        calls.append(term)
        return zonk(term)
    monkeypatch.setattr(E, "_zonk", spy)
    return calls


def has_hole(term) -> bool:
    return isinstance(term, S.Hole) or any(
        has_hole(getattr(term, name)) for name, _ in S.SUBTERMS.get(type(term), ()))


def test_a_hole_free_declaration_is_not_zonked(monkeypatch):
    calls = zonked_terms(monkeypatch)
    parsed = P.parse_program(HOLED_AND_HOLE_FREE)
    decls = E.elaborate(parsed)
    assert decls[1].type is parsed[1].type and decls[1].body is parsed[1].body
    assert calls and not any(t is parsed[1].type or t is parsed[1].body for t in calls)


def test_a_solved_hole_is_zonked_away(monkeypatch):
    calls = zonked_terms(monkeypatch)
    parsed = P.parse_program(HOLED_AND_HOLE_FREE)
    decls = E.elaborate(parsed)
    assert has_hole(parsed[0].body) and not has_hole(decls[0].body)
    assert decls[0].body == Pair(Star(), Star())
    assert {id(t) for t in calls} >= {id(parsed[0].type), id(parsed[0].body)}
    assert not any(t is parsed[1].body for t in calls)
