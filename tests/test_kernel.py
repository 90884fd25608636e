import pytest

from utk import cli
from utk import elab as E
from utk import kernel as K
from utk import parser as P
from utk import syntax as S
from utk.syntax import (
    Apply, Constant, Declaration, Fst, Id, J, Lambda, Pair, Pi, Refl, Sigma,
    Snd, Star, Unit, Var, universe,
)


def scope():
    return K.GlobalScope()


ID_FN = Lambda(Var(0))


def test_validate_examples():
    assert S.validate(Var(0), 1) is True
    assert S.validate(Var(0), 0) is False
    assert S.validate(Lambda(Var(0)), 0) is True


def test_infer_universe_hierarchy():
    assert K.infer(scope(), [], universe(0)) == universe(1)
    assert K.infer(scope(), [], universe(3)) == universe(4)
    with pytest.raises(K.UniverseOverflowError):
        K.infer(scope(), [], universe(S.MAX_LEVEL))


def test_infer_refl_formation():
    ctx = [("A", universe(0)), ("a", Var(0))]
    ty = K.infer(scope(), ctx, Refl(Var(0)))
    assert ty == Id(Var(1), Var(0), Var(0))


def test_infer_lambda_fails():
    with pytest.raises(K.NoInferableTypeError):
        K.infer(scope(), [], ID_FN)
    with pytest.raises(K.NoInferableTypeError):
        K.infer(scope(), [], Pair(Star(), Star()))


def test_check_identity():
    ctx = [("A", universe(0))]
    K.check(scope(), ctx, ID_FN, Pi(Var(0), Var(1)))


def test_check_universe_strictness():
    with pytest.raises(K.TypeMismatchError):
        K.check(scope(), [], universe(0), universe(0))
    # cumulativity: U0 : U2
    K.check(scope(), [], universe(0), universe(2))


def test_check_pair_against_sigma():
    ctx = [("A", universe(0)), ("a", Var(0))]
    K.check(scope(), ctx, Pair(Var(0), Star()), Sigma(Var(1), Unit()))


def test_j_computation_rule():
    # J(motive, base, a, a, refl a) normalizes to base[a]
    ctx = [("A", universe(0)), ("a", Var(0))]
    motive = Var(4)  # the ambient A, under three binders
    base = Var(1)  # the bound endpoint, under one binder: x -> x ... base : A
    term = J(motive, base, Var(0), Var(0), Refl(Var(0)))
    assert K.normalize(scope(), ctx, term) == Var(0)


def test_projection_rules():
    ctx = [("A", universe(0)), ("a", Var(0))]
    pair = Pair(Var(0), Star())
    annotated = S.Annot(pair, Sigma(Var(1), Unit()))
    assert K.normalize(scope(), ctx, Fst(annotated)) == Var(0)
    assert K.normalize(scope(), ctx, Snd(annotated)) == Star()


def test_eta_pi():
    # \x -> f x is convertible with f at a Pi type
    ctx = [("A", universe(0)), ("f", Pi(Var(0), Var(1)))]
    eta = Lambda(Apply(Var(1), Var(0)))
    assert K.convertible(scope(), ctx, eta, Var(0), Pi(Var(1), Var(2)))


def test_eta_unit():
    ctx = [("p", Unit())]
    assert K.convertible(scope(), ctx, Var(0), Star(), Unit())


def test_eta_sigma():
    ctx = [("A", universe(0)), ("p", Sigma(Var(0), Var(1)))]
    expanded = Pair(Fst(Var(0)), Snd(Var(0)))
    assert K.convertible(scope(), ctx, expanded, Var(0), Sigma(Var(1), Var(2)))


def test_distinct_universes_not_convertible():
    assert not K.convertible(scope(), [], universe(0), universe(1), universe(2))


def test_check_program_and_postulates():
    decls = [
        Declaration("X", universe(0), None),
        Declaration("idX", Pi(Constant("X"), Constant("X")), ID_FN),
        Declaration("x0", Constant("X"), None),
    ]
    sc = K.check_program(decls)
    assert "idX" in sc
    # defined constants unfold
    assert K.normalize(sc, [], Apply(Constant("idX"), Constant("x0"))) == Constant("x0")


def test_check_program_empty():
    sc = K.check_program([])
    assert sc.entries == {}


def test_check_program_failure_names_declaration():
    decls = [Declaration("bad", universe(0), universe(0))]
    with pytest.raises(K.DeclarationError) as e:
        K.check_program(decls)
    assert e.value.decl_name == "bad"


def test_normalize_idempotent_on_nested_redex():
    ctx = [("A", universe(0)), ("a", Var(0))]
    tm = Apply(S.Annot(Lambda(Var(0)), Pi(Var(1), Var(2))), Var(0))
    n1 = K.normalize(scope(), ctx, tm)
    assert n1 == Var(0)
    assert K.normalize(scope(), ctx, n1) == n1


def test_opaque_definition_blocks_reduction():
    decls = [
        Declaration("X", universe(0), None),
        Declaration("x0", Constant("X"), None),
        Declaration("f", Pi(Constant("X"), Constant("X")), ID_FN, opaque=True),
    ]
    sc = K.check_program(decls)
    nf = K.normalize(sc, [], Apply(Constant("f"), Constant("x0")))
    assert nf == Apply(Constant("f"), Constant("x0"))


# Call by need and glued δ.  Laziness must not skip a check, and a
# comparison by spines must fall back to unfolding.


def first_failure(source, opaque=frozenset()):
    """The declaration at which `source` stops checking, or None."""
    _, _, _, failure = E.elaborate_and_check(P.parse_program(source), opaque)
    return failure and failure.decl_name


def test_ignored_argument_is_still_checked():
    src = "def k : U1 -> U1 := \\x -> U0\ndef bad : U1 := k (U0 U0)\n"
    assert first_failure(src) == "bad"


H = "def h : U1 -> U1 -> U1 := \\x y -> x\n"


def test_spine_mismatch_falls_back_to_unfolding():
    src = H + "def ok : Id U1 (h U0 U0) (h U0 1) := refl (h U0 U0)\n"
    assert first_failure(src) is None


def test_different_unfoldings_are_rejected():
    heads = "def a : U1 := U0\ndef b : U1 := 1\ndef bad : Id U1 a b := refl a\n"
    assert first_failure(heads) == "bad"
    spines = H + "def bad : Id U1 (h U0 U0) (h 1 U0) := refl (h U0 U0)\n"
    assert first_failure(spines) == "bad"


def test_opaque_definition_does_not_unfold_in_conversion():
    src = ("postulate X : U0\npostulate x0 : X\ndef f : X -> X := \\x -> x\n"
           "def bad : Id X (f x0) x0 := refl x0\n")
    assert first_failure(src, opaque={"f"}) == "bad"
    assert first_failure(src) is None


def nest_source(depth):
    """`idf (idf (... U0))`, `depth` applications deep."""
    term = "U0"
    for _ in range(depth):
        term = f"idf ({term})"
    return f"def idf : U1 -> U1 := \\x -> x\ndef nest_chain : U1 := {term}\n"


def h_chain_source(depth, body="x"):
    """`h (h (... U0) U0) U0` against `h (h (... U0) 1) 1`: equal only once
    `h` unfolds, since h ignores its second argument."""
    lhs = rhs = "U0"
    for _ in range(depth):
        lhs, rhs = f"h ({lhs}) U0", f"h ({rhs}) 1"
    return (f"def h : U1 -> U1 -> U1 := \\x y -> {body}\n"
            f"def h_chain : Id U1 ({lhs}) ({rhs}) := refl ({lhs})\n")


def cumulative_chain_source(depth):
    """`f : 1 -> ... -> U0` used at `1 -> ... -> U1`: cumulativity through
    `depth` Pi codomains."""
    arrows = "1 -> " * depth
    return f"postulate f : {arrows}U0\ndef g : {arrows}U1 := f\n"


def counted(fn, calls):
    """`fn`, adding one to `calls[0]` per call."""
    def wrapper(*args):
        calls[0] += 1
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("source", [
    nest_source,
    h_chain_source,
    # h unfolds to a Pi type whose domain is the next pair of the chain: the
    # work here is conversion, not evaluation
    lambda depth: h_chain_source(depth, "x -> 1"),
    cumulative_chain_source,
], ids=["idf", "h", "h-pi", "cumulative"])
def test_checking_chains_is_linear(tmp_path, monkeypatch, source):
    """Evaluations plus conversions at most 2.5 times over when the chain
    doubles; counted by wrapping the module globals."""
    calls = [0]
    for name in ("evaluate", "convert", "convert_type"):
        monkeypatch.setattr(K, name, counted(getattr(K, name), calls))
    counts = []
    for depth in (500, 1000):
        path = tmp_path / f"chain-{depth}.tt"
        path.write_text(source(depth))
        calls[0] = 0
        assert cli.run_cli(["check", str(path), "--json"]) == 0
        counts.append(calls[0])
    assert counts[1] <= 2.5 * counts[0], counts


def test_spine_walks_skip_the_type_after_the_last_item(monkeypatch):
    """Readback and conversion of `f a a a` evaluate f's type only as far as
    its last domain: `P x y z`, the type after the last argument, is never
    evaluated.  Each makes four `evaluate` calls, two per inner Pi."""
    src = ("postulate A : U0\npostulate a : A\npostulate P : A -> A -> A -> U0\n"
           "postulate f : (x : A) -> (y : A) -> (z : A) -> P x y z\n")
    _, scope, _, failure = E.elaborate_and_check(P.parse_program(src))
    assert failure is None
    term = E.elab_term(P.parse_term("f a a a"), [], scope.entries.keys())
    v1, v2 = K.evaluate(scope, (), term), K.evaluate(scope, (), term)
    ty = K.evaluate(scope, (), E.elab_term(P.parse_term("P a a a"), [], scope.entries.keys()))
    calls = [0]
    monkeypatch.setattr(K, "evaluate", counted(K.evaluate, calls))
    assert K.quote(0, v1, ty, {}) == term
    assert calls[0] == 4
    calls[0] = 0
    assert v1 is not v2 and K.convert(0, v1, v2, ty)
    assert calls[0] == 4


# Each kernel function ends in a typed error for a value or term it does not
# handle; its message names the culprit.
FALL_THROUGHS = [
    (lambda: K.evaluate(scope(), (), S.Hole(3, 4)),
     S.MalformedTermError, "not a term: Hole(line=3, col=4)"),
    (lambda: K.do_apply(K.V_STAR, K.V_UNIT),
     K.KernelError, "cannot apply non-function value VStar()"),
    (lambda: K.do_fst(K.V_STAR), K.KernelError, "cannot project non-pair value VStar()"),
    (lambda: K.do_snd(K.V_STAR), K.KernelError, "cannot project non-pair value VStar()"),
    (lambda: K.quote(0, K.V_STAR, K.VId(K.V_UNIT, K.V_STAR, K.V_STAR), {}), K.KernelError,
     "quote: value VStar() does not fit type VId(type=VUnit(), lhs=VStar(), rhs=VStar())"),
    (lambda: K.quote_type(0, K.V_STAR, {}), K.KernelError, "quote_type: not a type value: VStar()"),
    (lambda: K.quote_neutral(1, K.VNeutral(K.VVar(0, K.V_UNIT), (K.SApp(K.V_STAR),)), {}),
     K.KernelError, "quote_neutral: ill-typed spine item SApp(arg=VStar()) on VVar(lvl=0, type=VUnit())"),
    (lambda: S.pretty_print(Pair(Star(), "star"), []),
     S.MalformedTermError, "not a term: 'star'"),
]


@pytest.mark.parametrize("call, error, message", FALL_THROUGHS,
                         ids=["evaluate", "do_apply", "do_fst", "do_snd", "quote",
                              "quote_type", "quote_neutral", "pretty_print"])
def test_fall_through_errors_stay_typed(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
