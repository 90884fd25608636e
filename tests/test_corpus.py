"""Corpus-level checks: the shipped library checks, the theorem map is
complete, deleting axioms breaks downstream theorems, and the kernel
invariants hold on every corpus declaration."""

import hashlib
import shutil

import pytest

from utk import corpuscheck as C
from utk import elab as E
from utk import kernel as K
from utk import parser as P
from utk import syntax as S


def test_corpus_checks(checked_corpus):
    core, _, report = checked_corpus
    assert report.ok, report.summary()
    assert len(core) > 100


def test_theorem_map_verifies(checked_corpus):
    _, scope, _ = checked_corpus
    result = C.verify_corpus(scope, C.load_theorem_map())
    assert result.ok, result.summary()


def test_theorem_map_missing_identifier(checked_corpus):
    _, scope, _ = checked_corpus
    result = C.verify_corpus(scope, [C.TheoremEntry("no_such_thing", "nowhere", "U1")])
    assert not result.ok
    assert "missing theorem" in result.entries[0].error


def test_theorem_map_shape_mismatch(checked_corpus):
    _, scope, _ = checked_corpus
    entries = [C.TheoremEntry("coerce_refl", "anchor", "(A : U1) -> A -> A")]
    result = C.verify_corpus(scope, entries)
    assert not result.ok
    assert "shape mismatch" in result.entries[0].error


AXIOMS = ["ax_unit", "ax_flip", "ax_contract", "ax_unit_beta", "ax_flip_beta"]


def _mutated_corpus(tmp_path, mutate):
    target = tmp_path / "corpus"
    shutil.copytree(C.corpus_dir(), target)
    mutate(target)
    return target


@pytest.mark.parametrize("axiom", AXIOMS)
def test_mutation_deleting_axiom_breaks_downstream(tmp_path, axiom):
    def mutate(target):
        path = target / "axioms.tt"
        text = path.read_text().splitlines()
        out, skipping = [], False
        for line in text:
            if line.startswith(("def ", "postulate ")):
                name = line.split()[1]
                skipping = name == axiom
            if not skipping:
                out.append(line)
        path.write_text("\n".join(out))

    target = _mutated_corpus(tmp_path, mutate)
    _, _, report = C.check_corpus(target)
    assert not report.ok
    failing = report.entries[-1]
    assert failing.status == "error"
    # a downstream theorem, not the postulate itself, is what fails
    assert failing.name in ("thm_ua_fwd", "thm_main_fwd", "cor_decompose_inst")
    assert axiom in failing.error


def test_mutation_star_body_names_theorem(tmp_path):
    def mutate(target):
        path = target / "univalence.tt"
        text = path.read_text()
        marker = "def thm_naiveuniv_fwd : (ua : UA) -> UAbeta ua -> ProperUnivalence\n  := "
        assert marker in text
        head, rest = text.split(marker, 1)
        _, after = rest.split("\n\ndef naive_ua_section", 1)
        path.write_text(head + marker + "*\n\ndef naive_ua_section" + after)

    target = _mutated_corpus(tmp_path, mutate)
    _, _, report = C.check_corpus(target)
    assert not report.ok
    assert report.entries[-1].name == "thm_naiveuniv_fwd"


# ---------------------------------------------------------------------------
# Kernel invariants over the corpus


def test_normalize_idempotent_and_type_preserving(corpus_normal_forms):
    for name, _, idempotent, error in corpus_normal_forms:
        assert idempotent, name
        assert error is None, f"{name}: {error}"


# SHA-256 of the printed corpus normal forms, in declaration order, joined by
# newlines.  The benchmark's `expected.json` digests are nameless; this pins
# the binder names the printer chooses too.
PRINTED_NORMAL_FORMS_SHA256 = "86f648969ebec94bf7f022ae488d9d255eff7b7e33f2dc63a0f81ff004f2a077"


def test_printed_normal_forms_are_pinned(corpus_normal_forms):
    text = "\n".join(S.pretty_print(nf, []) for _, nf, _, _ in corpus_normal_forms)
    assert len(corpus_normal_forms) == 110
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_NORMAL_FORMS_SHA256


def test_coerce_refl_normalizes_to_identity(checked_corpus):
    core, scope, _ = checked_corpus
    decl = next(d for d in core if d.name == "coerce_refl")
    nf = K.normalize(scope, [], S.Annot(decl.body, decl.type))
    assert nf == S.Lambda(S.Lambda(S.Var(0)))


def test_coerce_along_refl_is_identity(checked_corpus):
    _, scope, _ = checked_corpus
    ctx = [("A", S.universe(0)), ("a", S.Var(0))]
    tm = E.elab_term(P.parse_term("coerce A A (refl A) a"), ["A", "a"],
                     scope.entries.keys())
    assert K.normalize(scope, ctx, tm) == S.Var(0)


def test_checker_deterministic(checked_corpus):
    core, _, _ = checked_corpus
    _, scope2, report2 = C.check_corpus()
    assert report2.ok
    nf1 = {}
    for d in core[:20]:
        if d.body is None:
            continue
        nf1[d.name] = K.normalize(scope2, [], S.Annot(d.body, d.type))
    _, scope3, _ = C.check_corpus()
    for d in core[:20]:
        if d.body is None:
            continue
        assert K.normalize(scope3, [], S.Annot(d.body, d.type)) == nf1[d.name]


def test_convertible_equivalence_and_congruence(checked_corpus):
    # reflexive, symmetric, transitive and a congruence on sampled corpus
    # subterms at their types
    core, scope, _ = checked_corpus
    samples = []
    for d in core:
        if d.body is not None and len(samples) < 12:
            samples.append((S.Annot(d.body, d.type), d.type))
    for t, ty in samples:
        assert K.convertible(scope, [], t, t, ty)
    # symmetry/transitivity via eta variants of the identity function
    ctx = [("A", S.universe(0))]
    f = S.Annot(S.Lambda(S.Var(0)), S.Pi(S.Var(0), S.Var(1)))
    g = S.Annot(S.Lambda(S.Apply(S.Annot(S.Lambda(S.Var(0)), S.Pi(S.Var(1), S.Var(2))), S.Var(0))),
                S.Pi(S.Var(0), S.Var(1)))
    ty = S.Pi(S.Var(0), S.Var(1))
    assert K.convertible(scope, ctx, f, g, ty)
    assert K.convertible(scope, ctx, g, f, ty)
    # congruence: applying convertible functions to the same argument
    ctx2 = ctx + [("a", S.Var(0))]
    fa = S.Apply(S.shift(f, 1), S.Var(0))
    ga = S.Apply(S.shift(g, 1), S.Var(0))
    assert K.convertible(scope, ctx2, fa, ga, S.Var(1))


def test_roundtrip_parse_pretty_print(checked_corpus):
    core, scope, _ = checked_corpus
    constants = scope.entries.keys()
    for decl in core:
        printed = S.pretty_print(decl.type, [])
        again = E.elab_term(P.parse_term(printed), [], constants)
        assert again == decl.type, decl.name
        if decl.body is not None:
            printed = S.pretty_print(decl.body, [])
            again = E.elab_term(P.parse_term(printed), [], constants)
            assert again == decl.body, decl.name


def test_corpus_accepted_by_check_program(checked_corpus):
    core, _, _ = checked_corpus
    K.check_program(core)
