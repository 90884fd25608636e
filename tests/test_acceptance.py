"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest -s tests/test_acceptance.py` to see the lines."""

import itertools
import shutil
import time

from utk import cli
from utk import corpuscheck as C
from utk import kernel as K
from utk import syntax as S
from utk.model.interval import ctx, dm_all

CORPUS_TIME_BUDGET = 120.0
MODEL_TIME_BUDGET = 60.0


def report_line(criterion: str, ok: bool):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_corpus_completeness(checked_corpus):
    t0 = time.time()
    _, scope, report = C.check_corpus()
    ok = report.ok
    if ok:
        verify = C.verify_corpus(scope, C.load_theorem_map())
        ok = verify.ok
        required = {
            "funext", "isContr", "sing", "sing_contr", "fib", "isEquiv",
            "Equiv", "id_is_equiv", "idtoeqv", "coerce", "coerce_refl",
            "UA", "UAbeta", "happly", "biinv", "biinv_to_isEquiv",
            "isProp_isEquiv", "sigma_prop_eq",
            "lemma_id_retract_fwd", "lemma_id_retract_bwd",
            "thm_naiveuniv_fwd", "thm_naiveuniv_bwd",
            "ax_unit", "ax_flip", "ax_contract", "ax_unit_beta", "ax_flip_beta",
            "thm_ua_fwd", "thm_ua_bwd", "lem_coerce_comp",
            "thm_main_fwd", "thm_main_bwd", "cor_decompose",
            "thm_funext_equiv", "Conj1", "Conj2", "thm_conj_equiv",
        }
        verified = {e.name.split(" ")[0] for e in verify.entries}
        ok = ok and required <= verified
    elapsed = time.time() - t0
    ok = ok and elapsed < CORPUS_TIME_BUDGET
    print(f"  corpus checked and verified in {elapsed:.1f}s (budget {CORPUS_TIME_BUDGET:.0f}s)")
    report_line("1 corpus completeness", ok)


AXIOMS = ["ax_unit", "ax_flip", "ax_contract", "ax_unit_beta", "ax_flip_beta"]


def test_criterion_2_mutation_sensitivity(tmp_path):
    detected = 0
    for axiom in AXIOMS:
        target = tmp_path / f"corpus_{axiom}"
        shutil.copytree(C.corpus_dir(), target)
        path = target / "axioms.tt"
        out, skipping = [], False
        for line in path.read_text().splitlines():
            if line.startswith(("def ", "postulate ")):
                skipping = line.split()[1] == axiom
            if not skipping:
                out.append(line)
        path.write_text("\n".join(out))
        code = cli.run_cli(["corpus", "--dir", str(target), "--json"])
        _, _, report = C.check_corpus(target)
        failing = report.entries[-1]
        named_theorem = failing.status == "error" and failing.name.startswith("thm_")
        if code == 1 and named_theorem:
            detected += 1
        print(f"  deleting {axiom}: exit {code}, fails at {failing.name}")
    report_line(f"2 mutation sensitivity ({detected}/5)", detected == 5)


def test_criterion_3_kernel_properties(checked_corpus, corpus_normal_forms):
    core, scope, report = checked_corpus
    assert report.ok

    def run():
        for name, _, idempotent, error in corpus_normal_forms:
            if not idempotent:
                return f"normalize not idempotent at {name}"
            if error is not None:
                return f"normal form of {name} fails to re-check: {error}"
        decl = next(d for d in core if d.name == "coerce_refl")
        nf = K.normalize(scope, [], S.Annot(decl.body, decl.type))
        if nf != S.Lambda(S.Lambda(S.Var(0))):
            return "coerce_refl is not the identity lambda"
        return None

    failure = run()
    if failure:
        print(f"  {failure}")
    report_line("3 kernel properties", failure is None)


def test_criterion_4_model_equations(model_report):
    wanted = ["realign/restriction", "realign/reindex-stability",
              "isofib/identity-law", "isofib/swap-conjugation",
              "strictify/", "strictify-fib/", "veebar/", "improve/",
              "isopath/", "axiom-3-contract/", "comp-boundary/", "fill/"]
    entries = {e.name: e for e in model_report.entries}
    ok = model_report.ok
    for marker in wanted:
        hits = [e for n, e in entries.items() if n.startswith(marker)]
        if not hits or any(e.status != "ok" for e in hits):
            ok = False
            print(f"  missing or failing: {marker}")
    ok = ok and model_report.elapsed < MODEL_TIME_BUDGET
    print(f"  model self-test ran in {model_report.elapsed:.1f}s "
          f"(budget {MODEL_TIME_BUDGET:.0f}s)")
    report_line("4 model equations", ok)


def test_criterion_5_coerce_iso_witness(model_report):
    hits = [e for e in model_report.entries
            if e.name.startswith(("coerce-iso-witness/", "axiom-4-unit-beta/",
                                  "axiom-5-flip-beta"))]
    ok = bool(hits) and all(e.status == "ok" for e in hits)
    report_line("5 coercion witness endpoints", ok)


def test_criterion_6_semantic_axioms(model_report):
    markers = ["axiom-1-unit/", "axiom-2-flip", "axiom-3-contract/",
               "axiom-4-unit-beta/", "axiom-5-flip-beta"]
    ok = True
    for marker in markers:
        hits = [e for e in model_report.entries if e.name.startswith(marker)]
        if not hits or any(e.status != "ok" for e in hits):
            ok = False
            print(f"  axiom check missing or failing: {marker}")
    report_line("6 semantic axioms on all fixtures", ok)


def test_criterion_7_dm4_oracle():
    # independent oracle: the free De Morgan algebra on one generator as a
    # bounded distributive lattice on two literals in antichain normal form
    def norm(clauses):
        return frozenset(c for c in clauses
                         if not any(d < c for d in clauses))

    BOT, TOP = frozenset(), frozenset({frozenset()})
    flip = {"i": "~i", "~i": "i"}

    def meet(a, b):
        return norm(frozenset(c | d for c in a for d in b))

    def join(a, b):
        return norm(a | b)

    def neg(a):
        if not a:
            return TOP
        out = TOP
        for clause in a:
            out = meet(out, norm(frozenset(frozenset({flip[l]}) for l in clause)))
        return out

    elems = {BOT, TOP, frozenset({frozenset({"i"})})}
    changed = True
    while changed:
        changed = False
        for x, y in itertools.product(list(elems), repeat=2):
            for z in (meet(x, y), join(x, y), neg(x)):
                if z not in elems:
                    elems.add(z)
                    changed = True
    oracle_count = len(elems)

    classes = {e.table for e in dm_all(ctx("i"))}
    print(f"  oracle closure: {oracle_count} elements; "
          f"dm classes: {len(classes)}")
    report_line("7 DM4 oracle cross-check",
                oracle_count == 6 and len(classes) == oracle_count)
