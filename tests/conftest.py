import contextlib
import io
import json
import time

import pytest

from utk import cli
from utk import corpuscheck as C
from utk import kernel as K
from utk import syntax as S
from utk.model import selftest as ST

@pytest.fixture(scope="session")
def checked_corpus():
    """The shipped corpus, checked once: (core declarations, scope, report)."""
    return C.check_corpus()


@pytest.fixture(scope="session")
def corpus_normal_forms(checked_corpus):
    """For each corpus definition, in order: its name, its normal form,
    whether normalizing the normal form gives it again, and the KernelError
    raised when the normal form is checked against the declared type, or
    None."""
    core, scope, _ = checked_corpus
    rows = []
    for decl in core:
        if decl.body is None:
            continue
        nf = K.normalize(scope, [], S.Annot(decl.body, decl.type))
        again = K.normalize(scope, [], S.Annot(nf, decl.type))
        try:
            K.check(scope, [], nf, decl.type)
            error = None
        except K.KernelError as exc:
            error = exc
        rows.append((decl.name, nf, again == nf, error))
    return rows


@pytest.fixture(scope="session")
def model_report():
    """One dim-2 self-test run for every test that reads its report.  The
    run's wall time is kept in `elapsed` for the time budget, and the number
    of problems `selftest.enumerate_problems` yielded in `problems`."""
    original = ST.enumerate_problems
    problems = 0

    def counting(*args, **kwargs):
        nonlocal problems
        for problem in original(*args, **kwargs):
            problems += 1
            yield problem

    ST.enumerate_problems = counting
    try:
        t0 = time.time()
        report = ST.run(max_dim=2)
        report.elapsed = time.time() - t0
    finally:
        ST.enumerate_problems = original
    report.problems = problems
    return report


@pytest.fixture(scope="session")
def fixtures_selftest_cli(tmp_path_factory):
    """One dim-2 run of `utk model-selftest --json --fixtures` on a
    three-element fixture, shared by the tests of the CLI's JSON output and
    of fixture loading: the exit code and the parsed JSON report."""
    path = tmp_path_factory.mktemp("fixtures") / "fx.txt"
    path.write_text("cset b\n  cells: p\n\nfamily F over b\n  fiber p: u v w\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_cli(["model-selftest", "--json", "--fixtures", str(path)])
    return code, json.loads(out.getvalue())
