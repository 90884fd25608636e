import contextlib
import io
import json
import time

import pytest

from utk import cli
from utk.model import selftest as ST


@pytest.fixture(scope="session")
def model_report():
    """One dim-2 self-test run for every test that reads its report; the
    run's wall time is kept in `elapsed` for the time budget."""
    t0 = time.time()
    report = ST.run(max_dim=2)
    report.elapsed = time.time() - t0
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
