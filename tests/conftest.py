import time

import pytest

from utk.model import selftest as ST


@pytest.fixture(scope="session")
def model_report():
    """One dim-2 self-test run for every test that reads its report; the
    run's wall time is kept in `elapsed` for the time budget."""
    t0 = time.time()
    report = ST.run(max_dim=2)
    report.elapsed = time.time() - t0
    return report
