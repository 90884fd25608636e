import gc
import hashlib
import json
import warnings

import pytest

from utk.model import constructions as CO
from utk.model import cset as CS
from utk.model import fib as FB
from utk.model import fixtures as FX
from utk.model import selftest as ST
from utk.model.interval import ModelError
from utk.report import Report


def test_selftest_passes(model_report):
    assert model_report.ok, model_report.summary()
    assert model_report.summary().strip().endswith("pass")


def test_selftest_covers_every_axiom(model_report):
    names = [e.name for e in model_report.entries]
    for marker in ("axiom-1-unit", "axiom-2-flip", "axiom-3-contract",
                   "axiom-4-unit-beta", "axiom-5-flip-beta"):
        assert any(marker in n for n in names), marker


def test_selftest_never_aborts_early(model_report):
    # the battery aggregates; a report exists for every registered check
    assert len(model_report.entries) > 40


def test_selftest_enumerates_every_problem(model_report):
    # speed work must not prune cases: the dim-2 battery draws exactly this
    # many composition problems
    assert model_report.problems == 8182


# SHA-256 of the dim-2 report's summary: one "ok" or "FAIL" line per check,
# in order, then the verdict.  Refactors of the model keep the same 55 rows
# with the same verdicts.
SUMMARY_SHA256 = "e4e5131cc9174ec909168ecbcf1c965e1663d8e0f35528fff97a6e8aa0183ab2"


def test_selftest_summary_is_pinned(model_report):
    summary = model_report.summary()
    assert len(summary.splitlines()) == 56
    assert hashlib.sha256(summary.encode()).hexdigest() == SUMMARY_SHA256


# Problems drawn per built-in fixture at dim 2.  A restriction fault that
# makes the start filter drop problems shows here at its fixture; the total
# above moves too, but names no row.
FIXTURE_PROBLEMS = {"pt/one": 14, "pt/two": 28, "pt/three": 42,
                    "interval/two": 408, "pt/interval-fiber": 244}


def test_problem_count_per_fixture_is_pinned():
    counts = {fx.name: sum(1 for _ in ST.enumerate_problems(fx.fib, 2))
              for fx in FX.builtin_fixtures()}
    assert counts == FIXTURE_PROBLEMS


def test_selftest_rejects_bad_dimension():
    report = ST.run(max_dim=5)
    assert not report.ok


def test_report_json_stable(model_report):
    a = model_report.to_json()
    b = model_report.to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["pass"] is True
    assert {"name", "status", "error"} <= set(parsed["declarations"][0].keys())


def test_report_json_carries_timing_only_when_asked():
    report = Report()
    report.add_ok("a", 0.12345)
    report.add_error("b", "bad", 2.0)
    assert all("elapsed" not in row
               for row in json.loads(report.to_json())["declarations"])
    timed = json.loads(report.to_json(with_timing=True))["declarations"]
    assert [row["elapsed"] for row in timed] == [0.123, 2.0]


def test_fixture_file_loading(tmp_path):
    path = tmp_path / "fixtures.txt"
    path.write_text(
        "# a discrete square\n"
        "cset base\n"
        "  cells: p q\n"
        "\n"
        "family F over base\n"
        "  fiber p: u v\n"
        "  fiber q: w\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = FX.load_fixture_file(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(loaded) == 1
    fx = loaded[0]
    assert fx.name == "loaded/F"
    assert sorted(fx.fib.family.fiber(frozenset(), "p")) == ["u", "v"]
    assert fx.fib.comp is not None


def test_fixture_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("family F over missing\n  fiber p: u\n",
                 "cset base\n  cells: p\n\nfamily F over base\n  fiber p: u\n  fiber q: v\n",
                 "cset\n  cells: p\n",
                 "cset base extra\n  cells: p\n",
                 "cset base\n  cells: p\n\nfamily F over\n  fiber p: u\n",
                 "cset base\n  cells: p\n\nfamily F over base\n  fiber\n"):
        path.write_text(text)
        with pytest.raises(FX.FixtureFormatError):
            FX.load_fixture_file(path)
    # Nothing is declared twice; the error names the line of the repeat.
    base = "cset base\n  cells: p q\n\n"
    family = "family F over base\n  fiber p: u\n  fiber q: w\n"
    for text, line in (("cset base\n  cells: p q p\n", 2),
                       ("cset base\n  cells: p\n  cells: q\n", 3),
                       (base + "family F over base\n  fiber p: u v u\n  fiber q: w\n", 5),
                       (base + "family F over base\n  fiber p: u\n  fiber p: v\n", 6),
                       (base + "cset base\n  cells: r\n", 4),
                       (base + family + "\n" + family, 8)):
        path.write_text(text)
        with pytest.raises(FX.FixtureFormatError, match=f"^line {line}: .* declared twice"):
            FX.load_fixture_file(path)
    path.write_text(base + "family F over base\n  fiber p:\n  fiber q: w\n")
    assert FX.load_fixture_file(path)[0].fib.family.fiber(frozenset(), "p") == []


def test_selftest_with_loaded_fixtures(fixtures_selftest_cli):
    code, data = fixtures_selftest_cli
    assert code == 0 and data["pass"] is True
    assert any("loaded/F" in row["name"] for row in data["declarations"])


# Each check shape flags a planted fault and passes the sound input next to it.


def two_point_path():
    point = CS.DiscreteCSet(["pt"])
    A = FX.discrete_fib(point, ["x", "y"])
    B = FX.discrete_fib(point, ["s", "t"])
    iso = ST._swap_iso(A, {"x": "s", "y": "t"})
    return A, B, iso, CO.isopath(iso, A, B)


def test_boundary_flags_a_composition_that_ignores_the_walls():
    sound = FX.interval_fib(CS.DiscreteCSet(["pt"]))
    assert ST._boundary(sound, 2) == []
    stuck = FB.Fib(sound.family, FB.comp_discrete)
    assert ST._boundary(stuck, 2)


def test_endpoints_flags_a_wrong_recorded_target():
    A, _, _, path = two_point_path()
    assert ST._endpoints(path, 2) == []
    wrong = CO.FibPath(path.line, A, A)
    assert ST._endpoints(wrong, 2)
    assert all(v[0] == 1 for v in ST._endpoints(wrong, 2))


def test_witness_flags_a_wrong_iso():
    A, _, iso, path = two_point_path()
    assert ST._witness(iso, path, 2) == []
    crossed = ST._swap_iso(A, {"x": "t", "y": "s"})
    assert ST._witness(crossed, path, 2)


def test_strictify_flags_a_restriction_that_skips_the_inverse(model_report, monkeypatch):
    # entering the region, a restriction must pass through iso.bwd once
    rows = ["strictify/(i=0)", "strictify-fib/(i=0)"]
    status = {e.name: e.status for e in model_report.entries}
    assert [status[name] for name in rows] == ["ok", "ok"]

    def skips_bwd(self, rho, f, x):
        if self.cof.holds(f.src, rho):
            return self.partial.restrict(rho, f, x)
        return self.total.restrict(rho, f, x)

    monkeypatch.setattr(CO.StrictifiedFamily, "restrict", skips_bwd)
    report = Report()
    ST.check_strictify(report, 2)
    failed = [e.name for e in report.entries if e.status != "ok"]
    assert failed == rows


def test_endpoints_flags_a_veebar_stuck_at_one_side(monkeypatch):
    A, B, _, _ = two_point_path()
    assert ST._endpoints(CO.FibPath(CO.veebar(A, B), A, B), 2) == []
    monkeypatch.setattr(CO, "_side", lambda rho: 0)
    violations = ST._endpoints(CO.FibPath(CO.veebar(A, B), A, B), 2)
    assert violations and all(v[0] == 1 for v in violations)


def test_a_long_first_violation_is_reported_whole():
    violation = ("boundary", "x" * 400)
    report = Report()
    ST._run_check(report, "long", lambda: [violation, violation])
    assert report.entries[0].error == f"2 violations, first: {violation!r}"


def keeps_values_across_stages(family, x, values, f, clauses):
    """`fib.restrict_partial` with a planted fault: along a map other than
    the identity, a value whose remainder changes its stage is kept
    unrestricted.  Resolving at a clause stays right, so the boundary check
    that filters enumerated problems still admits them."""
    out = {}
    for clause in clauses:
        m = f.then(CS.CubeMap.face(f.dst, clause))
        for c, v in values:
            remainder = CS._factor(m, c)
            if remainder is not None:
                xc = family.base.restrict(CS.CubeMap.face(f.src, c), x)
                out[clause] = (v if not f.is_identity() and remainder.src != remainder.dst
                               else family.restrict(xc, remainder, v))
                break
    return out


def test_fibs_equal_compares_fibers_by_value():
    # equal frozensets can print differently: {0, 8} and {8, 0}
    point = CS.DiscreteCSet(["pt"])
    fib = FB.discrete_fib(point, [frozenset([0, 8])])
    assert repr(frozenset([0, 8])) != repr(frozenset([8, 0]))
    assert ST.fibs_equal(fib, FB.discrete_fib(point, [frozenset([8, 0])])) == []
    other = ST.fibs_equal(fib, FB.discrete_fib(point, [frozenset([0, 9])]))
    assert [v[0] for v in other] == ["fiber"] * 4


def plant_partial_fault(monkeypatch):
    for module in (FB, CO):
        monkeypatch.setattr(module, "restrict_partial", keeps_values_across_stages)


def test_contraction_laws_flag_a_partial_restriction_fault(monkeypatch):
    point = CS.DiscreteCSet(["pt"])

    def laws():
        family = CO.ContractionFamily(FX.interval_fib(point).family,
                                      CS.ProductIntervalCSet(point))
        return CS.validate_cset(family, 2, max_points=12, max_pairs=250)

    assert laws() == []
    plant_partial_fault(monkeypatch)
    try:
        violations = laws()
    except ModelError:
        return  # an element over the wrong stage may raise instead
    assert violations


def test_fill_and_contract_flag_a_partial_restriction_fault(model_report, monkeypatch):
    rows = ["fill/pt/interval-fiber", "axiom-3-contract/pt/interval-fiber"]
    status = {e.name: e.status for e in model_report.entries}
    assert [status[name] for name in rows] == ["ok", "ok"]
    fx = next(fx for fx in FX.builtin_fixtures() if fx.name == "pt/interval-fiber")
    plant_partial_fault(monkeypatch)
    report = Report()
    ST.check_fill(report, [fx], 2)
    ST._run_check(report, rows[1], lambda: ST._endpoints(
        CO.contract_path(fx.fib, fx.contractible), 2))
    assert [e.name for e in report.entries if e.status != "ok"] == rows
