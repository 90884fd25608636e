import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import utk
from utk import cli
from utk import corpuscheck as C
from utk import elab as E
from utk import kernel as K
from utk import parser as P


def run_cli(capsys, *args):
    code = cli.run_cli(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_file(tmp_path, capsys):
    f = tmp_path / "ok.tt"
    f.write_text("def id : (A : U0) -> A -> A := \\A a -> a\n")
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 0
    assert "pass" in out


def test_check_failure_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.tt"
    f.write_text("def bad : U0 := U0\n")
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "bad" in out


@pytest.mark.parametrize("source, code, out, err", [
    ("def a : U1 := U0\ndef a : U1 := U0\n", 2, "", "error: 2:5: duplicate name 'a'\n"),
    ("def a : U1 := U0\ndef b : U1 := foo\n", 1,
     "ok    a\nFAIL  b: unbound identifier: foo\nfail\n", ""),
    ("def a : U1 := U0\ndef b : U5 := U0\n", 2,
     "", "error: 2:9: universe level 5 out of range 0..4\n"),
])
def test_check_error_output(tmp_path, capsys, source, code, out, err):
    f = tmp_path / "bad.tt"
    f.write_text(source)
    assert run_cli(capsys, "check", str(f)) == (code, out, err)


def test_a_name_declared_in_two_files_is_a_failing_row(tmp_path, capsys):
    files = [tmp_path / "a.tt", tmp_path / "b.tt"]
    for f in files:
        f.write_text("def a : U1 := U0\n")
    paths = [str(f) for f in files]
    assert run_cli(capsys, "check", *paths) == (
        1, "ok    a\nFAIL  a: duplicate declaration: a\nfail\n", "")
    code, out, err = run_cli(capsys, "check", "--json", *paths)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"declarations": [
        {"error": None, "name": "a", "status": "ok"},
        {"error": "duplicate declaration: a", "name": "a", "status": "error"},
    ], "pass": False}
    with pytest.raises(K.DeclarationError, match="^a: duplicate declaration: a$"):
        E.elaborate(P.parse_files(paths))


def test_check_missing_file(capsys):
    code, _, _ = run_cli(capsys, "check", "no/such/file.tt")
    assert code == 2


@pytest.mark.parametrize("args", [
    ["normalize", "no/such/file.tt", "--def", "f"],
    ["corpus", "--dir", "no/such/dir"],
    ["model-selftest", "--fixtures", "no/such/fixtures.txt"],
])
def test_missing_input_is_a_usage_error(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "no/such" in err


def test_check_syntax_error(tmp_path, capsys):
    f = tmp_path / "syn.tt"
    f.write_text("def x :=\n")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 2
    assert "error" in err


def test_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "corpus", "--frobnicate")
    assert code == 2


def test_normalize_coerce_refl(capsys):
    prelude = C.corpus_dir() / "prelude.tt"
    code, out, _ = run_cli(capsys, "normalize", str(prelude), "--def", "coerce_refl")
    assert code == 0
    assert out.strip() == "\\A x -> x"


def test_normalize_json(capsys):
    prelude = C.corpus_dir() / "prelude.tt"
    code, out, _ = run_cli(capsys, "normalize", str(prelude), "--def",
                           "coerce_refl", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"] == "\\A x -> x"
    assert data["pass"] is True
    assert "coerce_refl" in [d["name"] for d in data["declarations"]]


def test_normalize_json_failing_file(tmp_path, capsys):
    f = tmp_path / "bad.tt"
    f.write_text("def bad : U0 := U0\n")
    code, out, err = run_cli(capsys, "normalize", str(f), "--def", "bad", "--json")
    assert code == 1
    assert err == ""
    data = json.loads(out)
    assert data["pass"] is False
    assert data["declarations"][0]["name"] == "bad"
    assert "normal_form" not in data


def test_normalize_fills_placeholders(tmp_path, capsys):
    f = tmp_path / "hole.tt"
    f.write_text("def f : 1 -> 1 := \\x -> _\n")
    code, out, _ = run_cli(capsys, "normalize", str(f), "--def", "f")
    assert code == 0
    assert out.strip() == "\\x -> *"


def test_python_dash_m_utk(tmp_path):
    f = tmp_path / "bad.tt"
    f.write_text("def bad : U0 := U0\n")
    src = str(Path(utk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "utk", "check", str(f)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert "FAIL  bad" in done.stdout


def test_deep_input_runs_on_the_main_thread(tmp_path):
    """`python -m utk` runs each subcommand on the calling thread: a
    20000-deep chain checks and normalizes under the default C stack."""
    n = 20000
    f = tmp_path / "deep.tt"
    f.write_text("def idf : U1 -> U1 := \\x -> x\n"
                 f"def nest_chain : U1 := {'idf (' * n}U0{')' * n}\n")
    src = str(Path(utk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for args, out in ((["check"], "ok    idf\nok    nest_chain\npass\n"),
                      (["normalize", "--def", "nest_chain"], "U0\n")):
        done = subprocess.run([sys.executable, "-m", "utk", *args, str(f)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == out


def test_corpus_passes(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    assert out.strip().endswith("pass")


def test_corpus_json_stable_and_machine_readable(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "--json")
    code2, out2, _ = run_cli(capsys, "corpus", "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical, timing excluded
    data = json.loads(out1)
    assert data["pass"] is True
    names = [d["name"] for d in data["declarations"]]
    assert "thm_naiveuniv_fwd" in names


def test_corpus_dir_override_with_mutation(tmp_path, capsys):
    target = tmp_path / "corpus"
    shutil.copytree(C.corpus_dir(), target)
    axioms = target / "axioms.tt"
    text = axioms.read_text().splitlines()
    out_lines, skipping = [], False
    for line in text:
        if line.startswith(("def ", "postulate ")):
            skipping = line.split()[1] == "ax_flip_beta"
        if not skipping:
            out_lines.append(line)
    axioms.write_text("\n".join(out_lines))
    code, out, _ = run_cli(capsys, "corpus", "--dir", str(target))
    assert code == 1
    assert "thm_main_fwd" in out


def test_model_selftest_json(fixtures_selftest_cli):
    code, data = fixtures_selftest_cli
    assert code == 0
    assert data["pass"] is True


def test_model_selftest_fixtures_flag(fixtures_selftest_cli):
    """The plain summary is checked on the shared report in test_selftest.py."""
    code, data = fixtures_selftest_cli
    assert code == 0
    assert any("loaded/F" in row["name"] for row in data["declarations"])


def test_model_selftest_fails_a_fixture_with_no_problem(tmp_path, capsys):
    """F's only fiber is empty and G's cset has no cells.  Both load, and
    every row on them fails for examining nothing: no cell, no composition
    problem or no element to coerce."""
    path = tmp_path / "fx.txt"
    path.write_text("cset b\n  cells: p\n\nfamily F over b\n  fiber p:\n\n"
                    "cset e\n  cells:\n\nfamily G over e\n")
    code, out, _ = run_cli(capsys, "model-selftest", "--fixtures", str(path))
    assert code == 1
    cell, problem, element = (f"no {what} up to dimension 2" for what in
                              ("cell", "composition problem", "element to coerce"))
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  {row}/loaded/{name}: exception: {why}" for row, name, why in (
            ("functor-laws", "F", cell), ("functor-laws", "G", cell),
            ("comp-boundary", "F", problem), ("comp-boundary", "G", problem),
            ("fill", "F", problem), ("fill", "G", problem),
            ("axiom-1-unit", "F", problem), ("axiom-4-unit-beta", "F", element),
            ("axiom-1-unit", "G", problem), ("axiom-4-unit-beta", "G", element))]
