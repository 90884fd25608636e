"""Tests of the benchmark itself: generators, metric names, verdicts and the
repeatability of work counts.  Run from the repository root:

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from metrics import CHECK_FAMILIES, COUNTS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tree(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    specs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = tmp_path / name
        work.mkdir()
        spec = inputs.generate(workload, seed, ROOT, work)
        (work / "spec.json").unlink()
        specs.append((tree(work), {k: v for k, v in spec.items() if k not in ("work",)}, work))
    (tree_a, spec_a, work_a), (tree_b, spec_b, work_b), (_, spec_c, _) = specs
    assert tree_a == tree_b
    assert json.dumps(spec_a).replace(str(work_a), "") == json.dumps(spec_b).replace(str(work_b), "")
    if workload == "normalize":
        assert spec_a["order"] != spec_c["order"]
        assert sorted(spec_a["order"]) == sorted(spec_c["order"])


def test_generated_inputs_have_the_stated_shape(tmp_path):
    spec = inputs.generate("kernel-stress", 3, ROOT, tmp_path)
    files = [Path(f) for f in spec["files"]]
    assert len(files) == 7
    assert all(f.parent == Path(spec["corpus_dir"]) for f in files[:-1])
    nest = files[-1].read_text()
    assert nest.count(f"{inputs.NEST_NAMES[0]} (") == inputs.NEST_DEPTH
    assert f"def {inputs.NEST_NAMES[1]} : U1 :=" in nest
    assert len(inputs.expected_items("kernel-stress")) == 120
    assert len(inputs.expected_items("corpus")) == 167
    assert len(inputs.expected_items("normalize")) == 110
    assert len(inputs.expected_items("model-dim2", traced=True)) == 55
    assert len(inputs.expected_items("model-dim2")) == 19


def test_metric_names_are_plain():
    names = list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    families = {name.split("/")[0] for name in inputs.EXPECTED["model_checks"]}
    assert families == set(CHECK_FAMILIES)


def test_an_untraced_model_pass_runs_one_check_per_family():
    subset = inputs.expected_items("model-dim2")
    assert sorted(name.split("/")[0] for name in subset) == sorted(CHECK_FAMILIES)
    everything = inputs.expected_items("model-dim2", traced=True)
    assert [name for name in everything if name in subset] == subset
    ran = []
    run_check = child.only_checks(set(subset))(lambda report, name, fn: ran.append(name))
    for name in everything:
        run_check(None, name, None)
    assert ran == subset


def normalize_pass(seed, tmp_path):
    spec = inputs.generate("normalize", seed, ROOT, tmp_path)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    return child.timed_pass(spec, "pass", spawned_at, tracing.Stamps())


def test_normal_forms_match_the_fixed_digests(tmp_path):
    # the test process has its own hash seed: the digests must not depend on it
    record = normalize_pass(4, tmp_path)
    assert record["examined"] == record["attempted"] == 110
    assert record["failed"] == 0


def test_a_wrong_normal_form_is_reported_as_failed(tmp_path, monkeypatch):
    from utk import kernel

    # the annotated body itself: well typed, but not unfolded
    monkeypatch.setattr(kernel, "normalize", lambda scope, ctx, term: term.term)
    record = normalize_pass(4, tmp_path)
    assert record["examined"] == 110
    assert 0 < record["failed"] < 110


@pytest.mark.parametrize("owner, name", [("utk.kernel", "convert_neutral"),
                                         ("utk.model.fib", "check_boundary"),
                                         ("utk.model.cset", "_compose")])
def test_a_missing_hook_is_reported(owner, name, monkeypatch):
    import importlib

    tracer = tracing.Tracer("missing")
    tracer.install()
    tracer.uninstall()
    assert tracer.patches.missing == []
    monkeypatch.delattr(importlib.import_module(owner), name)
    tracer = tracing.Tracer("missing")
    tracer.install()
    try:
        tracing.per_layer(tracer, {"wall_s": 1.0, "startup_s": 0.1}, set())
    finally:
        tracer.uninstall()
    assert tracer.patches.missing == [f"{owner}.{name}"]


def run_child(mode, workload, seed, tmp_path, tag=""):
    work = tmp_path / f"{mode}-{seed}{tag}"
    work.mkdir()
    inputs.generate(workload, seed, ROOT, work)
    out = work / "out.json"
    env = dict(os.environ, PYTHONHASHSEED=inputs.hash_seed(seed))
    subprocess.run([sys.executable, str(BENCH / "child.py"), mode, str(work / "spec.json"),
                    str(out), repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
                   env=env, check=True, timeout=300)
    result = json.loads(out.read_text())
    spans = out.with_suffix(".spans.json")
    if spans.exists():
        result["spans"] = json.loads(spans.read_text())
    return result


@pytest.fixture(scope="module")
def corpus_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus-runs")
    return {
        "untraced": run_child("pass", "corpus", 1, tmp),
        "traced-1": run_child("traced", "corpus", 1, tmp),
        "traced-1-again": run_child("traced", "corpus", 1, tmp, tag="-again"),
        "traced-2": run_child("traced", "corpus", 2, tmp),
    }


def test_traced_and_untraced_passes_give_the_same_verdicts(corpus_runs):
    untraced, traced = corpus_runs["untraced"], corpus_runs["traced-1"]
    assert untraced["failed"] == traced["failed"] == 0
    assert untraced["examined"] == traced["examined"] == 167
    assert [name for name, _ in untraced["items"]] == [name for name, _ in traced["items"]]


def test_work_counts_repeat_across_runs_and_seeds(corpus_runs):
    base = corpus_runs["traced-1"]["layers"]
    assert base["kernel.eval_calls"] > 0 and base["parser.tokens"] > 0
    for other in ("traced-1-again", "traced-2"):
        layers = corpus_runs[other]["layers"]
        for name in COUNTS:
            if name in base:
                assert layers[name] == base[name], (other, name)


def test_spans_nest_workload_item_layer(corpus_runs):
    spans = corpus_runs["traced-1"]["spans"]
    by_id = {span["id"]: span for span in spans}
    assert {span["run"] for span in spans} == {"corpus-1"}
    for span in spans:
        if span["parent"] is None:
            assert span["name"] == "workload"
        else:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    items = [span for span in spans if span["name"].startswith("item:")]
    assert len(items) == 167
    parents = {span["parent"] for span in spans}
    assert all(item["id"] in parents for item in items)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
