"""Benchmark of utk: the parent process of every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a utk checkout.  It writes the workload's
inputs from the seed, then starts one child interpreter at a time:

* --trace 0: ceil(S / NOMINAL_PASS_S[workload]) timed passes, each in a
  fresh child, then set-up-only children until there are SETUPS[workload]
  set-up samples.  Prints the end-to-end metrics.  A model-dim2 pass runs
  the first check of each self-test family (inputs.model_subset).
* --trace 1: one traced pass (spans, work counters, sampled self time; for
  model-dim2, of the whole self-test) and one microbenchmark child.  Prints
  the per-layer metrics and writes the spans to
  .perfbench/spans-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads are described in WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# Set-up samples per untraced run, every pass giving one.  Set-up is about
# 0.2 s, or 1.3 s for normalize, which checks the corpus first.
SETUPS = {"corpus": 20, "kernel-stress": 20, "normalize": 10, "model-dim2": 20}
# About the seconds one pass child takes, set-up included; for normalize,
# whose set-up is long, the pass alone, so that a run has 6 passes.  A run
# makes ceil(S / nominal) passes, a count that depends on S alone: were
# passes made until S seconds had passed, a slow first pass would end the
# run early, and the runs that keep few passes would be the slow ones.
NOMINAL_PASS_S = {"corpus": 1.4, "kernel-stress": 10.0, "normalize": 3.5, "model-dim2": 12.5}
RUN_LIMIT_S = 170  # every child is killed past this point of the run
OUT_DIR = ".perfbench"


class ChildFailed(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(mode, spec, work, deadline):
    """Start one child, wait for it, and return its JSON result."""
    out = Path(tempfile.mkstemp(prefix=f"{mode}-", suffix=".json", dir=work)[1])
    env = dict(os.environ, PYTHONHASHSEED=inputs.hash_seed(spec["seed"]))
    spawned_at = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(work / "spec.json"), str(out),
             repr(spawned_at)],
            env=env, stdout=sys.stderr, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child did not finish in time") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.read_text())


def tail(values):
    """The highest sample with at least ten samples beyond it (the largest if
    there are fewer than eleven), and its percentile."""
    values = sorted(values)
    k = max(0, len(values) - 11)
    return values[k], 100.0 * (k + 1) / len(values)


def timed_run(spec, work, seconds, deadline):
    passes = []
    for k in range(max(1, math.ceil(seconds / NOMINAL_PASS_S[spec["workload"]]))):
        # the first pass of a normalize run also re-parses every normal form
        verify = spec["workload"] == "normalize" and k == 0
        passes.append(run_child("verify" if verify else "pass", spec, work, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUPS[spec["workload"]]:
        setups.append(run_child("setup", spec, work, deadline)["setup_s"])

    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    median = statistics.median
    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1.0 - min(failed, attempted) / attempted,
        "items": statistics.median_low(p["examined"] for p in passes),
    }
    # item times are too noisy on a shared machine to gate on; they are
    # printed, as the median and tail item time of each pass, medians over
    # the passes
    item_ms = [sorted(1000.0 * s for _, s in p["items"]) for p in passes if p["items"]]
    if item_ms:
        _, tail_pct = tail(item_ms[0])
        print(f"{spec['workload']}: item time per pass, n={len(item_ms[0])}: "
              f"p50 {median(median(ms) for ms in item_ms):.3f} ms, "
              f"p{tail_pct:.1f} {median(tail(ms)[0] for ms in item_ms):.3f} ms")
    print(f"{spec['workload']}: {len(passes)} passes, {len(setups)} set-ups; "
          f"wall_s min {min(p['wall_s'] for p in passes):.4f} max {max(p['wall_s'] for p in passes):.4f}; "
          f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    return failed, attempted, metrics, END_TO_END


def traced_run(spec, work, deadline):
    traced = run_child("traced", spec, work, deadline)
    micro = run_child("micro", spec, work, deadline)
    metrics = dict(traced["layers"])
    metrics.update(micro["layers"])
    spans = work.parent / f"spans-{spec['workload']}-{spec['seed']}.json"
    shutil.copyfile(next(work.glob("*.spans.json")), spans)
    for name, value in traced["notes"].items():
        print(f"{name}: {value}")
    # a hook that could not be installed leaves its metrics at 0: not correct
    for name in traced["missing"]:
        print(f"perfbench: cannot hook {name}; the metrics it feeds read 0")
    if "renamed" in traced:
        print(f"normalize: {traced['renamed']} normal forms re-print with other binder names "
              f"(same nameless term)")
    print(f"traced pass: {traced['wall_s']:.4f} s, {traced['examined']} items, "
          f"{len(traced['items'])} verdicts; spans in {spans}")
    return traced["failed"] + len(traced["missing"]), traced["attempted"], metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "utk" / "cli.py").is_file() or not (root / "src" / "utk" / "corpus" / "MANIFEST").is_file():
        print(f"perfbench: no utk source under {root / 'src' / 'utk'}; run from a utk checkout",
              file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_LIMIT_S
    (root / OUT_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=root / OUT_DIR))
    try:
        spec = inputs.generate(args.workload, args.seed, root, work)
        if args.trace:
            failed, attempted, values, catalog = traced_run(spec, work, deadline)
        else:
            failed, attempted, values, catalog = timed_run(spec, work, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in catalog.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
