"""One benchmark child: a fresh interpreter that sets up, runs one pass of a
workload and checks its verdicts, as a CLI user would see them.

    python3 child.py MODE SPEC OUT SPAWNED_AT

MODE is `pass`, `verify` (a pass that also re-parses every printed normal
form), `setup` (set-up only), `traced` (a traced pass; for normalize it also
type-checks and re-normalizes every normal form) or `micro`.  Every normalize
pass compares each normal form with its fixed digest in expected.json.  SPEC
is the run's spec.json, OUT the file this child writes its JSON result to,
and SPAWNED_AT the CLOCK_MONOTONIC time at which run.py started it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import threading
import time
from pathlib import Path

import tracing


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_maxrss / 1024.0


def in_worker(fn):
    """Run fn in one thread with the stack and recursion limit `utk` gives
    its own worker, and return its result."""
    out = {}

    def work():
        tracing.block_samples()
        out["value"] = fn()

    sys.setrecursionlimit(400000)
    threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    if "value" not in out:
        raise RuntimeError("worker thread failed")
    return out["value"]


def run_cli_json(argv):
    """Run `utk <argv> --json` in-process; return its report rows."""
    from utk import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_cli(argv + ["--json"])
    try:
        rows = json.loads(buf.getvalue())["declarations"]
    except (ValueError, KeyError, TypeError):
        print(f"utk {' '.join(argv)}: exit {code}, unreadable report", file=sys.stderr)
        return []
    return [(row.get("name"), row.get("status")) for row in rows]


def cli_argv(spec):
    workload = spec["workload"]
    if workload == "corpus":
        return ["corpus", "--dir", spec["corpus_dir"]]
    if workload == "kernel-stress":
        return ["check"] + spec["files"]
    return ["model-selftest", "--max-dim", "2"]


def only_checks(names):
    """A wrapper of the self-test's check runner that runs the named checks
    and skips the rest."""
    def make(run_check):
        def wrapper(report, name, fn):
            if name in names:
                run_check(report, name, fn)
        return wrapper
    return make


def score(rows, expected):
    """Items failed or with a wrong verdict, against the fixed answers."""
    seen = {}
    for name, status in rows:
        seen[name] = seen.get(name, 0) + 1
    failed = sum(1 for name, status in rows if name not in expected or status != "ok")
    failed += sum(1 for name in expected if name not in seen)
    failed += sum(count - 1 for count in seen.values())
    return failed


_CLOSE = object()


def nameless_digest(term) -> str:
    """SHA-256 of a term without its binder names: its type names and the
    dataclass fields that take part in equality, in order."""
    h = hashlib.sha256()
    fields = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if t is _CLOSE:
            h.update(b")")
        elif dataclasses.is_dataclass(t) or isinstance(t, (tuple, list)):
            cls = type(t)
            if cls not in fields:
                fields[cls] = ([f.name for f in dataclasses.fields(t) if f.compare]
                               if dataclasses.is_dataclass(t) else None)
            names = fields[cls]
            children = list(t) if names is None else [getattr(t, n) for n in names]
            h.update(cls.__name__.encode() + b"(")
            stack.append(_CLOSE)
            stack.extend(reversed(children))
        else:
            h.update(repr(t).encode() + b",")
    return h.hexdigest()


class Normalizer:
    """`utk normalize --def` for every definition of the corpus, after one
    corpus check as set-up."""

    def __init__(self, spec):
        from utk import corpuscheck as C

        self.order = spec["order"]
        self.core, self.scope, report = C.check_corpus(Path(spec["corpus_dir"]))
        if not report.ok:
            raise RuntimeError("normalize set-up: the corpus does not check")
        self.defs = {d.name: d for d in self.core if d.body is not None}
        self.forms = {}

    def run(self, hooks):
        from utk import kernel as K
        from utk import syntax as S

        rows = []
        for name in self.order:
            d = self.defs.get(name)
            if d is not None:
                nf = K.normalize(self.scope, [], S.Annot(d.body, d.type))
                self.forms[name] = (nf, S.pretty_print(nf, []))
                rows.append((name, "ok"))
            hooks.verdict(name)
        return rows

    def wrong_forms(self, expected):
        """Definitions whose normal form differs from the fixed answer."""
        bad = [name for name, (nf, _) in self.forms.items()
               if nameless_digest(nf) != expected.get(name)]
        for name in bad:
            print(f"normalize {name}: normal form differs from expected.json", file=sys.stderr)
        return bad

    def verify(self, full):
        """Each printed normal form must re-parse and re-elaborate to the
        same nameless term; terms compare without binder names, which
        printing may rename.  With `full`, it must also check against the
        declared type and normalize to itself.  Returns (definitions
        failing, definitions whose second print differs only in binder
        names)."""
        from utk import elab as E
        from utk import kernel as K
        from utk import parser as P
        from utk import syntax as S

        bad, renamed = [], 0
        for name, (nf, text) in self.forms.items():
            d = self.defs[name]
            try:
                term = E.elab_term(P.parse_term(text), [], self.scope.entries.keys())
                again = nf
                if full:
                    K.check(self.scope, [], term, d.type)
                    again = K.normalize(self.scope, [], S.Annot(term, d.type))
            except Exception as exc:  # any failure is a wrong verdict, reported by name
                print(f"normalize {name}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
                bad.append(name)
                continue
            if term != nf or again != nf:
                print(f"normalize {name}: normal form does not round-trip", file=sys.stderr)
                bad.append(name)
            elif full and S.pretty_print(again, []) != text:
                renamed += 1
        return bad, renamed


def measure(hooks, record, run):
    """Time run() as the pass, with the hooks installed around it."""
    hooks.install()
    cpu0, _ = usage()
    hooks.begin()
    t0 = time.perf_counter()
    with hooks.profiling():
        record["rows"] = run()
    record["wall_s"] = time.perf_counter() - t0
    cpu1, record["peak_rss_mb"] = usage()
    record["cpu_s"] = cpu1 - cpu0
    hooks.end()
    hooks.uninstall()


def timed_pass(spec, mode, spawned_at, hooks):
    """Set-up, then one timed pass; returns the pass record."""
    import inputs

    expected = inputs.expected_items(spec["workload"], traced=mode == "traced")
    record = {}
    import utk.cli  # noqa: F401  (interpreter start and import are set-up)

    record["startup_s"] = monotonic() - spawned_at
    if spec["workload"] == "normalize":
        def work():
            normalizer = Normalizer(spec)
            record["setup_s"] = monotonic() - spawned_at
            if mode == "setup":
                return
            measure(hooks, record, lambda: normalizer.run(hooks))
            bad = normalizer.wrong_forms(inputs.EXPECTED["definitions"])
            if mode in ("verify", "traced"):
                more, renamed = normalizer.verify(full=mode == "traced")
                bad += more
                if mode == "traced":
                    record["renamed"] = renamed
            record["rows"] = [(n, "error" if n in bad else s) for n, s in record["rows"]]
        in_worker(work)
        if mode == "setup":
            return record
    else:
        record["setup_s"] = record["startup_s"]
        if mode == "setup":
            return record
        if spec["workload"] == "model-dim2" and mode != "traced":
            from utk.model import selftest

            hooks.patches.wrap(selftest, "_run_check", only_checks(set(expected)))
        measure(hooks, record, lambda: run_cli_json(cli_argv(spec)))
    record["items"] = [list(item) for item in hooks.items]
    rows = record.pop("rows")
    record["examined"] = len(rows)
    record["attempted"] = len(expected)
    record["failed"] = score(rows, set(expected))
    return record


def main(argv) -> int:
    mode, spec_path, out_path, spawned_at = argv
    spawned_at = float(spawned_at)
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import utk

    src = (Path(spec["root"]) / "src" / "utk").resolve()
    if Path(utk.__file__).resolve().parent != src:
        print(f"imported utk from {utk.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "micro":
        import micro

        result = micro.measure(spec)
    elif mode == "traced":
        import inputs

        tracer = tracing.Tracer(f"{spec['workload']}-{spec['seed']}")
        tracer.sampler.install()
        result = timed_pass(spec, mode, spawned_at, tracer)
        result["layers"], result["notes"] = tracing.per_layer(
            tracer, result, set(inputs.EXPECTED["model_checks"]))
        result["missing"] = tracer.patches.missing
        tracer.dump(Path(out_path).with_suffix(".spans.json"))
    else:
        result = timed_pass(spec, mode, spawned_at, tracing.Stamps())
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
