"""Measurement hooks installed from outside utk: verdict stamps for untraced
passes, and for traced passes spans, work counters and sampled self time.

Everything here patches public attributes of utk's modules and restores them
afterwards; no source file changes.  Spans stay in memory until `dump`.  A
name utk no longer has is recorded in `Patches.missing`; a traced run prints
each one and is not correct, so the metrics it feeds never read 0 silently.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import threading
import time
from collections import Counter
from pathlib import Path

now = time.perf_counter


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._saved = []
        self.missing = []  # dotted names that could not be hooked

    def wrap(self, owner, name, make):
        """Replace owner.name by make(owner.name).  A name the program no
        longer has is recorded as missing."""
        orig = vars(owner).get(name)
        if orig is None:
            self.miss(owner, name)
            return
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def miss(self, owner, name):
        prefix = (owner.__name__ if isinstance(owner, type(sys))
                  else f"{owner.__module__}.{owner.__qualname__}")
        self.missing.append(f"{prefix}.{name}")

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Stamps:
    """Times each verdict: an item's duration runs from the previous verdict
    (or the start of the pass) to its own."""

    def __init__(self):
        self.items = []  # (name, seconds)
        self._last = now()
        self.patches = Patches()

    def begin(self):
        self._last = now()

    def end(self):
        pass

    def profiling(self):
        return contextlib.nullcontext()

    def verdict(self, name):
        t = now()
        self.items.append((name, t - self._last))
        self._last = t

    def install(self):
        from utk import report

        for method in ("add_ok", "add_error"):
            self.patches.wrap(report.Report, method, self._verdict_hook)

    def _verdict_hook(self, orig):
        stamps = self

        def hook(report_self, name, *args, **kwargs):
            result = orig(report_self, name, *args, **kwargs)
            stamps.verdict(name)
            return result
        return hook

    def uninstall(self):
        self.patches.restore()


class Tracer(Stamps):
    """Spans nested workload -> item -> layer call, layer busy time, kernel
    work counters and a self-time sampler."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.item = None  # index of the open item span
        self.busy = Counter()
        self.counts = Counter()
        self.active = Counter()  # open calls per layer group
        self.depth = 0
        self.max_depth = 0
        self.decl_max = (0.0, "")
        self.sampler = Sampler()

    # spans -------------------------------------------------------------

    def open(self, name, start=None):
        parent = self.spans[self.stack[-1]][0] if self.stack else None
        self.spans.append([len(self.spans), parent, name, now() if start is None else start, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, name=None):
        span = self.spans[index]
        span[4] = now()
        if name is not None:
            span[2] = name
        while self.stack and self.stack.pop() != index:
            pass
        return span[4] - span[3]

    def begin(self):
        super().begin()
        self.root = self.open("workload", start=self._last)
        self._since = len(self.spans)  # first span opened after the last verdict

    def end(self):
        self.close(self.root)

    def verdict(self, name):
        last = self._last
        super().verdict(name)
        if self.item is not None:
            self.close(self.item, f"item:{name}")
            self.item = None
        else:
            # an item known only at its verdict adopts the layer spans that
            # opened under the workload since the previous verdict
            index = self.open(f"item:{name}", start=last)
            for span in self.spans[self._since:index]:
                if span[1] == self.root:
                    span[1] = index
            self.close(index)
        self._since = len(self.spans)

    # layer wrappers ----------------------------------------------------

    def layer(self, owner, attr, group, opens_item=False, kernel=False, count=None, span=True):
        """Wrap owner.attr: count calls, track kernel nesting, and time the
        outermost call of `group` as busy time and, with `span`, as a span."""
        self.patches.wrap(owner, attr, lambda orig: self._layer(orig, group, opens_item, kernel, count, span))

    def _layer(self, orig, group, opens_item, kernel, count, span):
        tracer = self
        active = self.active

        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if kernel:
                tracer.depth += 1
                if tracer.depth > tracer.max_depth:
                    tracer.max_depth = tracer.depth
            outer = active[group] == 0
            if outer:
                start = now()
                if span:
                    if opens_item and tracer.item is None and tracer._at_container():
                        tracer.item = tracer.open("item", start)
                    index = tracer.open(group, start)
            active[group] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                active[group] -= 1
                if kernel:
                    tracer.depth -= 1
                if outer:
                    seconds = tracer.close(index) if span else now() - start
                    tracer.busy[group] += seconds
                    if group == "kernel.check" and seconds > tracer.decl_max[0]:
                        tracer.decl_max = (seconds, getattr(args[1], "name", "?") if len(args) > 1 else "?")
        return wrapper

    def _at_container(self):
        """Whether the innermost open span holds items: the workload root or
        a corpuscheck phase."""
        name = self.spans[self.stack[-1]][2] if self.stack else ""
        return name == "workload" or name.startswith("corpuscheck.")

    def _nesting(self, orig):
        """Track kernel nesting only: for the checker's hot methods."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.depth += 1
            if tracer.depth > tracer.max_depth:
                tracer.max_depth = tracer.depth
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.depth -= 1
        return wrapper

    def install(self):
        super().install()
        from utk import corpuscheck as C
        from utk import elab as E
        from utk import kernel as K
        from utk import parser as P
        from utk import syntax as S
        from utk.model import selftest

        self.layer(P, "parse_program", "parser")
        self.layer(P, "parse_term", "parser", opens_item=True)
        self.layer(E, "elab_term", "elab", opens_item=True, count="elab.calls")
        self.layer(C, "check_corpus", "corpuscheck.check")
        self.layer(C, "verify_corpus", "corpuscheck.verify")
        self.layer(K, "check_declaration", "kernel.check", opens_item=True, kernel=True)
        self.layer(K, "normalize", "kernel.normalize", opens_item=True, kernel=True)
        for name in ("convert", "convert_type", "convert_neutral", "subtype"):
            self.layer(K, name, "kernel.conv", kernel=True, span=False,
                       count=None if name == "subtype" else "kernel.convert_calls")
        for name in ("quote", "quote_type", "quote_neutral"):
            self.layer(K, name, "kernel.quote", kernel=True, span=False, count="kernel.quote_calls")
        self.patches.wrap(K.Checker, "infer", self._nesting)
        self.patches.wrap(K.Checker, "check", self._nesting)
        self.patches.wrap(K, "evaluate", lambda orig: self._evaluate(orig, S.Constant))
        self.patches.wrap(P, "tokenize", self._tokenize)
        self.patches.wrap(selftest, "enumerate_problems", self._problems)
        self._count_model()

        def blocking(run):
            def wrapper(thread_self):
                block_samples()
                run(thread_self)
            return wrapper
        self.patches.wrap(threading.Thread, "run", blocking)

    def profiling(self):
        return self.sampler.running()

    def _count_model(self):
        """Call counts of the model's operations.  Functions are replaced in
        every utk.model module that imported them, methods in their class."""
        from utk.model import constructions, cset, fib, fixtures, interval, selftest

        modules = (interval, cset, fib, constructions, fixtures, selftest)
        counts = self.counts

        def counted(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def everywhere(fn, key, span=False):
            wrapper = self._layer(fn, "fib", False, False, key, True) if span else counted(key)(fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self.patches.wrap(module, name, lambda _: wrapper)

        for prefix, key in (("dm_", "interval.dm_ops"), ("face_", "interval.face_ops")):
            found = [value for name, value in list(vars(interval).items())
                     if callable(value) and name.startswith(prefix)]
            for value in found:
                everywhere(value, key)
            if not found:
                self.patches.miss(interval, prefix + "*")
        for name in ("entails", "clauses"):
            self.patches.wrap(interval.Face, name, counted("interval.face_ops"))
        for name in ("is_top", "is_bot"):
            self.patches.wrap(interval.Face, name,
                              lambda prop: property(counted("interval.face_ops")(prop.fget)))
        restricting = [cls for cls in list(vars(cset).values())
                       if isinstance(cls, type) and cls.__module__ == cset.__name__
                       and "restrict" in vars(cls)]
        for cls in restricting:
            self.patches.wrap(cls, "restrict", counted("cset.restrict_calls"))
        if not restricting:
            self.patches.miss(cset, "*.restrict")
        self.patches.wrap(cset.CubeMap, "apply_dm", counted("cset.apply_dm_calls"))
        self.patches.wrap(cset.Cofibration, "holds", counted("cset.holds_calls"))
        # the outermost boundary check or fill is also the model's layer span
        for owner, name, key, span in (
                (cset, "restrict_element", "cset.restrict_calls", False),
                (fib, "check_boundary", "fib.boundary_checks", True),
                (fib, "fill", "fib.fill_calls", True),
                (fib, "check_start_agreement", "selftest.start_checks", False)):
            if name in vars(owner):
                everywhere(vars(owner)[name], key, span)
            else:
                self.patches.miss(owner, name)

    def _evaluate(self, orig, constant):
        """Counts every evaluation, and δ-unfoldings: evaluations of a
        Constant that has a transparent body in scope."""
        tracer = self
        counts = self.counts

        def evaluate(*args, **kwargs):
            counts["kernel.eval_calls"] += 1
            if len(args) < 3:
                counts["kernel.eval_unread"] += 1  # δ-unfoldings would go uncounted
            elif args[2].__class__ is constant:
                try:
                    entry = args[0][args[2].name]
                except KeyError:
                    entry = None
                if entry is not None and entry.body is not None and not entry.opaque:
                    counts["kernel.delta_unfolds"] += 1
            tracer.depth += 1
            if tracer.depth > tracer.max_depth:
                tracer.max_depth = tracer.depth
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.depth -= 1
        return evaluate

    def _tokenize(self, orig):
        counts = self.counts

        def tokenize(*args, **kwargs):
            tokens = orig(*args, **kwargs)
            counts["parser.tokens"] += len(tokens)
            return tokens
        return tokenize

    def _problems(self, orig):
        counts = self.counts

        def enumerate_problems(*args, **kwargs):
            for problem in orig(*args, **kwargs):
                counts["selftest.problems"] += 1
                yield problem
        return enumerate_problems

    def dump(self, path: Path):
        rows = [{"run": self.run_id, "id": i, "parent": parent, "name": name,
                 "start": start, "end": end}
                for i, parent, name, start, end in self.spans]
        path.write_text(json.dumps(rows))


SAMPLE_S = 0.01


def block_samples():
    """Keep SIGPROF off the calling thread, so the main thread takes every
    sample and wakes from its join to do so."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})


class Sampler:
    """Self time per utk module by sampling: every SAMPLE_S of process CPU
    time, SIGPROF runs a handler in the main thread that reads the innermost
    utk frame of each thread not waiting in `threading`.  A module's self time
    is its share of the samples times the CPU time sampled.  Frames of
    generated code (`<string>`, e.g. dataclass __eq__) and of the standard
    library count toward the utk frame that called them; frames of this
    benchmark count as tracing."""

    def __init__(self):
        self.samples = Counter()
        self.cpu_s = 0.0
        self.here = str(Path(__file__).resolve().parent)
        self.modules = {}  # code filename -> module, or None

    def install(self):
        signal.signal(signal.SIGPROF, self._sample)

    @contextlib.contextmanager
    def running(self):
        cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self.cpu_s += time.process_time() - cpu0

    def _sample(self, signum, frame):
        me = threading.get_ident()
        for ident, top in sys._current_frames().items():
            module = self._module(frame if ident == me else top)
            if module is not None:
                self.samples[module] += 1

    def _module(self, frame):
        if frame is None or frame.f_code.co_filename == threading.__file__:
            return None
        while frame is not None:
            filename = frame.f_code.co_filename
            module = self.modules.get(filename, "")
            if module == "":
                module = self.modules[filename] = self._classify(Path(filename))
            if module is not None:
                return module
            frame = frame.f_back
        return None

    def _classify(self, path):
        """utk module stem, "tracing" for this benchmark, None otherwise."""
        if path.parent.name == "utk" or path.parent.parent.name == "utk" and path.parent.name == "model":
            return path.stem
        if str(path.parent) == self.here:
            return "tracing"
        return None

    def self_s(self) -> Counter:
        total = sum(self.samples.values())
        return Counter({m: self.cpu_s * n / total for m, n in self.samples.items()} if total else {})


def _cache(patches, module, name):
    """(hit ratio, lookups) of an lru_cache in `module`; zeros, recorded as
    missing, if it is gone."""
    info = getattr(getattr(module, name, None), "cache_info", None)
    if info is None:
        patches.miss(module, name)
        return 0.0, 0
    info = info()
    lookups = info.hits + info.misses
    return (info.hits / lookups if lookups else 0.0), lookups


def per_layer(tracer: Tracer, record: dict, model_checks):
    """The traced pass's per-layer metrics, before the microbenchmarks, and
    the names of the slowest declaration and check."""
    from utk import kernel as K
    from utk.model import cset

    from metrics import CHECK_FAMILIES

    self_s = tracer.sampler.self_s()
    counts = tracer.counts
    compose_ratio, compose_lookups = _cache(tracer.patches, cset, "_compose")
    apply_ratio, apply_lookups = _cache(tracer.patches, cset, "_apply_cached")
    if counts["kernel.eval_unread"]:
        tracer.patches.miss(K, "evaluate(scope, env, term)")
    starts = counts["selftest.start_checks"]
    problems = counts["selftest.problems"]
    checks = [(name, seconds) for name, seconds in tracer.items if name in model_checks]
    family_s = Counter()
    for name, seconds in checks:
        family_s[name.split("/")[0]] += seconds
    out = {
        "trace.wall_s": record["wall_s"],
        "trace.spans": len(tracer.spans),
        "cli.startup_s": record["startup_s"],
        "parser.s": tracer.busy["parser"],
        "parser.tokens": counts["parser.tokens"],
        "elab.s": tracer.busy["elab"],
        "elab.calls": counts["elab.calls"],
        "corpuscheck.verify_s": tracer.busy["corpuscheck.verify"],
        "kernel.self_s": self_s["kernel"],
        "kernel.check_s": tracer.busy["kernel.check"],
        "kernel.decl_max_s": tracer.decl_max[0],
        "kernel.eval_calls": counts["kernel.eval_calls"],
        "kernel.delta_unfolds": counts["kernel.delta_unfolds"],
        "kernel.convert_calls": counts["kernel.convert_calls"],
        "kernel.conv_s": tracer.busy["kernel.conv"],
        "kernel.max_nesting": tracer.max_depth,
        "kernel.quote_calls": counts["kernel.quote_calls"],
        "kernel.quote_s": tracer.busy["kernel.quote"],
        "interval.self_s": self_s["interval"],
        "interval.dm_ops": counts["interval.dm_ops"],
        "interval.face_ops": counts["interval.face_ops"],
        "cset.self_s": self_s["cset"],
        "cset.restrict_calls": counts["cset.restrict_calls"],
        "cset.apply_dm_calls": counts["cset.apply_dm_calls"],
        "cset.holds_calls": counts["cset.holds_calls"],
        "cset.compose_hit_ratio": compose_ratio,
        "cset.compose_lookups": compose_lookups,
        "cset.apply_hit_ratio": apply_ratio,
        "cset.apply_lookups": apply_lookups,
        "fib.self_s": self_s["fib"],
        "fib.boundary_checks": counts["fib.boundary_checks"],
        "fib.fill_calls": counts["fib.fill_calls"],
        "constructions.self_s": self_s["constructions"],
        "selftest.problems": problems,
        "selftest.problem_yield_ratio": problems / starts if starts else 0.0,
        "selftest.check_max_s": max((s for _, s in checks), default=0.0),
    }
    for family in CHECK_FAMILIES:
        out[f"selftest.check_s.{family}"] = family_s[family]
    notes = {"kernel.decl_max_s": tracer.decl_max[1]} if tracer.decl_max[1] else {}
    if checks:
        notes["selftest.check_max_s"] = max(checks, key=lambda c: c[1])[0]
    return out, notes
