"""Microbenchmarks: the cost of single operations once caches are warm, and
the scaling of nested applications.

Each operation is timed over batches sized to take about 20 ms; the result is
the median batch's time per call, in microseconds.  Set-up (checking the
corpus, building the operands) is reported on its own as micro.setup_s.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

BATCHES = 15
BATCH_S = 0.02
NEST_SERIES = (250, 500, 1000)
# The corpus definition whose body (under its binders) and declared type are
# the operands of the kernel microbenchmarks.
KERNEL_DEF = "thm_naiveuniv_fwd"


def per_call_us(fn) -> float:
    fn()  # fill caches
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= BATCH_S / 4:
            break
        calls *= 2
    calls = max(1, int(calls * BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def model_ops():
    from utk.model.cset import CubeMap
    from utk.model.interval import ctx, dm_meet, dm_neg, dm_sym, face_of_eq

    c3 = ctx("i", "j", "k")
    c2 = ctx("i", "j")
    i, j = dm_sym(c3, "i"), dm_sym(c3, "j")
    r = dm_meet(i, dm_neg(j))
    face = CubeMap.face(c3, frozenset({("k", 0)}))
    swap = CubeMap.make(c2, c2, {"i": dm_sym(c2, "j"), "j": dm_sym(c2, "i")})
    return {
        "interval.meet_us": lambda: dm_meet(i, j),
        "interval.sym_us": lambda: dm_sym(c3, "j"),
        "interval.face_of_eq_us": lambda: face_of_eq(r, 0),
        "cset.then_us": lambda: face.then(swap),
        "cset.apply_dm_us": lambda: face.apply_dm(r),
    }


def kernel_ops(corpus: Path):
    """evaluate: the body of KERNEL_DEF under fresh variables for its leading
    binders.  convert: two separate evaluations of its type, which share no
    objects, so conversion walks both."""
    from utk import corpuscheck as C
    from utk import kernel as K
    from utk import syntax as S

    core, scope, report = C.check_corpus(corpus)
    if not report.ok:
        raise RuntimeError("micro set-up: the corpus does not check")
    decls = {d.name: d for d in core}
    body = decls[KERNEL_DEF].body
    chk = K.Checker(scope)
    ty = chk.eval(decls[KERNEL_DEF].type)
    while isinstance(body, S.Lambda) and isinstance(ty, K.VPi):
        chk = chk.bind(body.hint, ty.domain)
        body, ty = body.body, ty.codomain.apply(chk.env[-1])
    env = chk.env
    t1 = K.evaluate(scope, (), decls[KERNEL_DEF].type)
    t2 = K.evaluate(scope, (), decls[KERNEL_DEF].type)
    if not K.convert_type(0, t1, t2):
        raise RuntimeError("micro set-up: a type does not convert with itself")
    return {
        "kernel.eval_us": lambda: K.evaluate(scope, env, body),
        "kernel.convert_us": lambda: K.convert_type(0, t1, t2),
    }


def nest_series(work: Path) -> dict:
    """`utk check` on nested chains of NEST_SERIES depths: the time at the
    largest, and the log-log slope of time against depth."""
    import child
    import inputs

    times = []
    for depth in NEST_SERIES:
        path = work / f"nest-{depth}.tt"
        path.write_text(inputs.nest_source(depth))
        t0 = time.perf_counter()
        rows = child.run_cli_json(["check", str(path)])
        times.append(time.perf_counter() - t0)
        if [status for _, status in rows] != ["ok", "ok"]:
            raise RuntimeError(f"micro: nested chain of depth {depth} does not check")
    xs = [math.log(n) for n in NEST_SERIES]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return {"kernel.nest_1000_s": times[-1], "kernel.nest_exponent": slope}


def measure(spec) -> dict:
    import child

    def run():
        t0 = time.perf_counter()
        ops = model_ops()
        ops.update(kernel_ops(Path(spec["corpus_dir"])))
        out = {"micro.setup_s": time.perf_counter() - t0}
        for name, fn in ops.items():
            out[name] = per_call_us(fn)
        return out

    out = child.in_worker(run)
    out.update(nest_series(Path(spec["work"])))
    return {"layers": out}
