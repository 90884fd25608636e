"""The model self-test: checks of the construction equations on the fixture
library, reported per check.  They sample: 64 problems per stage, path, end
and formula, 200 for `fill/*`, 400 problems and 12 maps per stage in
`fibs_equal`, 20 maps in `cofibration-closure`, and `validate_cset`'s caps."""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import replace

from ..report import Report
from .interval import dm_all, face_bot, face_eq_sym, face_or, face_top
from .cset import (
    CSetMap, Cofibration, CubeMap, DiscreteCSet, IntervalCSet, ProductIntervalCSet,
    TotalCSet, cof_false, cof_interval_eq, cof_true, enumerate_contexts,
    enumerate_maps, fst_map, validate_cset,
)
from .fib import (
    CompositionError, Fib, Problem, check_boundary, check_start_agreement,
    clause_stage, comp_sigma, fill_path,
)
from .constructions import (
    ContrStruct, FibPath, StrictIso, coerce_along,
    coerce_iso_witness, contract_path, endpoint_reindex,
    extend_from_contractible, identity_iso, improve, isofib, isopath, realign,
    reindex_fib, strictify, strictify_fib, veebar,
)
from . import fixtures as FX


# ---------------------------------------------------------------------------
# Problem enumeration


def phi_library(I: frozenset):
    phis = [face_bot(I), face_top(I)]
    for n in sorted(I):
        f0, f1 = face_eq_sym(I, n, 0), face_eq_sym(I, n, 1)
        phis.extend([f0, f1, face_or(f0, f1)])
    return phis


def enumerate_problems(fib: Fib, max_dim: int = 2):
    """Composition problems over the fixture, in the direction z: all stages
    below the dimension bound, every sampled path, every library formula,
    and every compatible assignment of partial values and starting points
    (at most 64 per stage, path, end and formula)."""
    base = fib.base
    family = fib.family
    z = "z"
    for I in enumerate_contexts(max_dim - 1):
        zctx = I | {z}
        for path in base.cells(zctx):
            for e in (0, 1):
                start = base.restrict(CubeMap.face(zctx, frozenset({(z, e)})), path)
                starts = family.sample_fiber(I, start)
                for phi in phi_library(I):
                    clauses = phi.clauses()
                    pools = []
                    for clause in clauses:
                        stage = clause_stage(I, clause) | {z}
                        gz_path = base.restrict(CubeMap.face(zctx, clause), path)
                        pools.append(family.sample_fiber(stage, gz_path))
                    count = 0
                    for a0 in starts:
                        for combo in itertools.product(*pools):
                            problem = Problem(I, z, e, path, phi,
                                              dict(zip(clauses, combo)), a0)
                            if not check_start_agreement(fib, problem):
                                continue
                            count += 1
                            if count > 64:
                                break
                            yield problem
                        if count > 64:
                            break


def comps_agree(f1: Fib, f2: Fib, problems) -> list:
    out = []
    for problem in problems:
        r1 = f1.comp(problem)
        r2 = f2.comp(problem)
        if r1 != r2:
            out.append((problem, r1, r2))
    return out


def fibs_equal(f1: Fib, f2: Fib, max_dim: int = 2) -> list:
    """Equality as finite data: same fibers, same actions, same compositions,
    over the enumerated stages and problems."""
    out = []
    base = f1.base
    for I in enumerate_contexts(max_dim):
        for rho in base.cells(I):
            if Counter(f1.family.fiber(I, rho)) != Counter(f2.family.fiber(I, rho)):
                out.append(("fiber", I, rho))
                continue
            sample = f1.family.sample_fiber(I, rho)
            for dst in enumerate_contexts(max_dim):
                for f in enumerate_maps(I, dst)[:12]:
                    for x in sample:
                        r1 = f1.family.restrict(rho, f, x)
                        r2 = f2.family.restrict(rho, f, x)
                        if r1 != r2:
                            out.append(("action", I, rho, f, x))
    out.extend(("comp",) + v for v in comps_agree(
        f1, f2, itertools.islice(enumerate_problems(f1, max_dim), 0, 400)))
    return out


# ---------------------------------------------------------------------------
# The battery


def _run_check(report: Report, name: str, fn):
    t0 = time.perf_counter()
    try:
        violations = fn()
        if violations:
            report.add_error(name, f"{len(violations)} violations, first: {violations[0]!r}",
                             time.perf_counter() - t0)
        else:
            report.add_ok(name, time.perf_counter() - t0)
    except Exception as exc:
        report.add_error(name, f"exception: {exc}", time.perf_counter() - t0)


# The three check shapes most checks are built from.


def _boundary(fib: Fib, max_dim: int) -> list:
    """Boundary violations of fib's composition on every enumerated problem."""
    out = []
    for problem in enumerate_problems(fib, max_dim):
        out.extend(check_boundary(fib, problem, fib.comp(problem)))
    return out


def _endpoints(path: FibPath, max_dim: int) -> list:
    """Differences between the ends of the path's line and its recorded
    source and target."""
    base = path.source.base
    return [(e,) + v for e, end in ((0, path.source), (1, path.target))
            for v in fibs_equal(endpoint_reindex(path.line, base, e), end, max_dim)]


def _witness(iso: StrictIso, path: FibPath, max_dim: int) -> list:
    """Violations of the coercion witness at every stage below the bound: its
    w = 0 end must be iso.fwd(a), its w = 1 end the coercion of a along path."""
    B = path.target
    out = []
    for I in enumerate_contexts(max_dim - 1):
        wctx = I | {"w"}
        ends = [CubeMap.face(wctx, frozenset({("w", e)})) for e in (0, 1)]
        for x in B.base.cells(I):
            x_w = B.base.restrict(CubeMap.weaken(I, wctx), x)
            for a in iso.source.sample_fiber(I, x):
                q = coerce_iso_witness(iso, B, I, x, a)
                at0, at1 = (B.family.restrict(x_w, f, q) for f in ends)
                if at0 != iso.fwd(I, x, a):
                    out.append(("at0", I, x, a, at0))
                if at1 != coerce_along(path, I, x, a):
                    out.append(("at1", I, x, a, at1))
    return out


def _swap_iso(A: Fib, mapping: dict) -> StrictIso:
    inverse = {v: k for k, v in mapping.items()}
    return StrictIso(A.family, lambda I, rho, a: mapping[a],
                     lambda I, rho, b: inverse[b])


# The cofibrations over the interval that realignment and strictification
# are checked at.
_COFIBRATIONS = (cof_false(), cof_true(), cof_interval_eq(0))


def check_functor_laws(report: Report, fixtures, max_dim: int):
    for fx in fixtures:
        _run_check(report, f"functor-laws/{fx.name}",
                   lambda fx=fx: validate_cset(fx.fib.base, max_dim)
                   + validate_cset(fx.fib.family, max_dim))


def check_boundaries(report: Report, fixtures, max_dim: int):
    base, _, _, sigma = FX.sigma_fixture()
    fibs = [(fx.name, fx.fib) for fx in fixtures]
    fibs += [("sigma", sigma), ("unit", FX.discrete_fib(base, ["*"]))]
    for name, fib in fibs:
        _run_check(report, f"comp-boundary/{name}",
                   lambda fib=fib: _boundary(fib, max_dim))


def check_fill(report: Report, fixtures, max_dim: int):
    for fx in fixtures:
        def run(fib=fx.fib):
            out = []
            for problem in itertools.islice(enumerate_problems(fib, max_dim), 0, 200):
                p = fill_path(fib, problem)
                start, end = (fib.family.restrict(problem.path, problem.end_map(e), p)
                              for e in (problem.e, 1 - problem.e))
                if start != problem.a0:
                    out.append(("fill-start", problem))
                if end != fib.comp(problem):
                    out.append(("fill-end", problem))
            return out
        _run_check(report, f"fill/{fx.name}", run)


def check_realign(report: Report, max_dim: int):
    fib = FX.discrete_fib(IntervalCSet(), ["x", "y"])
    for cof in _COFIBRATIONS:
        def run(cof=cof):
            realigned = realign(cof, fib, fib)
            out = []
            for problem in enumerate_problems(fib, max_dim):
                in_region = cof.face(problem.zctx, problem.path).is_top
                r = realigned.comp(problem)
                out.extend(("boundary",) + v
                           for v in check_boundary(fib, problem, r))
                if in_region and r != fib.comp(problem):
                    out.append(("restriction-equation", problem))
            return out

        _run_check(report, f"realign/restriction/{cof.name}", run)

    # reindexing stability along the interval endomaps
    cof = cof_interval_eq(0)
    for gamma in FX.base_maps():
        def run_stab(gamma=gamma):
            lhs = reindex_fib(realign(cof, fib, fib), gamma)
            cof_g = Cofibration(lambda c, x: cof.face(c, gamma.apply(c, x)))
            fib_g = reindex_fib(fib, gamma)
            rhs = realign(cof_g, fib_g, fib_g)
            return comps_agree(lhs, rhs, enumerate_problems(lhs, max_dim))

        _run_check(report, f"realign/reindex-stability/{gamma.name}", run_stab)


def check_isofib(report: Report, max_dim: int):
    point = DiscreteCSet(["pt"])
    fib = FX.discrete_fib(point, ["x", "y"])
    _run_check(report, "isofib/identity-law",
               lambda: comps_agree(isofib(identity_iso(fib.family), fib), fib,
                                   enumerate_problems(fib, max_dim)))

    swap = {"x": "y", "y": "x"}
    swapped = isofib(_swap_iso(FX.discrete_fib(point, ["x", "y"]), swap), fib)

    def run_swap():
        out = []
        for problem in enumerate_problems(swapped, max_dim):
            result = swapped.comp(problem)
            expected = swap[fib.comp(replace(
                problem, a0=swap[problem.a0],
                values={c: swap[v] for c, v in problem.values.items()}))]
            if result != expected:
                out.append((problem, result, expected))
            out.extend(check_boundary(swapped, problem, result))
        return out

    _run_check(report, "isofib/swap-conjugation", run_swap)


def check_strictify(report: Report, max_dim: int):
    iv = IntervalCSet()
    B = FX.discrete_fib(iv, ["x", "y"])
    A = FX.discrete_fib(iv, ["u", "v"])
    iso = _swap_iso(A, {"u": "x", "v": "y"})
    for cof in _COFIBRATIONS:
        def run(cof=cof):
            family, iso2 = strictify(cof, A.family, B.family, iso)
            out = validate_cset(family, max_dim, max_points=12, max_pairs=250)
            for I in enumerate_contexts(max_dim):
                for rho in iv.cells(I):
                    inside = cof.holds(I, rho)
                    got = sorted(family.fiber(I, rho))
                    want = sorted((A if inside else B).family.fiber(I, rho))
                    if got != want:
                        out.append(("fiber", I, rho))
                    for a in family.fiber(I, rho):
                        image = iso2.fwd(I, rho, a)
                        want_img = iso.fwd(I, rho, a) if inside else a
                        if image != want_img:
                            out.append(("iso-extends", I, rho, a))
                        if iso2.bwd(I, rho, image) != a:
                            out.append(("iso-retract", I, rho, a))
            return out

        _run_check(report, f"strictify/{cof.name}", run)

    for cof in _COFIBRATIONS:
        def run_fib(cof=cof):
            fib2, iso2 = strictify_fib(cof, A, B, iso)
            out = []
            for problem in enumerate_problems(fib2, max_dim):
                result = fib2.comp(problem)
                out.extend(check_boundary(fib2, problem, result))
                if cof.face(problem.zctx, problem.path).is_top:
                    if result != A.comp(problem):
                        out.append(("A-restriction", problem))
            for I in enumerate_contexts(max_dim):
                for rho in iv.cells(I):
                    if cof.holds(I, rho):
                        if sorted(fib2.family.fiber(I, rho)) != sorted(A.family.fiber(I, rho)):
                            out.append(("fiber", I, rho))
                        for a in A.family.fiber(I, rho):
                            if iso2.fwd(I, rho, a) != iso.fwd(I, rho, a):
                                out.append(("iso-restricts", I, rho, a))
            return out

        _run_check(report, f"strictify-fib/{cof.name}", run_fib)


def check_paths(report: Report, max_dim: int):
    """veebar, improve, isopath and the coercion witness on two two-point
    fibrations over the point."""
    point = DiscreteCSet(["pt"])
    A = FX.discrete_fib(point, ["x", "y"])
    B = FX.discrete_fib(point, ["s", "t"])
    iso = _swap_iso(A, {"x": "s", "y": "t"})
    path = isopath(iso, A, B)
    vee = veebar(A, B)
    _run_check(report, "veebar/endpoints",
               lambda: _endpoints(FibPath(vee, A, B), max_dim))

    def run_case_split():
        at0 = endpoint_reindex(vee, point, 0)
        return comps_agree(at0, A, enumerate_problems(at0, max_dim))

    _run_check(report, "veebar/case-split", run_case_split)

    def run_improve_trivial():
        # a trivial misalignment: the constant line at A, identity isos
        line = reindex_fib(A, fst_map(ProductIntervalCSet(point)))
        ident = identity_iso(A.family)
        return _endpoints(improve(line, ident, ident, A, A), max_dim)

    _run_check(report, "improve/identity-endpoints", run_improve_trivial)
    _run_check(report, "isopath/endpoints", lambda: _endpoints(path, max_dim))
    _run_check(report, "isopath/identity",
               lambda: _endpoints(isopath(identity_iso(A.family), A, A), max_dim))

    def run_coerce():
        out = []
        for x in point.cells(frozenset()):
            for a in A.family.fiber(frozenset(), x):
                got = coerce_along(path, frozenset(), x, a)
                if got != iso.fwd(frozenset(), x, a):
                    out.append((x, a, got))
        return out

    _run_check(report, "isopath/coerce-is-swap", run_coerce)
    _run_check(report, "coerce-iso-witness/swap", lambda: _witness(iso, path, max_dim))


def check_axioms(report: Report, fixtures, max_dim: int) -> None:
    """Semantic axioms (1)-(5): unit and flip paths via isopath with their
    coercion witnesses, and contract for the contractible fixtures."""
    for fx in fixtures:
        A = fx.fib
        sigma_a1 = comp_sigma(A, FX.discrete_fib(TotalCSet(A.base, A.family), ["*"]))
        iso1 = StrictIso(A.family, lambda I, rho, a: (a, "*"), lambda I, rho, p: p[0])
        path = isopath(iso1, A, sigma_a1)
        _run_check(report, f"axiom-1-unit/{fx.name}",
                   lambda path=path: _endpoints(path, max_dim))
        _run_check(report, f"axiom-4-unit-beta/{fx.name}",
                   lambda iso1=iso1, path=path: _witness(iso1, path, max_dim))

    # axioms (2) and (5): the double sum flip on discrete data
    point = DiscreteCSet(["pt"])
    A = FX.discrete_fib(point, ["a1", "a2"])
    B = FX.discrete_fib(point, ["b1", "b2"])
    cvals = {"a1": ["c1", "c2"], "a2": ["c3"]}

    total_a = TotalCSet(point, A.family)
    b_over_a = FX.label_fib(total_a, lambda rho: ["b1", "b2"])
    c_over_ab = FX.label_fib(TotalCSet(total_a, b_over_a.family),
                             lambda rho: cvals[rho[0][1]])
    sigma_ab = comp_sigma(A, comp_sigma(b_over_a, c_over_ab))

    total_b = TotalCSet(point, B.family)
    a_over_b = FX.label_fib(total_b, lambda rho: ["a1", "a2"])
    c_over_ba = FX.label_fib(TotalCSet(total_b, a_over_b.family),
                             lambda rho: cvals[rho[1]])
    sigma_ba = comp_sigma(B, comp_sigma(a_over_b, c_over_ba))

    def flip(I, rho, t):
        return (t[1][0], (t[0], t[1][1]))

    flip_iso = StrictIso(sigma_ab.family, flip, flip)
    path = isopath(flip_iso, sigma_ab, sigma_ba)
    _run_check(report, "axiom-2-flip", lambda: _endpoints(path, max_dim))
    _run_check(report, "axiom-5-flip-beta", lambda: _witness(flip_iso, path, max_dim))

    # axiom (3): contractible fixtures contract onto the unit
    for fx in fixtures:
        if fx.contractible is not None:
            _run_check(report, f"axiom-3-contract/{fx.name}",
                       lambda fx=fx: _endpoints(contract_path(fx.fib, fx.contractible),
                                                max_dim))


def check_contract_reindexing(report: Report, max_dim: int):
    iv = IntervalCSet()
    fib = FX.discrete_fib(iv, ["x"])
    contr = ContrStruct(lambda I, rho: "x", lambda I, rho, a, z: "x")

    for gamma in FX.base_maps():
        def run(gamma=gamma):
            line = contract_path(fib, contr).line
            lhs = reindex_fib(
                line, CSetMap(ProductIntervalCSet(iv),
                              lambda c, x: (gamma.apply(c, x[0]), x[1])))
            rhs = contract_path(reindex_fib(fib, gamma), contr).line
            return fibs_equal(lhs, rhs, max_dim)

        _run_check(report, f"contract/reindex-stability/{gamma.name}", run)


def check_extension(report: Report, max_dim: int):
    point = DiscreteCSet(["pt"])
    w = FX.interval_fib(point)
    contr = FX.interval_contraction(point)
    ext = extend_from_contractible(w, contr)

    def run():
        out = []
        for I in enumerate_contexts(max_dim - 1):
            for phi in phi_library(I):
                pools = [[(clause, v) for v in dm_all(clause_stage(I, clause))]
                         for clause in phi.clauses()]
                for combo in itertools.product(*pools):
                    values = dict(combo)
                    try:
                        result = ext(I, "pt", phi, values)
                    except CompositionError as exc:
                        out.append(("unsupported", phi, exc))
                        continue
                    for clause, v in values.items():
                        got = w.family.restrict("pt", CubeMap.face(I, clause), result)
                        if got != v:
                            out.append(("extension", phi, clause, got, v))
        return out

    _run_check(report, "extension-structure/interval-fiber", run)


def check_cofibration_closure(report: Report, max_dim: int):
    iv = IntervalCSet()
    cofs = [cof_interval_eq(0), cof_interval_eq(1)]

    def run():
        out = []
        for cof in cofs:
            for I in enumerate_contexts(max_dim):
                for x in iv.cells(I):
                    if not cof.holds(I, x):
                        continue
                    for dst in enumerate_contexts(max_dim):
                        for f in enumerate_maps(I, dst)[:20]:
                            if not cof.holds(dst, iv.restrict(f, x)):
                                out.append((cof.name, I, x, f))
        return out

    _run_check(report, "cofibration-closure", run)


def run(max_dim: int = 2, fixtures_path=None) -> Report:
    report = Report()
    if not (2 <= max_dim <= 3):
        report.add_error("config", f"max dimension must be 2 or 3, got {max_dim}")
        return report
    fixtures = FX.builtin_fixtures()
    if fixtures_path:
        fixtures = fixtures + FX.load_fixture_file(fixtures_path)
    check_functor_laws(report, fixtures, max_dim)
    check_cofibration_closure(report, max_dim)
    check_boundaries(report, fixtures, max_dim)
    check_fill(report, fixtures, max_dim)
    check_realign(report, max_dim)
    check_isofib(report, max_dim)
    check_strictify(report, max_dim)
    check_paths(report, max_dim)
    check_axioms(report, fixtures, max_dim)
    check_contract_reindexing(report, max_dim)
    check_extension(report, max_dim)
    return report
