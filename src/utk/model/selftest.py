"""The model self-test: exhaustive checks of the construction equations on
the fixture library, reported per check."""

from __future__ import annotations

import itertools
import time

from ..report import Report
from .interval import (
    ctx as mkctx, dm_all, dm_const, dm_sym, face_bot, face_eq_sym, face_or,
    face_top,
)
from .cset import (
    CANONICAL_DIMS, CSetMap, Cofibration, ConstantFamily, CubeMap, DiscreteCSet,
    Family, IntervalCSet, PointCSet, ProductIntervalCSet, SigmaFamily,
    TotalCSet, cof_endpoints, cof_false, cof_interval_eq, cof_true,
    enumerate_contexts, enumerate_maps, validate_cset, pairing_map,
)
from .fib import (
    CompositionError, Fib, Partial, Problem, check_boundary,
    check_start_agreement, comp_sigma, comp_unit, fill, path_at,
)
from .constructions import (
    FibPath, MisalignedPath, StrictIso, coerce_along, coerce_iso_witness,
    contract_path, contraction_fib, endpoint_reindex, extend_from_contractible,
    identity_iso, improve, isofib, isopath, realign, reindex_fib, strictify,
    strictify_fib, veebar,
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


def enumerate_problems(fib: Fib, max_dim: int = 2, z: str = "z",
                       per_shape: int = 64):
    """Composition problems over the fixture: all stages below the dimension
    bound, every sampled path, every library formula, and every compatible
    assignment of partial values and starting points (capped per shape)."""
    base = fib.base
    family = fib.family
    from .cset import extend_clause_map
    from .fib import clause_stage

    for I in enumerate_contexts(max_dim - 1):
        zctx = I | {z}
        for path in base.sample_cells(zctx):
            for e in (0, 1):
                start = base.restrict(
                    zctx, CubeMap.face(zctx, frozenset({(z, e)})), path)
                starts = FX.sample_fiber(family, I, start)
                for phi in phi_library(I):
                    clauses = phi.clauses()
                    pools = []
                    for clause in clauses:
                        stage = clause_stage(I, clause) | {z}
                        gz = extend_clause_map(CubeMap.face(I, clause), z)
                        gz_path = base.restrict(zctx, gz, path)
                        pools.append(FX.sample_fiber(family, stage, gz_path))
                    count = 0
                    for a0 in starts:
                        for combo in itertools.product(*pools):
                            problem = Problem(
                                I, z, e, path, phi,
                                Partial(phi, dict(zip(clauses, combo))), a0)
                            if not check_start_agreement(fib, problem):
                                continue
                            count += 1
                            if count > per_shape:
                                break
                            yield problem
                        if count > per_shape:
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
        for rho in base.sample_cells(I):
            a = sorted(map(repr, f1.family.fiber(I, rho)))
            b = sorted(map(repr, f2.family.fiber(I, rho)))
            if a != b:
                out.append(("fiber", I, rho))
                continue
            for dst in enumerate_contexts(max_dim):
                for f in enumerate_maps(I, dst)[:12]:
                    for x in FX.sample_fiber(f1.family, I, rho):
                        r1 = f1.family.restrict(I, rho, f, x)
                        r2 = f2.family.restrict(I, rho, f, x)
                        if r1 != r2:
                            out.append(("action", I, rho, f, x))
    out.extend(("comp",) + v for v in comps_agree(
        f1, f2, itertools.islice(enumerate_problems(f1, max_dim), 0, 400)))
    return out


# ---------------------------------------------------------------------------
# The battery


def _run_check(report: Report, name: str, fn):
    t0 = time.time()
    try:
        violations = fn()
        if violations:
            sample = violations[0]
            report.add_error(name, f"{len(violations)} violations, first: {sample!r}"[:300],
                             time.time() - t0)
        else:
            report.add_ok(name, time.time() - t0)
    except Exception as exc:
        report.add_error(name, f"exception: {exc}", time.time() - t0)


def check_functor_laws(report: Report, fixtures, max_dim: int):
    for fx in fixtures:
        _run_check(report, f"functor-laws/{fx.name}",
                   lambda fx=fx: validate_cset(fx.base, max_dim)
                   + validate_cset(fx.fib.family, max_dim))


def check_boundaries(report: Report, fixtures, max_dim: int):
    for fx in fixtures:
        def run(fx=fx):
            out = []
            for problem in enumerate_problems(fx.fib, max_dim):
                result = fx.fib.comp(problem)
                out.extend(check_boundary(fx.fib, problem, result))
            return out
        _run_check(report, f"comp-boundary/{fx.name}", run)


def check_sigma(report: Report, max_dim: int):
    base, A, B, sigma = FX.sigma_fixture()

    def run():
        out = []
        for problem in enumerate_problems(sigma, max_dim):
            result = sigma.comp(problem)
            out.extend(check_boundary(sigma, problem, result))
        return out

    _run_check(report, "comp-boundary/sigma", run)

    def run_unit():
        unit = comp_unit(base)
        out = []
        for problem in enumerate_problems(unit, max_dim):
            if unit.comp(problem) != "*":
                out.append(problem)
            out.extend(check_boundary(unit, problem, unit.comp(problem)))
        return out

    _run_check(report, "comp-boundary/unit", run_unit)


def check_fill(report: Report, fixtures, max_dim: int):
    for fx in fixtures:
        def run(fx=fx):
            out = []
            base = fx.fib.base
            family = fx.fib.family
            for problem in itertools.islice(
                    enumerate_problems(fx.fib, max_dim), 0, 200):
                q = fill(fx.fib, problem, "w")
                wctx = problem.I | {"w"}
                to_w = CubeMap.make(
                    problem.zctx, wctx,
                    {**{n: dm_sym(wctx, n) for n in problem.I},
                     problem.z: dm_sym(wctx, "w")})
                path_w = base.restrict(problem.zctx, to_w, problem.path)
                # q at w = e is the starting element
                at_e = family.restrict(
                    wctx, path_w,
                    CubeMap.face(wctx, frozenset({("w", problem.e)})), q)
                if at_e != problem.a0:
                    out.append(("fill-start", problem))
                # q at w = 1-e is the composition
                at_far = family.restrict(
                    wctx, path_w,
                    CubeMap.face(wctx, frozenset({("w", 1 - problem.e)})), q)
                if at_far != fx.fib.comp(problem):
                    out.append(("fill-end", problem))
            return out
        _run_check(report, f"fill/{fx.name}", run)


def check_realign(report: Report, max_dim: int):
    iv = IntervalCSet()
    fib = FX.discrete_fib(iv, ["x", "y"], "D2/I")
    for cof, cname in [(cof_false(), "bot"), (cof_true(), "top"),
                       (cof_interval_eq(0), "(i=0)")]:
        restricted = Fib(fib.family, fib.comp, name="beta")
        realigned = realign(cof, restricted, fib)

        def run(cof=cof, realigned=realigned, restricted=restricted):
            out = []
            for problem in enumerate_problems(fib, max_dim):
                in_region = cof.face(problem.zctx, problem.path).is_top
                r = realigned.comp(problem)
                out.extend(("boundary",) + v
                           for v in check_boundary(fib, problem, r))
                if in_region and r != restricted.comp(problem):
                    out.append(("restriction-equation", problem))
            return out

        _run_check(report, f"realign/restriction/{cname}", run)

    # reindexing stability along the interval endomaps
    for gamma in FX.base_maps():
        def run_stab(gamma=gamma):
            cof = cof_interval_eq(0)
            beta = Fib(fib.family, fib.comp, name="beta")
            lhs = reindex_fib(realign(cof, beta, fib), gamma)
            cof_g = Cofibration(lambda c, x: cof.face(c, gamma.apply(c, x)),
                                name="cof.g")
            beta_g = reindex_fib(fib, gamma)
            rhs = realign(cof_g, Fib(beta_g.family, beta_g.comp, name="beta.g"),
                          beta_g)
            return comps_agree(lhs, rhs, enumerate_problems(lhs, max_dim))

        _run_check(report, f"realign/reindex-stability/{gamma.name}", run_stab)


def check_isofib(report: Report, max_dim: int):
    point = PointCSet()
    fib = FX.discrete_fib(point, ["x", "y"], "D2")

    def run_identity():
        ident = isofib(identity_iso(fib.family), fib)
        return comps_agree(ident, fib, enumerate_problems(fib, max_dim))

    _run_check(report, "isofib/identity-law", run_identity)

    swap = {"x": "y", "y": "x"}
    other = FX.discrete_fib(point, ["x", "y"], "D2'")
    iso = StrictIso(other.family, fib.family,
                    lambda I, rho, a: swap[a], lambda I, rho, b: swap[b],
                    name="swap")
    swapped = isofib(iso, fib)

    def run_swap():
        out = []
        for problem in enumerate_problems(swapped, max_dim):
            result = swapped.comp(problem)
            expected = swap[fib.comp(Problem(
                problem.I, problem.z, problem.e, problem.path, problem.phi,
                Partial(problem.phi, {c: swap[v] for c, v in
                                      problem.partial.values.items()}),
                swap[problem.a0]))]
            if result != expected:
                out.append((problem, result, expected))
            out.extend(check_boundary(swapped, problem, result))
        return out

    _run_check(report, "isofib/swap-conjugation", run_swap)


def check_strictify(report: Report, max_dim: int):
    iv = IntervalCSet()
    B = FX.discrete_fib(iv, ["x", "y"], "B")
    A = FX.discrete_fib(iv, ["u", "v"], "A")
    swap_fwd = {"u": "x", "v": "y"}
    swap_bwd = {"x": "u", "y": "v"}
    for cof, cname in [(cof_false(), "bot"), (cof_true(), "top"),
                       (cof_interval_eq(0), "(i=0)")]:
        iso = StrictIso(A.family, B.family,
                        lambda I, rho, a: swap_fwd[a],
                        lambda I, rho, b: swap_bwd[b], name="s")
        family, iso2 = strictify(cof, A.family, B.family, iso)

        def run(cof=cof, family=family, iso2=iso2, iso=iso):
            out = validate_cset(family, max_dim, max_points=12, max_pairs=250)
            for I in enumerate_contexts(max_dim):
                for rho in iv.sample_cells(I):
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

        _run_check(report, f"strictify/{cname}", run)


def check_strictify_fib(report: Report, max_dim: int):
    iv = IntervalCSet()
    B = FX.discrete_fib(iv, ["x", "y"], "B")
    A = FX.discrete_fib(iv, ["u", "v"], "A")
    iso = StrictIso(A.family, B.family,
                    lambda I, rho, a: {"u": "x", "v": "y"}[a],
                    lambda I, rho, b: {"x": "u", "y": "v"}[b], name="s")
    for cof, cname in [(cof_false(), "bot"), (cof_true(), "top"),
                       (cof_interval_eq(0), "(i=0)")]:
        fib2, iso2 = strictify_fib(cof, A, B, iso)

        def run(cof=cof, fib2=fib2, iso2=iso2):
            out = []
            for problem in enumerate_problems(fib2, max_dim):
                result = fib2.comp(problem)
                out.extend(check_boundary(fib2, problem, result))
                if cof.face(problem.zctx, problem.path).is_top:
                    if result != A.comp(problem):
                        out.append(("A-restriction", problem))
            for I in enumerate_contexts(max_dim):
                for rho in iv.sample_cells(I):
                    if cof.holds(I, rho):
                        if sorted(fib2.family.fiber(I, rho)) != sorted(A.family.fiber(I, rho)):
                            out.append(("fiber", I, rho))
                        for a in A.family.fiber(I, rho):
                            if iso2.fwd(I, rho, a) != iso.fwd(I, rho, a):
                                out.append(("iso-restricts", I, rho, a))
            return out

        _run_check(report, f"strictify-fib/{cname}", run)


def _endpoint_equal(path: FibPath, fib: Fib, endpoint: int, max_dim: int):
    base = fib.base
    got = endpoint_reindex(path.line, base, endpoint)
    return fibs_equal(got, fib, max_dim)


def check_veebar_improve(report: Report, max_dim: int):
    point = PointCSet()
    A = FX.discrete_fib(point, ["x", "y"], "A")
    B = FX.discrete_fib(point, ["s", "t"], "B")
    vee, _ = veebar(A, B)

    def run_endpoints():
        out = []
        product = ProductIntervalCSet(point)
        for endpoint, side in ((0, A), (1, B)):
            gamma = CSetMap(point, vee.base,
                            lambda c, x, e=endpoint: ((x, dm_const(c, e))),
                            name=f"<id,{endpoint},*>")
            got = reindex_fib(vee, gamma)
            out.extend((endpoint,) + v for v in fibs_equal(got, side, max_dim))
        return out

    _run_check(report, "veebar/endpoints", run_endpoints)

    def run_case_split():
        out = []
        for problem in enumerate_problems(
                reindex_fib(vee, CSetMap(point, vee.base,
                                         lambda c, x: (x, dm_const(c, 0)),
                                         name="at0")), max_dim):
            pushed = Problem(problem.I, problem.z, problem.e,
                             (problem.path, dm_const(problem.zctx, 0)),
                             problem.phi, problem.partial, problem.a0)
            if vee.comp(pushed) != A.comp(problem):
                out.append(problem)
        return out

    _run_check(report, "veebar/case-split", run_case_split)

    # improve on a trivial misalignment: constant line at A, identity isos
    def run_improve_trivial():
        product = ProductIntervalCSet(point)
        from .cset import fst_map
        line = reindex_fib(A, fst_map(product))
        m = MisalignedPath(line,
                           StrictIso(A.family, line.family,
                                     lambda I, r, a: a, lambda I, r, b: b),
                           identity_iso(A.family), A, A)
        improved = improve(m)
        return (_endpoint_equal(improved, A, 0, max_dim)
                + _endpoint_equal(improved, A, 1, max_dim))

    _run_check(report, "improve/identity-endpoints", run_improve_trivial)


def _swap_iso(A: Fib, B: Fib, mapping: dict) -> StrictIso:
    inverse = {v: k for k, v in mapping.items()}
    return StrictIso(A.family, B.family,
                     lambda I, rho, a: mapping[a],
                     lambda I, rho, b: inverse[b], name="swap")


def check_isopath(report: Report, max_dim: int):
    point = PointCSet()
    A = FX.discrete_fib(point, ["x", "y"], "A")
    B = FX.discrete_fib(point, ["s", "t"], "B")
    iso = _swap_iso(A, B, {"x": "s", "y": "t"})

    def run_endpoints():
        path = isopath(iso, A, B)
        return (_endpoint_equal(path, A, 0, max_dim)
                + _endpoint_equal(path, B, 1, max_dim))

    _run_check(report, "isopath/endpoints", run_endpoints)

    def run_identity_iso():
        path = isopath(identity_iso(A.family), A, A)
        return (_endpoint_equal(path, A, 0, max_dim)
                + _endpoint_equal(path, A, 1, max_dim))

    _run_check(report, "isopath/identity", run_identity_iso)

    def run_coerce():
        out = []
        path = isopath(iso, A, B)
        for x in point.cells(frozenset()):
            for a in A.family.fiber(frozenset(), x):
                got = coerce_along(path, frozenset(), x, a)
                if got != iso.fwd(frozenset(), x, a):
                    out.append((x, a, got))
        return out

    _run_check(report, "isopath/coerce-is-swap", run_coerce)


def check_coerce_iso_witness(report: Report, fixtures, max_dim: int):
    point = PointCSet()
    pairs = [
        ("swap", FX.discrete_fib(point, ["x", "y"], "A"),
         FX.discrete_fib(point, ["s", "t"], "B"), {"x": "s", "y": "t"}),
    ]
    for name, A, B, mapping in pairs:
        iso = _swap_iso(A, B, mapping)

        def run(A=A, B=B, iso=iso):
            out = []
            path = isopath(iso, A, B)
            for I in enumerate_contexts(max_dim - 1):
                for x in A.base.sample_cells(I):
                    for a in FX.sample_fiber(A.family, I, x):
                        q = coerce_iso_witness(iso, B, I, x, a)
                        wctx = I | {"w"}
                        x_w = B.base.restrict(I, CubeMap.weaken(I, wctx), x)
                        at0 = B.family.restrict(
                            wctx, x_w, CubeMap.face(wctx, frozenset({("w", 0)})), q)
                        at1 = B.family.restrict(
                            wctx, x_w, CubeMap.face(wctx, frozenset({("w", 1)})), q)
                        if at0 != iso.fwd(I, x, a):
                            out.append(("at0", I, x, a, at0))
                        if at1 != coerce_along(path, I, x, a):
                            out.append(("at1", I, x, a, at1))
            return out

        _run_check(report, f"coerce-iso-witness/{name}", run)


def check_axioms(report: Report, fixtures, max_dim: int) -> None:
    """Semantic axioms (1)-(5): unit and flip paths via isopath with their
    coercion witnesses, and contract for the contractible fixtures."""
    for fx in fixtures:
        A = fx.fib
        base = fx.base
        unit = comp_unit(base)
        sigma_a1 = comp_sigma(A, Fib(
            ConstantFamily(TotalCSet(base, A.family), ["*"], name="1"),
            lambda problem: "*", name="1"))
        iso1 = StrictIso(A.family, sigma_a1.family,
                         lambda I, rho, a: (a, "*"),
                         lambda I, rho, p: p[0], name="pair-unit")

        def run_axiom1(A=A, sigma_a1=sigma_a1, iso1=iso1):
            path = isopath(iso1, A, sigma_a1)
            return (_endpoint_equal(path, A, 0, max_dim)
                    + _endpoint_equal(path, sigma_a1, 1, max_dim))

        _run_check(report, f"axiom-1-unit/{fx.name}", run_axiom1)

        def run_axiom4(A=A, base=base, sigma_a1=sigma_a1, iso1=iso1):
            out = []
            path = isopath(iso1, A, sigma_a1)
            for I in enumerate_contexts(max_dim - 1):
                for x in base.sample_cells(I):
                    for a in FX.sample_fiber(A.family, I, x):
                        q = coerce_iso_witness(iso1, sigma_a1, I, x, a)
                        wctx = I | {"w"}
                        x_w = base.restrict(I, CubeMap.weaken(I, wctx), x)
                        at0 = sigma_a1.family.restrict(
                            wctx, x_w, CubeMap.face(wctx, frozenset({("w", 0)})), q)
                        at1 = sigma_a1.family.restrict(
                            wctx, x_w, CubeMap.face(wctx, frozenset({("w", 1)})), q)
                        if at0 != (a, "*"):
                            out.append(("pair-shape", I, x, a, at0))
                        if at1 != coerce_along(path, I, x, a):
                            out.append(("coerce-end", I, x, a, at1))
            return out

        _run_check(report, f"axiom-4-unit-beta/{fx.name}", run_axiom4)

    # axioms (2) and (5): the double sum flip on discrete data
    point = PointCSet()
    A = FX.discrete_fib(point, ["a1", "a2"], "A")
    B = FX.discrete_fib(point, ["b1", "b2"], "B")

    def cvals(a_label):
        return {"a1": ["c1", "c2"], "a2": ["c3"]}[a_label]

    class FnFamily(Family):
        """Discrete family whose labels depend on the base point."""

        def __init__(self, base, fn, name):
            super().__init__(base)
            self._fn = fn
            self.name = name

        def fiber(self, context, rho):
            return list(self._fn(rho))

        def restrict(self, context, rho, f, a):
            return a

    def disc_fib(family):
        return Fib(family, lambda problem: problem.a0, name=family.name)

    total_a = TotalCSet(point, A.family)
    b_over_a = FnFamily(total_a, lambda rho: ["b1", "b2"], "B'")
    total_ab = TotalCSet(total_a, b_over_a)
    c_over_ab = FnFamily(total_ab, lambda rho: cvals(rho[0][1]), "C")
    sigma_ab = comp_sigma(A, comp_sigma(disc_fib(b_over_a), disc_fib(c_over_ab)))

    total_b = TotalCSet(point, B.family)
    a_over_b = FnFamily(total_b, lambda rho: ["a1", "a2"], "A'")
    total_ba = TotalCSet(total_b, a_over_b)
    c_over_ba = FnFamily(total_ba, lambda rho: cvals(rho[1]), "C'")
    sigma_ba = comp_sigma(B, comp_sigma(disc_fib(a_over_b), disc_fib(c_over_ba)))
    flip_iso = StrictIso(
        sigma_ab.family, sigma_ba.family,
        lambda I, rho, t: (t[1][0], (t[0], t[1][1])),
        lambda I, rho, t: (t[1][0], (t[0], t[1][1])), name="flip")

    def run_axiom2():
        path = isopath(flip_iso, sigma_ab, sigma_ba)
        return (_endpoint_equal(path, sigma_ab, 0, max_dim)
                + _endpoint_equal(path, sigma_ba, 1, max_dim))

    _run_check(report, "axiom-2-flip", run_axiom2)

    def run_axiom5():
        out = []
        path = isopath(flip_iso, sigma_ab, sigma_ba)
        for x in point.cells(frozenset()):
            for t in sigma_ab.family.fiber(frozenset(), x):
                q = coerce_iso_witness(flip_iso, sigma_ba, frozenset(), x, t)
                wctx = frozenset({"w"})
                x_w = "pt"
                at0 = sigma_ba.family.restrict(
                    wctx, x_w, CubeMap.face(wctx, frozenset({("w", 0)})), q)
                at1 = sigma_ba.family.restrict(
                    wctx, x_w, CubeMap.face(wctx, frozenset({("w", 1)})), q)
                a, (b, c) = t
                if at0 != (b, (a, c)):
                    out.append(("triple-shape", t, at0))
                if at1 != coerce_along(path, frozenset(), x, t):
                    out.append(("coerce-end", t, at1))
        return out

    _run_check(report, "axiom-5-flip-beta", run_axiom5)

    # axiom (3): contractible fixtures contract onto the unit
    for fx in fixtures:
        if fx.contractible is None:
            continue

        def run_axiom3(fx=fx):
            path = contract_path(fx.fib, fx.contractible)
            unit = comp_unit(fx.base)
            return (_endpoint_equal(path, fx.fib, 0, max_dim)
                    + _endpoint_equal(path, unit, 1, max_dim))

        _run_check(report, f"axiom-3-contract/{fx.name}", run_axiom3)


def check_contract_reindexing(report: Report, max_dim: int):
    iv = IntervalCSet()
    fib = FX.discrete_fib(iv, ["x"], "D1/I")
    contr = FX.ContrStruct(lambda I, rho: "x", lambda I, rho, a, z: "x")

    for gamma in FX.base_maps():
        def run(gamma=gamma):
            lhs = contract_path(fib, contr)
            lhs_re = reindex_fib(
                lhs.line,
                CSetMap(ProductIntervalCSet(iv), lhs.line.base,
                        lambda c, x: (gamma.apply(c, x[0]), x[1]),
                        name="gamma*I"))
            fib_re = reindex_fib(fib, gamma)
            rhs = contract_path(
                Fib(fib_re.family, fib_re.comp, name="re"),
                FX.ContrStruct(lambda I, rho: "x", lambda I, rho, a, z: "x"))
            return fibs_equal(lhs_re, rhs.line, max_dim)

        _run_check(report, f"contract/reindex-stability/{gamma.name}", run)


def check_extension(report: Report, max_dim: int):
    point = PointCSet()
    w = FX.interval_fib(point)
    contr = FX.interval_contraction(point)
    ext = extend_from_contractible(w, contr)

    def run():
        out = []
        for I in enumerate_contexts(max_dim - 1):
            for phi in phi_library(I):
                clauses = phi.clauses()
                pools = []
                for clause in clauses:
                    from .fib import clause_stage
                    stage = clause_stage(I, clause)
                    pools.append([(clause, v) for v in dm_all(stage)])
                for combo in itertools.product(*pools):
                    values = dict(combo)
                    try:
                        result = ext.extend(I, "pt", phi, values)
                    except CompositionError as exc:
                        out.append(("unsupported", phi, exc))
                        continue
                    for clause, v in values.items():
                        got = w.family.restrict(I, "pt", CubeMap.face(I, clause),
                                                result)
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
                for x in iv.sample_cells(I):
                    if not cof.holds(I, x):
                        continue
                    for dst in enumerate_contexts(max_dim):
                        for f in enumerate_maps(I, dst)[:20]:
                            if not cof.holds(dst, iv.restrict(I, f, x)):
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
    check_sigma(report, max_dim)
    check_fill(report, fixtures, max_dim)
    check_realign(report, max_dim)
    check_isofib(report, max_dim)
    check_strictify(report, max_dim)
    check_strictify_fib(report, max_dim)
    check_veebar_improve(report, max_dim)
    check_isopath(report, max_dim)
    check_coerce_iso_witness(report, fixtures, max_dim)
    check_axioms(report, fixtures, max_dim)
    check_contract_reindexing(report, max_dim)
    check_extension(report, max_dim)
    return report
