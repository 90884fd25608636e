"""The fixture library the self-test battery runs on, and the plain-text
fixture format for user-supplied tables.

Built-in fixtures: constant discrete sets of sizes 1..3 over a point, one of
size 2 over the truncated representable interval (`interval/two`), and the
interval over a point with a contraction, whose composition is not uniform
(tests/test_fib.py::test_composition_commutes_with_restriction).  Beside
them are a dependent sum over a two-point base with an interval-valued
slice and base maps for reindexing checks.  A fixture is a name, a
fibration and, for the contractible ones, a contraction; its base is the
fibration's base.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .interval import dm_const, dm_meet, dm_neg, dm_sym
from .cset import (
    CSetMap, CubeMap, CubicalSet, DiscreteCSet, Family, IntervalCSet,
    IntervalFamily, TotalCSet,
)
from .fib import (
    Fib, comp_discrete, comp_interval, comp_sigma, discrete_fib, label_fib,
)
from .constructions import ContrStruct


def interval_fib(base: CubicalSet) -> Fib:
    return Fib(IntervalFamily(base), comp_interval)


def interval_contraction(base: CubicalSet) -> ContrStruct:
    """The interval is contractible onto 0 via the meet connection."""

    def centre(I, rho):
        return dm_const(I, 0)

    def path(I, rho, a, z):
        zctx = I | {z}
        weak = CubeMap.weaken(I, zctx)
        return dm_meet(dm_sym(zctx, z), weak.apply_dm(a))

    return ContrStruct(centre, path)


class TotalSliceFamily(Family):
    """Over the total set of a discrete family: an independent family per
    total point."""

    def __init__(self, total: TotalCSet, slices: dict):
        super().__init__(total)
        self.slices = slices  # total point -> Family

    def fiber(self, context, rho):
        return self.slices[rho].fiber(context, rho)

    def restrict(self, rho, f, a):
        return self.slices[rho].restrict(rho, f, a)


def sigma_fixture():
    """A dependent sum over a two-point base: the fiber over one point is the
    interval, over the other a singleton."""
    base = DiscreteCSet(["p", "q"])
    A = discrete_fib(base, ["a1", "a2"])
    total = TotalCSet(base, A.family)
    w_family = IntervalFamily(total)
    unit_family = discrete_fib(total, ["u"]).family
    slices = {
        ("p", "a1"): w_family,
        ("p", "a2"): unit_family,
        ("q", "a1"): unit_family,
        ("q", "a2"): unit_family,
    }
    family = TotalSliceFamily(total, slices)

    def comp(problem):
        # the base is discrete, so the slice is constant along the path
        rho = total.restrict(problem.end_map(0), problem.path)
        if slices[rho] is w_family:
            return comp_interval(problem)
        return comp_discrete(problem)

    B = Fib(family, comp)
    return base, A, B, comp_sigma(A, B)


@dataclass
class Fixture:
    name: str
    fib: Fib
    contractible: object = None  # ContrStruct when applicable


def base_maps():
    """Nontrivial base endomaps of the interval for reindexing checks."""
    iv = IntervalCSet()
    neg = CSetMap(iv, lambda I, r: dm_neg(r), name="neg")
    squash = CSetMap(iv, lambda I, r: dm_meet(r, dm_neg(r)), name="r/\\~r")
    return [neg, squash]


def builtin_fixtures():
    point = DiscreteCSet(["pt"])
    iv = IntervalCSet()
    fixtures = [
        Fixture("pt/one", discrete_fib(point, ["x"]),
                contractible=ContrStruct(
                    lambda I, rho: "x",
                    lambda I, rho, a, z: "x")),
        Fixture("pt/two", discrete_fib(point, ["x", "y"])),
        Fixture("pt/three", discrete_fib(point, ["x", "y", "w"])),
        Fixture("interval/two", discrete_fib(iv, ["x", "y"])),
        Fixture("pt/interval-fiber", interval_fib(point),
                contractible=interval_contraction(point)),
    ]
    return fixtures


# ---------------------------------------------------------------------------
# Plain-text fixture tables
#
#   cset <name>
#     cells: a b c
#   family <name> over <cset>
#     fiber a: u v
#     fiber b: w
#
# Declares constant (discrete) cubical sets and families over them; a family
# gives one fiber line for each cell of its cset and for no other.  Blocks
# are separated by blank lines, comments start with '#'.  Nothing may be
# declared twice: no cset or family name, cells line, cell, fiber or label.


class FixtureFormatError(Exception):
    pass


def _once(seen: set, item, lineno: int, what: str):
    """Record `item` in `seen`; a fixture file declares nothing twice."""
    if item in seen:
        raise FixtureFormatError(f"line {lineno}: {what} is declared twice")
    seen.add(item)


def load_fixture_file(path) -> list:
    text = Path(path).read_text()
    csets = {}
    fixtures = []
    mode = None
    fibers = {}
    name = None
    over = None

    def finish():
        nonlocal mode, fibers
        if mode == "family":
            base = csets.get(over)
            if base is None:
                raise FixtureFormatError(f"family {name} over unknown cset {over}")
            missing = [c for c in base.labels if c not in fibers]
            if missing:
                raise FixtureFormatError(f"family {name} is missing fibers for {missing}")
            stray = [c for c in fibers if c not in base.labels]
            if stray:
                raise FixtureFormatError(
                    f"family {name} has fibers for cells {stray} not in {over}")
            fixtures.append(Fixture(f"loaded/{name}",
                                    label_fib(base, dict(fibers).__getitem__)))
        mode = None
        fibers = {}

    declared = set()  # (kind, name, ...) of everything declared so far
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            finish()
            continue
        parts = line.split()
        if parts[0] == "cset":
            finish()
            if len(parts) != 2:
                raise FixtureFormatError(f"bad cset header: {line!r}")
            name = parts[1]
            mode = "cset"
            _once(declared, (mode, name), lineno, f"cset {name}")
        elif parts[0] == "family":
            finish()
            if len(parts) != 4 or parts[2] != "over":
                raise FixtureFormatError(f"bad family header: {line!r}")
            name, over = parts[1], parts[3]
            mode = "family"
            _once(declared, (mode, name), lineno, f"family {name}")
        elif parts[0] == "cells:" and mode == "cset":
            _once(declared, ("cells", name), lineno, f"the cells line of cset {name}")
            for cell in parts[1:]:
                _once(declared, ("cell", name, cell), lineno, f"cell {cell} of cset {name}")
            csets[name] = DiscreteCSet(parts[1:])
        elif parts[0] == "fiber" and mode == "family" and len(parts) > 1:
            cell = parts[1].rstrip(":")
            _once(declared, ("fiber", name, cell), lineno, f"the fiber over {cell} in family {name}")
            for label in parts[2:]:
                _once(declared, ("label", name, cell, label), lineno,
                      f"label {label} of the fiber over {cell}")
            fibers[cell] = parts[2:]
        else:
            raise FixtureFormatError(f"unrecognized fixture line: {line!r}")
    finish()
    return fixtures
