"""Cubical sets and families of sets over them, dimension truncated.

A cubical set assigns cells to each dimension context and an action x·f to
each cube map f; the action direction follows the substitution: a map with
source I and target J assigns to every I-symbol a De Morgan element over J,
and carries I-cells to J-cells.  The action reads only f and x, since the
stage of x is f.src.  `cells` is the one enumeration of a stage: every cell
of a finite constant presheaf, a representative family for interval-shaped
ones.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

from .interval import (
    DM, Face, ModelError, ctx_sorted, dm_all, dm_basic, dm_const, dm_is_const,
    dm_join, dm_meet, dm_neg, dm_show, dm_subst, dm_sym, face_bot, face_of_eq,
    face_or, face_top,
)

CANONICAL_DIMS = ("i", "j", "k")


class ElementNotInObjectError(ModelError):
    pass


class CubeMap:
    """A substitution from cells over `src` to cells over `dst`.  Maps are
    interned by value: `make` is the one constructor, so equal maps are the
    same object and compare and hash by identity."""

    __slots__ = ("src", "dst", "assign", "assignment")

    def __repr__(self):
        head = " -> ".join(",".join(ctx_sorted(c)) or "()" for c in (self.src, self.dst))
        body = ", ".join(f"{n}:={dm_show(e)}" for n, e in self.assign)
        return f"CubeMap({head}: {body})" if body else f"CubeMap({head})"

    @staticmethod
    def make(src: frozenset, dst: frozenset, mapping: dict) -> "CubeMap":
        if mapping.keys() != src:
            raise ModelError(f"assignment keys {sorted(mapping)} differ from {sorted(src)}")
        names = ctx_sorted(src)
        key = (src, dst, tuple(mapping[n] for n in names))
        f = _MAPS.get(key)
        if f is None:
            if any(e.ctx != dst for e in key[2]):
                raise ModelError("assignment element over the wrong context")
            f = _MAPS[key] = object.__new__(CubeMap)
            f.src, f.dst, f.assign = src, dst, tuple(zip(names, key[2]))
            f.assignment = MappingProxyType(dict(f.assign))  # shared, so read-only
        return f

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(context: frozenset) -> "CubeMap":
        return CubeMap.make(context, context,
                            {n: dm_sym(context, n) for n in context})

    @staticmethod
    @lru_cache(maxsize=None)
    def weaken(src: frozenset, dst: frozenset) -> "CubeMap":
        if not src <= dst:
            raise ModelError("weakening requires an inclusion")
        return CubeMap.make(src, dst, {n: dm_sym(dst, n) for n in src})

    @staticmethod
    @lru_cache(maxsize=None)
    def face(src: frozenset, clause) -> "CubeMap":
        """Kill the dimensions of `clause` (pairs (symbol, endpoint))."""
        fixed = dict(clause)
        dst = src - set(fixed)
        mapping = {}
        for n in src:
            mapping[n] = dm_const(dst, fixed[n]) if n in fixed else dm_sym(dst, n)
        return CubeMap.make(src, dst, mapping)

    def then(self, other: "CubeMap") -> "CubeMap":
        if self.dst != other.src:
            raise ModelError("maps do not compose")
        return _compose(self, other)

    def apply_dm(self, r: DM) -> DM:
        if r.ctx != self.src:
            raise ElementNotInObjectError("interval element over the wrong context")
        return _apply_cached(self, r)

    def is_identity(self) -> bool:
        return self.src == self.dst and self is CubeMap.identity(self.src)


_MAPS = {}  # (src, dst, components in sorted symbol order) -> CubeMap


@lru_cache(maxsize=None)
def _compose(f: CubeMap, g: CubeMap) -> CubeMap:
    mapping = {n: dm_subst(e, g.assignment, g.dst) for n, e in f.assign}
    return CubeMap.make(f.src, g.dst, mapping)


@lru_cache(maxsize=None)
def _apply_cached(f: CubeMap, r: DM) -> DM:
    return dm_subst(r, f.assignment, f.dst)


@lru_cache(maxsize=None)
def _factor(m: CubeMap, clause: frozenset):
    """The remainder r with `CubeMap.face(m.src, clause).then(r) is m`, or
    None when m does not send each name of the clause to its endpoint."""
    if not all(dm_is_const(m.assignment[nm], e) for nm, e in clause):
        return None
    killed = {nm for nm, _ in clause}
    return CubeMap.make(m.src - killed, m.dst,
                        {nm: e for nm, e in m.assign if nm not in killed})


def sample_dm(context: frozenset) -> tuple:
    """The interval elements problem enumeration visits: the whole algebra
    up to one symbol, the basic elements beyond."""
    return dm_all(context) if len(context) <= 1 else dm_basic(context)


# ---------------------------------------------------------------------------
# Cubical sets


class CubicalSet:
    def cells(self, context: frozenset) -> list:
        """The cells that problem enumeration and the law checks visit over
        context: all of them for a finite constant presheaf, a representative
        family (see `sample_dm`) when the interval makes the stage large."""
        raise NotImplementedError

    def restrict(self, f: CubeMap, x):
        """x·f: carry the cell x over f.src to a cell over f.dst."""
        raise NotImplementedError


class DiscreteCSet(CubicalSet):
    """Constant presheaf on a finite set of labels."""

    def __init__(self, labels):
        self.labels = list(labels)

    def cells(self, context):
        return list(self.labels)

    def restrict(self, f, x):
        if x not in self.labels:
            raise ElementNotInObjectError(f"{x!r} not among {self.labels}")
        return x


class IntervalCSet(CubicalSet):
    """The representable interval: the cells over I are dm(I), of which
    `cells` lists `sample_dm(I)`; the action is substitution."""

    def cells(self, context):
        return list(sample_dm(context))

    def restrict(self, f, x):
        return f.apply_dm(x)


class ProductIntervalCSet(CubicalSet):
    """Base extended by one interval factor: cells are pairs (x, r)."""

    def __init__(self, base: CubicalSet):
        self.base = base

    def cells(self, context):
        return [(x, r) for x in self.base.cells(context) for r in sample_dm(context)]

    def restrict(self, f, x):
        b, r = x
        return (self.base.restrict(f, b), f.apply_dm(r))


class RestrictedCSet(CubicalSet):
    """Subpresheaf of cells satisfying a cofibration (same cell data)."""

    def __init__(self, base: CubicalSet, cof):
        self.base = base
        self.cof = cof

    def cells(self, context):
        return [x for x in self.base.cells(context) if self.cof.holds(context, x)]

    def restrict(self, f, x):
        return self.base.restrict(f, x)


class TotalCSet(CubicalSet):
    """Base extended by a family: cells are pairs (rho, a).  It is the base
    of dependent families, and the law check reads a family as its total
    set."""

    def __init__(self, base: CubicalSet, family):
        self.base = base
        self.family = family

    def cells(self, context):
        return [(rho, a) for rho in self.base.cells(context)
                for a in self.family.fiber(context, rho)]

    def restrict(self, f, x):
        b, a = x
        return (self.base.restrict(f, b), self.family.restrict(b, f, a))


class Cofibration:
    """A cofibration over a cubical set: a natural assignment of a face
    formula to every cell.  Its denotation at each stage is the set of cells
    whose formula is the true one; naturality makes it restriction closed."""

    def __init__(self, fn, name="phi"):
        self.fn = fn
        self.name = name
        self._holds = {}  # (context, cell) -> truth; `fn` is pure

    def face(self, context: frozenset, x) -> Face:
        return self.fn(context, x)

    def holds(self, context: frozenset, x) -> bool:
        key = (context, x)
        out = self._holds.get(key)
        if out is None:
            out = self._holds[key] = self.fn(context, x).is_top
        return out


def cof_false():
    return Cofibration(lambda c, x: face_bot(c), "bot")


def cof_true():
    return Cofibration(lambda c, x: face_top(c), "top")


def cof_endpoints():
    """Over a product-with-interval base: (i = 0) or (i = 1) on the interval
    coordinate."""

    def fn(context, cell):
        _, r = cell
        return face_or(face_of_eq(r, 0), face_of_eq(r, 1))

    return Cofibration(fn, "(i=0)\\/(i=1)")


def cof_interval_eq(endpoint: int):
    """Over the interval base: (x = endpoint) on the cell itself."""
    return Cofibration(lambda c, x: face_of_eq(x, endpoint), f"(i={endpoint})")


# ---------------------------------------------------------------------------
# Families of sets over a cubical set


class Family:
    def __init__(self, base: CubicalSet):
        self.base = base

    def fiber(self, context: frozenset, rho) -> list:
        """The elements over (context, rho).  Membership is `a in fiber`,
        which is exact up to two dimensions, where every family lists its
        whole fiber; the boundary checks ask it only at a problem's stage,
        which has at most two."""
        raise NotImplementedError

    def sample_fiber(self, context: frozenset, rho) -> list:
        """Elements used when enumerating composition problems; families
        with large fibers override this with a representative part."""
        return self.fiber(context, rho)

    def restrict(self, rho, f: CubeMap, a):
        """a·f: carry a in the fiber over (f.src, rho) to the fiber over
        (f.dst, rho·f)."""
        raise NotImplementedError


class LabelFamily(Family):
    """A discrete family: the fiber over rho is labels(rho) at every stage,
    and every restriction keeps the label."""

    def __init__(self, base: CubicalSet, labels):
        super().__init__(base)
        self.labels = labels

    def fiber(self, context, rho):
        return list(self.labels(rho))

    def restrict(self, rho, f, a):
        labels = self.labels(rho)
        if a not in labels:
            raise ElementNotInObjectError(f"{a!r} not among {labels}")
        return a


class IntervalFamily(Family):
    """Fiberwise copy of the interval: A(I, rho) = dm(I).  Up to two
    dimensions the fiber is the whole free algebra (2, 6 and 168 elements);
    beyond, the fiber listing samples the basic elements, and problem
    enumeration samples them beyond one."""

    def fiber(self, context, rho):
        if len(context) > 2:
            return list(dm_basic(context))
        return list(dm_all(context))

    def sample_fiber(self, context, rho):
        return list(sample_dm(context))

    def restrict(self, rho, f, a):
        return f.apply_dm(a)


class SigmaFamily(Family):
    """Dependent sum: fibers are pairs (a, b) with b over the extended base."""

    def __init__(self, first, second):
        super().__init__(first.base)
        self.first = first
        self.second = second  # Family over TotalCSet(base, first)

    def fiber(self, context, rho):
        out = []
        for a in self.first.fiber(context, rho):
            for b in self.second.fiber(context, (rho, a)):
                out.append((a, b))
        return out

    def restrict(self, rho, f, ab):
        a, b = ab
        return (self.first.restrict(rho, f, a), self.second.restrict((rho, a), f, b))


class ReindexedFamily(Family):
    """Family pulled back along a map of cubical sets."""

    def __init__(self, family: Family, gamma):
        super().__init__(gamma.src)
        self.family = family
        self.gamma = gamma

    def fiber(self, context, rho):
        return self.family.fiber(context, self.gamma.apply(context, rho))

    def restrict(self, rho, f, a):
        return self.family.restrict(self.gamma.apply(f.src, rho), f, a)


class CSetMap:
    """A natural map of cubical sets."""

    def __init__(self, src: CubicalSet, fn, name="map"):
        self.src = src
        self.fn = fn
        self.name = name

    def apply(self, context: frozenset, x):
        return self.fn(context, x)


def pairing_map(base: CubicalSet, endpoint: int) -> CSetMap:
    """<id, e> : base -> base * I at a constant endpoint."""
    return CSetMap(base, lambda c, x: (x, dm_const(c, endpoint)))


def fst_map(product: ProductIntervalCSet) -> CSetMap:
    return CSetMap(product, lambda c, x: x[0])


# ---------------------------------------------------------------------------
# Functor law checking on samples: at most `max_points` points per stage (24
# by default) and `max_pairs` map pairs per context triple (600 by default)


def enumerate_contexts(max_dim: int) -> list:
    dims = CANONICAL_DIMS[:max_dim]
    out = []
    for n in range(len(dims) + 1):
        for combo in itertools.combinations(dims, n):
            out.append(frozenset(combo))
    return out


def _map_pool(dst: frozenset) -> list:
    """Component pool for map enumeration: everything for at most one
    symbol, else constants, literals and the two connections."""
    if len(dst) <= 1:
        return list(dm_all(dst))
    lits = []
    for n in ctx_sorted(dst):
        lits.append(dm_sym(dst, n))
        lits.append(dm_neg(dm_sym(dst, n)))
    pool = dict.fromkeys((dm_const(dst, 0), dm_const(dst, 1), *lits))
    pos = [dm_sym(dst, n) for n in ctx_sorted(dst)]
    for a, b in itertools.combinations(pos, 2):
        pool.update(dict.fromkeys((dm_meet(a, b), dm_join(a, b))))
    return list(pool)


@lru_cache(maxsize=None)
def enumerate_maps(src: frozenset, dst: frozenset) -> tuple:
    """Cube maps src -> dst with components from a representative pool: the
    whole free algebra when dst has at most one symbol, else constants,
    literals and connections (covering faces, degeneracies, symmetries,
    reversals and connection squares)."""
    names = ctx_sorted(src)
    return tuple(CubeMap.make(src, dst, dict(zip(names, values)))
                 for values in itertools.product(_map_pool(dst), repeat=len(names)))


def restrict_element(X: CubicalSet, f: CubeMap, x):
    """The action the law check reads: x·f for a cell x of the cubical set
    X.  A family is checked as its total set, whose cells are (rho, a)."""
    return X.restrict(f, x)


def validate_cset(X, max_dim: int = 2, max_points: int = 24,
                  max_pairs: int = 600) -> list:
    """Check the identity and composition laws; returns violations.  X is a
    cubical set, or a family, which is checked as its total set.

    Identities are checked on every sampled point; composition over
    composable pairs of representative maps between the canonical contexts,
    capped per context triple.
    """
    if isinstance(X, Family):
        X = TotalCSet(X.base, X)
    violations = []
    contexts = enumerate_contexts(max_dim)

    def points(context):
        pts = X.cells(context)
        if len(pts) > max_points:
            step = max(1, len(pts) // max_points)
            pts = pts[::step]
        return pts

    for context in contexts:
        ident = CubeMap.identity(context)
        for x in points(context):
            got = restrict_element(X, ident, x)
            if got != x:
                violations.append(("identity", context, x, got))
    for src in contexts:
        pts = points(src)
        if not pts:
            continue
        direct = {}  # (fg, point index) -> restriction of the point along fg
        for mid in contexts:
            maps1 = enumerate_maps(src, mid)
            for dst in contexts:
                maps2 = enumerate_maps(mid, dst)
                count = 0
                for f in maps1:
                    along_f = {}  # point index -> restriction along f
                    for g in maps2:
                        count += 1
                        if count > max_pairs:
                            break
                        fg = f.then(g)
                        for k, x in enumerate(pts):
                            if k not in along_f:
                                along_f[k] = restrict_element(X, f, x)
                            via = restrict_element(X, g, along_f[k])
                            if (fg, k) not in direct:
                                direct[fg, k] = restrict_element(X, fg, x)
                            if via != direct[fg, k]:
                                violations.append(("composition", src, mid, dst, f, g, x))
                    if count > max_pairs:
                        break
    return violations
