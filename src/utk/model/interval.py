"""Free De Morgan algebra on dimension symbols, and the face lattice.

An element of the free De Morgan algebra is its valuation table: its value
in the four-element De Morgan algebra DM4 under every valuation of the
sorted generators.  Every De Morgan algebra embeds into a power of DM4, so
tables decide equality and order, and the table is the canonical form that
gives O(1) equality and hashing.  Because DM4 evaluation is a homomorphism,
substitution is a lookup: the substituted element's value at a valuation is
the original's value at the valuation the assigned elements take there.

Face formulas (cofibrant propositions) are decided the same way over
three-valued valuations {0, 1, generic}: the face lattice is the free
distributive lattice on the literals (i=0), (i=1) modulo their meet being
absurd, and those valuations are exactly its prime filters.  The equation
(r = e) holds at such a valuation iff r is the constant e under every DM4
completion of the generic dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

# DM4 carrier: BOT=0, TOP=3 and two fixed points 1, 2 of the involution.
# A table over n generators lists values in itertools.product order, so the
# valuation (v_1, ..., v_n) sits at index sum(v_k * 4 ** (n - k)).
_DM4 = (0, 1, 2, 3)
_NEG = {0: 3, 1: 1, 2: 2, 3: 0}


def _meet(u, v):
    if u == v:
        return u
    return min(u, v) if (u in (0, 3) or v in (0, 3)) else 0


def _join(u, v):
    if u == v:
        return u
    return max(u, v) if (u in (0, 3) or v in (0, 3)) else 3


class ModelError(Exception):
    pass


class ContextMismatchError(ModelError):
    pass


def ctx(*names) -> frozenset:
    return frozenset(names)


def ctx_sorted(context: frozenset) -> tuple:
    return tuple(sorted(context))


@lru_cache(maxsize=None)
def _valuations(names: tuple) -> tuple:
    return tuple(itertools.product(_DM4, repeat=len(names)))


@dataclass(frozen=True)
class DM:
    """An element of the free De Morgan algebra over `ctx`, given by its
    valuation table: the DM4 value under every valuation of the sorted
    generators."""

    ctx: frozenset
    table: tuple

    def __repr__(self):
        return f"DM({dm_show(self)})"


def dm_const(context: frozenset, endpoint: int) -> DM:
    value = 0 if endpoint == 0 else 3
    return DM(context, (value,) * 4 ** len(context))


def dm_sym(context: frozenset, name: str) -> DM:
    if name not in context:
        raise ContextMismatchError(f"{name} not in context {sorted(context)}")
    names = ctx_sorted(context)
    i = names.index(name)
    return DM(context, tuple(vs[i] for vs in _valuations(names)))


def _same_ctx(x: DM, y: DM):
    if x.ctx != y.ctx:
        raise ContextMismatchError(f"{sorted(x.ctx)} vs {sorted(y.ctx)}")


def dm_neg(x: DM) -> DM:
    return DM(x.ctx, tuple(_NEG[v] for v in x.table))


def dm_meet(x: DM, y: DM) -> DM:
    _same_ctx(x, y)
    return DM(x.ctx, tuple(_meet(u, v) for u, v in zip(x.table, y.table)))


def dm_join(x: DM, y: DM) -> DM:
    _same_ctx(x, y)
    return DM(x.ctx, tuple(_join(u, v) for u, v in zip(x.table, y.table)))


def dm_eq(x: DM, y: DM) -> bool:
    """True iff x and y agree under every DM4 valuation."""
    _same_ctx(x, y)
    return x.table == y.table


def dm_is_const(x: DM, endpoint: int) -> bool:
    value = 0 if endpoint == 0 else 3
    return all(v == value for v in x.table)


def dm_subst(x: DM, assign: dict, target: frozenset) -> DM:
    """Substitute `assign` (symbol -> DM over target) through x."""
    index = [0] * 4 ** len(target)
    for name in ctx_sorted(x.ctx):
        e = assign[name]
        if e.ctx != target:
            raise ContextMismatchError(f"{name} assigned over {sorted(e.ctx)}, "
                                       f"not {sorted(target)}")
        index = [4 * k + v for k, v in zip(index, e.table)]
    return DM(target, tuple(x.table[k] for k in index))


@lru_cache(maxsize=None)
def _literal_meets(context: frozenset) -> tuple:
    """Every meet of literals over `context`, fewest literals first, as
    (set of literals, printed meet, table)."""
    literals = []
    for n in ctx_sorted(context):
        literals += [(n, dm_sym(context, n)), (f"~{n}", dm_neg(dm_sym(context, n)))]
    out = []
    for size in range(len(literals) + 1):
        for combo in itertools.combinations(literals, size):
            m = dm_const(context, 1)
            for _, lit in combo:
                m = dm_meet(m, lit)
            text = [t for t, _ in combo]
            out.append((frozenset(text), _infix(text, "/\\", "1"), m.table))
    return tuple(out)


def dm_show(x: DM) -> str:
    """The antichain normal form of x: the join of the minimal meets of
    literals below it."""
    found = []
    for lits, text, table in _literal_meets(x.ctx):
        if any(f <= lits for f, _ in found):
            continue
        if all(_meet(u, v) == u for u, v in zip(table, x.table)):
            found.append((lits, text))
    return _infix([text for _, text in found], "\\/", "0")


def _infix(parts: list, op: str, unit: str) -> str:
    if not parts:
        return unit
    return parts[0] if len(parts) == 1 else "(" + f" {op} ".join(parts) + ")"


@lru_cache(maxsize=None)
def dm_all(context: frozenset) -> tuple:
    """Every element of the free algebra over `context` (closure of the
    generators and endpoints under the operations), one per table."""
    if len(context) > 2:
        raise ModelError("dm_all is only tractable up to two generators")
    elems = {dm_const(context, 0).table: dm_const(context, 0)}
    for e in [dm_const(context, 1)] + [dm_sym(context, n) for n in sorted(context)]:
        elems[e.table] = e
    changed = True
    while changed:
        changed = False
        current = list(elems.values())
        for x in current:
            n = dm_neg(x)
            if n.table not in elems:
                elems[n.table] = n
                changed = True
        for x in current:
            for y in current:
                for z in (dm_meet(x, y), dm_join(x, y)):
                    if z.table not in elems:
                        elems[z.table] = z
                        changed = True
    return tuple(elems.values())


def dm_basic(context: frozenset) -> tuple:
    """Constants, literals, and binary meets/joins of literals; used when the
    full algebra is too big to enumerate."""
    lits = []
    for n in sorted(context):
        lits.append(dm_sym(context, n))
        lits.append(dm_neg(dm_sym(context, n)))
    out = {e.table: e for e in (dm_const(context, 0), dm_const(context, 1), *lits)}
    for a, b in itertools.combinations(lits, 2):
        for e in (dm_meet(a, b), dm_join(a, b)):
            out.setdefault(e.table, e)
    return tuple(out.values())


# ---------------------------------------------------------------------------
# Face formulas.  GEN marks a dimension left generic by a valuation.

GEN = 2


@lru_cache(maxsize=None)
def _face_valuations(names: tuple) -> tuple:
    return tuple(itertools.product((0, 1, GEN), repeat=len(names)))


@dataclass(frozen=True)
class Face:
    """A cofibrant proposition over a dimension context, canonically
    represented by its set of satisfying {0, 1, generic} valuations."""

    ctx: frozenset
    sat: frozenset  # of valuation tuples over the sorted context

    def __repr__(self):
        if self.is_top:
            return "Face(T)"
        if self.is_bot:
            return "Face(F)"
        return f"Face({sorted(self.clauses())})"

    @property
    def is_top(self) -> bool:
        return len(self.sat) == len(_face_valuations(ctx_sorted(self.ctx)))

    @property
    def is_bot(self) -> bool:
        return not self.sat

    def entails(self, other: "Face") -> bool:
        if self.ctx != other.ctx:
            raise ContextMismatchError("face contexts differ")
        return self.sat <= other.sat

    def clauses(self) -> tuple:
        """Canonical generating clauses: minimal satisfying valuations, as
        frozensets of (symbol, endpoint) literals."""
        names = ctx_sorted(self.ctx)
        out = []
        for v in self.sat:
            smaller = False
            for w in self.sat:
                if w != v and all(
                    wi == GEN or wi == vi for wi, vi in zip(w, v)
                ):
                    smaller = True
                    break
            if not smaller:
                out.append(frozenset(
                    (n, e) for n, e in zip(names, v) if e != GEN))
        return tuple(sorted(out, key=sorted))


def face_top(context: frozenset) -> Face:
    return Face(context, frozenset(_face_valuations(ctx_sorted(context))))


def face_bot(context: frozenset) -> Face:
    return Face(context, frozenset())


def face_eq_sym(context: frozenset, name: str, endpoint: int) -> Face:
    if name not in context:
        raise ContextMismatchError(f"{name} not in context {sorted(context)}")
    names = ctx_sorted(context)
    i = names.index(name)
    sat = frozenset(v for v in _face_valuations(names) if v[i] == endpoint)
    return Face(context, sat)


def face_and(a: Face, b: Face) -> Face:
    if a.ctx != b.ctx:
        raise ContextMismatchError("face contexts differ")
    return Face(a.ctx, a.sat & b.sat)


def face_or(a: Face, b: Face) -> Face:
    if a.ctx != b.ctx:
        raise ContextMismatchError("face contexts differ")
    return Face(a.ctx, a.sat | b.sat)


def face_forall(a: Face, name: str) -> Face:
    """Right adjoint to weakening by `name`: holds when every instantiation
    of `name` (0, 1, or generic) satisfies a."""
    names = ctx_sorted(a.ctx)
    i = names.index(name)
    rest = a.ctx - {name}
    rest_names = ctx_sorted(rest)
    sat = []
    for v in _face_valuations(rest_names):
        env = dict(zip(rest_names, v))
        ok = True
        for inst in (0, 1, GEN):
            env[name] = inst
            w = tuple(env[n] for n in names)
            if w not in a.sat:
                ok = False
                break
        if ok:
            sat.append(v)
    return Face(rest, frozenset(sat))


@lru_cache(maxsize=None)
def _completions(names: tuple) -> tuple:
    """Each {0, 1, generic} valuation over `names`, with the table indices
    of its DM4 completions."""
    choices = {0: (0,), 1: (3,), GEN: _DM4}
    out = []
    for v in _face_valuations(names):
        indices = [0]
        for c in v:
            indices = [4 * k + d for k in indices for d in choices[c]]
        out.append((v, indices))
    return tuple(out)


@lru_cache(maxsize=None)
def face_of_eq(r: DM, endpoint: int) -> Face:
    """The face formula (r = endpoint): the valuations at which r is the
    constant endpoint under every completion.  Cached by r's table."""
    value = 0 if endpoint == 0 else 3
    sat = frozenset(v for v, indices in _completions(ctx_sorted(r.ctx))
                    if all(r.table[k] == value for k in indices))
    return Face(r.ctx, sat)


def face_weaken(a: Face, target: frozenset) -> Face:
    """Reinterpret a over a larger context."""
    extra = ctx_sorted(target - a.ctx)
    names = ctx_sorted(a.ctx)
    tnames = ctx_sorted(target)
    sat = []
    for v in a.sat:
        env = dict(zip(names, v))
        for ext in itertools.product((0, 1, GEN), repeat=len(extra)):
            env.update(zip(extra, ext))
            sat.append(tuple(env[n] for n in tnames))
    return Face(target, frozenset(sat))


def face_subst_clause(a: Face, clause: frozenset) -> Face:
    """Substitute the endpoints of `clause` into a (a face over the smaller
    context)."""
    names = ctx_sorted(a.ctx)
    fixed = dict(clause)
    rest = a.ctx - set(fixed)
    rest_names = ctx_sorted(rest)
    sat = []
    for v in _face_valuations(rest_names):
        env = dict(zip(rest_names, v))
        env.update(fixed)
        w = tuple(env[n] for n in names)
        if w in a.sat:
            sat.append(v)
    return Face(rest, frozenset(sat))
