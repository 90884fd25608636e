"""Free De Morgan algebra on dimension symbols, and the face lattice.

An element of the free De Morgan algebra is its valuation table: its value
in the four-element De Morgan algebra DM4 under every valuation of the
sorted generators.  Every De Morgan algebra embeds into a power of DM4, so
tables decide equality and order, and the table is the canonical form.
Substitution is a homomorphism, so it maps the element's normal form (a
join of meets of literals) one literal at a time: each literal becomes the
table of its assigned element or of that element's negation, and the meets
and the join are taken on the tables.

Face formulas (cofibrant propositions) are decided the same way over
three-valued valuations {0, 1, generic}: the face lattice is the free
distributive lattice on the literals (i=0), (i=1) modulo their meet being
absurd, and those valuations are exactly its prime filters.  The equation
(r = e) holds at such a valuation iff r is the constant e under every DM4
completion of the generic dimensions.

Both are packed into ints and interned per context: equal elements and equal
faces are the same object, so they compare and hash by identity.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# DM4 carrier: BOT=0, TOP=3 and two fixed points 1, 2 of the involution.  It
# is the product 2x2 of two bits, so meet is &, join is |, and the
# involution swaps the two bits and complements them.  A table over n
# generators packs one 2-bit digit per valuation, in itertools.product
# order: the valuation (v_1, ..., v_n) is the digit at index
# sum(v_k * 4 ** (n - k)), bits 2 * index and 2 * index + 1.
_DM4 = (0, 1, 2, 3)

# A face over n generators is a bitmask over the {0, 1, generic}
# valuations, in itertools.product order: the valuation (v_1, ..., v_n) is
# bit sum(v_k * 3 ** (n - k)).  GEN marks a dimension left generic.
GEN = 2
_FACE_VALUES = (0, 1, GEN)


class ModelError(Exception):
    pass


class ContextMismatchError(ModelError):
    pass


def ctx(*names) -> frozenset:
    return frozenset(names)


class _Context:
    """The constants of one dimension context, built once: its sorted
    names, the masks of its tables, and its interned elements and faces."""

    def __init__(self, context: frozenset):
        self.ctx = context
        self.names = tuple(sorted(context))
        n = len(self.names)
        self.lo = int("1" * 4 ** n, 4)  # the low bit of every digit
        self.full = 3 * self.lo
        self.dms = {}  # table -> DM
        self.faces = {}  # sat -> Face
        self.bot, self.top = self.dm(0), self.dm(self.full)
        self.syms = {name: self.dm(sum(vs[i] << 2 * k for k, vs in
                                       enumerate(itertools.product(_DM4, repeat=n))))
                     for i, name in enumerate(self.names)}
        self.face_vals = tuple(itertools.product(_FACE_VALUES, repeat=n))
        self.face_index = {v: k for k, v in enumerate(self.face_vals)}
        self.face_full = (1 << len(self.face_vals)) - 1

    def dm(self, table: int) -> "DM":
        x = self.dms.get(table)
        if x is None:
            x = self.dms[table] = object.__new__(DM)
            x.ctx, x.table, x._c = self.ctx, table, self
        return x

    def face(self, sat: int) -> "Face":
        a = self.faces.get(sat)
        if a is None:
            a = self.faces[sat] = object.__new__(Face)
            a.ctx, a.sat, a._c, a._clauses = self.ctx, sat, self, None
        return a


_CONTEXTS = {}


def _context(context: frozenset) -> _Context:
    c = _CONTEXTS.get(context)
    if c is None:
        c = _CONTEXTS[context] = _Context(context)
    return c


def ctx_sorted(context: frozenset) -> tuple:
    return _context(context).names


class DM:
    """An element of the free De Morgan algebra over `ctx`, given by its
    valuation table packed into the int `table`.  Interned: build elements
    with the `dm_*` functions, never directly."""

    __slots__ = ("ctx", "table", "_c")

    def __repr__(self):
        return f"DM({dm_show(self)})"


def dm_const(context: frozenset, endpoint: int) -> DM:
    c = _context(context)
    return c.bot if endpoint == 0 else c.top


def dm_sym(context: frozenset, name: str) -> DM:
    x = _context(context).syms.get(name)
    if x is None:
        raise ContextMismatchError(f"{name} not in context {sorted(context)}")
    return x


def _same_ctx(x, y):
    """x and y, elements or faces, are over one context."""
    if x._c is not y._c:
        raise ContextMismatchError(f"{sorted(x.ctx)} vs {sorted(y.ctx)}")


def _neg_table(c: _Context, t: int) -> int:
    return c.full ^ ((t & c.lo) << 1 | (t >> 1) & c.lo)


def dm_neg(x: DM) -> DM:
    return x._c.dm(_neg_table(x._c, x.table))


def dm_meet(x: DM, y: DM) -> DM:
    _same_ctx(x, y)
    return x._c.dm(x.table & y.table)


def dm_join(x: DM, y: DM) -> DM:
    _same_ctx(x, y)
    return x._c.dm(x.table | y.table)


def dm_eq(x: DM, y: DM) -> bool:
    """True iff x and y agree under every DM4 valuation."""
    _same_ctx(x, y)
    return x is y


def dm_is_const(x: DM, endpoint: int) -> bool:
    return x is (x._c.bot if endpoint == 0 else x._c.top)


def dm_subst(x: DM, assign: dict, target: frozenset) -> DM:
    """Substitute `assign` (symbol -> DM over target) through x.  Substitution
    is a homomorphism, so it maps x's normal form literal by literal."""
    t = _context(target)
    image = {}
    for name in x._c.names:
        e = assign[name]
        if e._c is not t:
            raise ContextMismatchError(f"{name} assigned over {sorted(e.ctx)}, "
                                       f"not {sorted(target)}")
        image[name, False] = e.table
        image[name, True] = _neg_table(t, e.table)
    table = 0
    for lits, _ in _normal_form(x):
        meet = t.full
        for lit in lits:
            meet &= image[lit]
        table |= meet
    return t.dm(table)


@lru_cache(maxsize=None)
def _literal_meets(context: frozenset) -> tuple:
    """Every meet of literals over `context`, fewest literals first, as
    (set of literals, printed meet, table).  A literal is (symbol, negated)."""
    literals = []
    for n in ctx_sorted(context):
        literals += [((n, False), dm_sym(context, n)), ((n, True), dm_neg(dm_sym(context, n)))]
    out = []
    for size in range(len(literals) + 1):
        for combo in itertools.combinations(literals, size):
            m = dm_const(context, 1)
            for _, lit in combo:
                m = dm_meet(m, lit)
            text = [f"~{n}" if negated else n for (n, negated), _ in combo]
            out.append((frozenset(lit for lit, _ in combo), _infix(text, "/\\", "1"), m.table))
    return tuple(out)


@lru_cache(maxsize=None)
def _normal_form(x: DM) -> tuple:
    """x as the join of the minimal meets of literals below it, each given
    as (set of literals, printed meet)."""
    found = []
    for lits, text, table in _literal_meets(x.ctx):
        if table & x.table == table and not any(f <= lits for f, _ in found):
            found.append((lits, text))
    return tuple(found)


def dm_show(x: DM) -> str:
    """The antichain normal form of x."""
    return _infix([text for _, text in _normal_form(x)], "\\/", "0")


def _infix(parts: list, op: str, unit: str) -> str:
    if not parts:
        return unit
    return parts[0] if len(parts) == 1 else "(" + f" {op} ".join(parts) + ")"


@lru_cache(maxsize=None)
def dm_all(context: frozenset) -> tuple:
    """Every element of the free algebra over `context` (closure of the
    generators and endpoints under the operations)."""
    if len(context) > 2:
        raise ModelError("dm_all is only tractable up to two generators")
    elems = dict.fromkeys([dm_const(context, 0), dm_const(context, 1)]
                          + [dm_sym(context, n) for n in sorted(context)])
    changed = True
    while changed:
        changed = False
        current = list(elems)
        for x in current:
            n = dm_neg(x)
            if n not in elems:
                elems[n] = None
                changed = True
        for x in current:
            for y in current:
                for z in (dm_meet(x, y), dm_join(x, y)):
                    if z not in elems:
                        elems[z] = None
                        changed = True
    return tuple(elems)


@lru_cache(maxsize=None)
def dm_basic(context: frozenset) -> tuple:
    """Constants, literals, and binary meets/joins of literals; used when the
    full algebra is too big to enumerate."""
    lits = []
    for n in sorted(context):
        lits.append(dm_sym(context, n))
        lits.append(dm_neg(dm_sym(context, n)))
    out = dict.fromkeys((dm_const(context, 0), dm_const(context, 1), *lits))
    for a, b in itertools.combinations(lits, 2):
        out.update(dict.fromkeys((dm_meet(a, b), dm_join(a, b))))
    return tuple(out)


# ---------------------------------------------------------------------------
# Face formulas.


class Face:
    """A cofibrant proposition over a dimension context, canonically
    represented by its set of satisfying {0, 1, generic} valuations, packed
    into the bitmask `sat`.  Interned: build faces with the `face_*`
    functions, never directly."""

    __slots__ = ("ctx", "sat", "_c", "_clauses")

    def __repr__(self):
        if self.is_top:
            return "Face(T)"
        if self.is_bot:
            return "Face(F)"
        return f"Face({sorted(self.clauses())})"

    @property
    def is_top(self) -> bool:
        return self.sat == self._c.face_full

    @property
    def is_bot(self) -> bool:
        return not self.sat

    def entails(self, other: "Face") -> bool:
        _same_ctx(self, other)
        return self.sat & other.sat == self.sat

    def clauses(self) -> tuple:
        """Canonical generating clauses: minimal satisfying valuations, as
        frozensets of (symbol, endpoint) literals."""
        if self._clauses is None:
            names = self._c.names
            sat = [v for k, v in enumerate(self._c.face_vals) if self.sat >> k & 1]
            out = []
            for v in sat:
                if not any(w != v and all(wi == GEN or wi == vi for wi, vi in zip(w, v))
                           for w in sat):
                    out.append(frozenset((n, e) for n, e in zip(names, v) if e != GEN))
            self._clauses = tuple(sorted(out, key=sorted))
        return self._clauses


def face_top(context: frozenset) -> Face:
    c = _context(context)
    return c.face(c.face_full)


def face_bot(context: frozenset) -> Face:
    return _context(context).face(0)


@lru_cache(maxsize=None)
def face_eq_sym(context: frozenset, name: str, endpoint: int) -> Face:
    if name not in context:
        raise ContextMismatchError(f"{name} not in context {sorted(context)}")
    c = _context(context)
    i = c.names.index(name)
    return c.face(sum(1 << k for k, v in enumerate(c.face_vals) if v[i] == endpoint))


def face_and(a: Face, b: Face) -> Face:
    _same_ctx(a, b)
    return a._c.face(a.sat & b.sat)


def face_or(a: Face, b: Face) -> Face:
    _same_ctx(a, b)
    return a._c.face(a.sat | b.sat)


@lru_cache(maxsize=None)
def _pullback_masks(source: frozenset, target: frozenset, clause: frozenset) -> tuple:
    """For each {0, 1, generic} valuation w over target, the mask of the
    valuations over source that agree with w and with clause where these
    fix a symbol, and take every value elsewhere."""
    s, t = _context(source), _context(target)
    masks = []
    for w in t.face_vals:
        env = {**dict(zip(t.names, w)), **dict(clause)}
        choices = [(env[n],) if n in env else _FACE_VALUES for n in s.names]
        masks.append(sum(1 << s.face_index[v] for v in itertools.product(*choices)))
    return t, tuple(masks)


def _pullback(a: Face, target: frozenset, clause: frozenset = frozenset()) -> Face:
    """The face over target that holds at w iff a holds at every valuation
    of its mask."""
    t, masks = _pullback_masks(a.ctx, target, clause)
    return t.face(sum(1 << k for k, m in enumerate(masks) if a.sat & m == m))


def face_forall(a: Face, name: str) -> Face:
    """Right adjoint to weakening by `name`: holds when every instantiation
    of `name` (0, 1, or generic) satisfies a."""
    return _pullback(a, a.ctx - {name})


@lru_cache(maxsize=None)
def _completions(context: frozenset) -> tuple:
    """Each {0, 1, generic} valuation's bit, with the mask of the table
    digits of its DM4 completions."""
    choices = {0: (0,), 1: (3,), GEN: _DM4}
    out = []
    for k, v in enumerate(_context(context).face_vals):
        indices = [0]
        for c in v:
            indices = [4 * i + d for i in indices for d in choices[c]]
        out.append((1 << k, sum(3 << 2 * i for i in indices)))
    return tuple(out)


@lru_cache(maxsize=None)
def face_of_eq(r: DM, endpoint: int) -> Face:
    """The face formula (r = endpoint): the valuations at which r is the
    constant endpoint under every completion."""
    t = r.table
    if endpoint == 0:
        return r._c.face(sum(bit for bit, m in _completions(r.ctx) if not t & m))
    return r._c.face(sum(bit for bit, m in _completions(r.ctx) if t & m == m))


def face_weaken(a: Face, target: frozenset) -> Face:
    """Reinterpret a over a larger context."""
    return _pullback(a, target)


def face_subst_clause(a: Face, clause: frozenset) -> Face:
    """Substitute the endpoints of `clause` into a (a face over the smaller
    context)."""
    return _pullback(a, a.ctx - {n for n, _ in clause}, clause)
