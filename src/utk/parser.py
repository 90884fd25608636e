"""Tokenizer and parser: surface syntax straight to core terms.

    program ::= decl*
    decl    ::= "def" IDENT ":" term ":=" term | "postulate" IDENT ":" term
    term    ::= "\\" IDENT+ "->" term
              | "(" IDENT ":" term ")" "->" term
              | "(" IDENT ":" term ")" "*" term
              | app ("->" term)?
    app     ::= head atom*
    head    ::= "fst" atom | "snd" atom | "refl" atom
              | "Id" atom atom atom | "J" atom atom atom atom atom | atom
    atom    ::= IDENT | "_" | "U" NAT | "1" | "*" | "(" term ")" | "(" term "," term ")"

Comments run from `--` to end of line.  The tokenizer makes one regular
expression match per token, whitespace and comments included, and a token
keeps only its offset: a line and column are computed from it on demand, for
an error or a placeholder.

A name bound by an enclosing binder becomes its de Bruijn `Var`; every other
name is left as a `Constant`, which the elaborator resolves against the
scope (a whole program is parsed before any declaration is checked).  `_` is
a placeholder `Hole` as a term, and a binder that is never referenced.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from . import syntax as S
from .syntax import (
    Apply, Constant, Declaration, Fst, Hole, Id, J, Lambda, Pair, Pi, Refl,
    Sigma, Snd, Term, shift,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class DuplicateNameError(ParseError):
    pass


# Tokenizer -----------------------------------------------------------------

# One match per token, which skips the whitespace and comments before it
# (possessively: a failed token never backtracks into them).  The group that
# matched gives the kind; the last match is the empty one at the end.
_TOKEN_RE = re.compile(r"""(?: [ \t\r\n]++ | --[^\n]*+ )*+ (?:
      (:= | -> | [():,*\\]) | (U[0-9]+) | (1(?![0-9A-Za-z_']))  # 1: symbol, 2: uni, 3: one
    | ([A-Za-z_][A-Za-z0-9_']*)  # 4: an identifier, a keyword or `_`
    | (.) | \Z)  # 5: an unexpected character; then the end""", re.VERBOSE)
_WORDS = S.KEYWORDS | {"_"}  # the words of group 4 that are their own kind


def tokenize(source: str):
    """The tokens of `source`, each a (kind, text, offset) triple, ending in
    one `eof`.  Kinds are "ident", "uni", "one" and "eof"; any other token is
    its own kind.  Identifiers are interned: each name is one string."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group is None:
            break
        text = m[group]
        if group == 4:
            if text in _WORDS:
                kind = text
            else:
                kind, text = "ident", sys.intern(text)
        elif group == 1:
            kind = text
        elif group == 5:
            raise ParseError(f"unexpected character {text!r}", *position(source, m.start(5)))
        else:
            kind = "uni" if group == 2 else "one"
        append((kind, text, m.start(group)))
    append(("eof", "", len(source)))
    return tokens


def position(source: str, offset: int):
    """The line and column of `offset` in `source`, both from 1: computed
    only for an error or a placeholder, which report them."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


# Parser --------------------------------------------------------------------

_ATOM_STARTERS = frozenset({"ident", "_", "uni", "one", "(", "*"})
_BINDER_NAMES = frozenset({"ident", "_"})
_HEAD_WORDS = frozenset({"fst", "snd", "refl", "Id", "J"})


class _Parser:
    """Reads `tokens[pos][0]`, the kind of the current token, wherever it
    looks ahead; two more `eof`s let it look two tokens ahead unchecked."""

    def __init__(self, source: str):
        self.source = source
        tokens = tokenize(source)
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0
        self.names = []  # the enclosing binders, innermost last

    def error(self, message: str, tok: tuple = None) -> ParseError:
        """The error at `tok`, by default the current token."""
        tok = tok or self.tokens[self.pos]
        return ParseError(message, *position(self.source, tok[2]))

    def expect(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def bound(self, name: str) -> Term:
        """A term parsed under one more binder, `name`."""
        self.names.append(name)
        body = self.term()
        self.names.pop()
        return body

    # ---- grammar

    def program(self):
        decls = []
        seen = set()
        while self.tokens[self.pos][0] != "eof":
            name, decl = self.decl()
            if decl.name in seen:
                raise DuplicateNameError(
                    f"duplicate name {decl.name!r}", *position(self.source, name[2]))
            seen.add(decl.name)
            decls.append(decl)
        return decls

    def decl(self):
        """The name token and the declaration."""
        kind = self.tokens[self.pos][0]
        if kind != "def" and kind != "postulate":
            raise self.error("expected 'def' or 'postulate'")
        self.pos += 1
        name = self.expect("ident")
        self.expect(":")
        ty = self.term()
        body = None
        if kind == "def":
            self.expect(":=")
            body = self.term()
        return name, Declaration(name[1], ty, body)

    def term(self) -> Term:
        tokens = self.tokens
        kind = tokens[self.pos][0]
        if kind == "\\":
            self.pos += 1
            names = self.names
            k = len(names)
            while tokens[self.pos][0] in _BINDER_NAMES:
                names.append(tokens[self.pos][1])
                self.pos += 1
            if len(names) == k:
                raise self.error("expected at least one binder after '\\'")
            self.expect("->")
            body = self.term()
            for hint in reversed(names[k:]):
                body = Lambda(body, hint)
            del names[k:]
            return body
        if kind == "(" and self._at_binder():
            binder = tokens[self.pos + 1][1]
            self.pos += 3
            dom = self.term()
            self.expect(")")
            sep = tokens[self.pos][0]
            if sep != "->" and sep != "*":
                raise self.error("expected '->' or '*' after a binder")
            self.pos += 1
            return (Pi if sep == "->" else Sigma)(dom, self.bound(binder), binder)
        lhs = self.app()
        if tokens[self.pos][0] == "->":
            self.pos += 1
            return Pi(lhs, self.bound("_"), "_")
        return lhs

    def app(self) -> Term:
        head = self.head()
        tokens = self.tokens
        while True:
            kind = tokens[self.pos][0]
            if kind not in _ATOM_STARTERS or kind == "(" and self._at_binder():
                return head
            head = Apply(head, self.atom())

    def _at_binder(self) -> bool:
        """Whether the current `(` opens `(x : ...`, which after an
        application head belongs to an enclosing arrow."""
        tokens, pos = self.tokens, self.pos
        return tokens[pos + 1][0] in _BINDER_NAMES and tokens[pos + 2][0] == ":"

    def head(self) -> Term:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind not in _HEAD_WORDS:
            return self.atom()
        self.pos += 1
        if kind == "fst":
            return Fst(self.atom())
        if kind == "snd":
            return Snd(self.atom())
        if kind == "refl":
            return Refl(self.atom())
        if kind == "Id":
            return Id(self.atom(), self.atom(), self.atom())
        motive, base = self.atom(), self.atom()  # J
        try:
            motive, mhints = _strip_binders(motive, 3)
            base, bhints = _strip_binders(base, 1)
        except S.MalformedTermError as exc:  # a placeholder cannot be shifted
            raise self.error(str(exc), tok) from None
        return J(motive, base, self.atom(), self.atom(), self.atom(), mhints + bhints)

    def atom(self) -> Term:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "ident":
            self.pos += 1
            name = tok[1]
            if name in self.names:  # bound: its index counts binders from the innermost
                return S.var(self.names[::-1].index(name))
            return Constant(name)
        if kind == "(":
            self.pos += 1
            inner = self.term()
            if self.tokens[self.pos][0] == ",":
                self.pos += 1
                snd = self.term()
                self.expect(")")
                return Pair(inner, snd)
            self.expect(")")
            return inner
        if kind == "_":
            self.pos += 1
            return Hole(*position(self.source, tok[2]))
        if kind == "uni":
            self.pos += 1
            try:
                return S.universe(int(tok[1][1:]))
            except S.MalformedTermError as exc:
                raise self.error(str(exc), tok) from None
        if kind == "one":
            self.pos += 1
            return S.UNIT
        if kind == "*":
            self.pos += 1
            return S.STAR
        raise self.error(f"unexpected token {tok[1]!r}")


def _strip_binders(term: Term, n: int):
    """A J motive/base argument is a lambda of `n` binders; strip them.  A
    non-lambda argument f is accepted as f applied to the bound variables.
    Returns the body and the binders' hints."""
    hints = []
    body = term
    for _ in range(n):
        if not isinstance(body, Lambda):
            wrapped = shift(term, n)
            for i in range(n - 1, -1, -1):
                wrapped = Apply(wrapped, S.var(i))
            return wrapped, ("x", "y", "p")[:n]
        hints.append(body.hint)
        body = body.body
    return body, tuple(hints)


def parse_program(source: str):
    """Parse a whole source file into declarations, in order."""
    return _Parser(source).program()


def parse_files(paths) -> list:
    """Parse the files at `paths` in order; their declarations, concatenated."""
    return [decl for path in paths for decl in parse_program(Path(path).read_text())]


def parse_term(source: str) -> Term:
    """Parse one term; its free names are `Constant`s."""
    parser = _Parser(source)
    term = parser.term()
    tok = parser.tokens[parser.pos]
    if tok[0] != "eof":
        raise parser.error(f"trailing input {tok[1]!r}")
    return term
