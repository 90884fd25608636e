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

Comments run from `--` to end of line.

A name bound by an enclosing binder becomes its de Bruijn `Var`; every other
name is left as a `Constant`, which the elaborator resolves against the
scope (a whole program is parsed before any declaration is checked).  `_` is
a placeholder `Hole` as a term, and a binder that is never referenced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<assign>:=)
  | (?P<arrow>->)
  | (?P<uni>U[0-9]+)
  | (?P<one>1(?![0-9A-Za-z_']))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[():,*\\])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # "ident", "uni", "sym"; symbols use their text as kind
    text: str
    line: int
    col: int


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "ident" and text in S.KEYWORDS:
                tokens.append(Token(text, text, line, col))
            elif kind == "ident" and text == "_":
                tokens.append(Token("_", text, line, col))
            elif kind in ("assign", "arrow", "sym"):
                tokens.append(Token(text, text, line, col))
            else:
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# Parser --------------------------------------------------------------------

_ATOM_STARTERS = {"ident", "_", "uni", "one", "(", "*"}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.names = []  # the enclosing binders, innermost last

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

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
        while self.peek().kind != "eof":
            name, decl = self.decl()
            if decl.name in seen:
                raise DuplicateNameError(
                    f"duplicate name {decl.name!r}", name.line, name.col)
            seen.add(decl.name)
            decls.append(decl)
        return decls

    def decl(self):
        """The name token and the declaration."""
        tok = self.peek()
        if tok.kind not in ("def", "postulate"):
            self.error("expected 'def' or 'postulate'")
        self.next()
        name = self.expect("ident")
        self.expect(":")
        ty = self.term()
        body = None
        if tok.kind == "def":
            self.expect(":=")
            body = self.term()
        return name, Declaration(name.text, ty, body)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "\\":
            self.next()
            names = self.names
            k = len(names)
            while self.peek().kind in ("ident", "_"):
                names.append(self.next().text)
            if len(names) == k:
                self.error("expected at least one binder after '\\'")
            self.expect("->")
            body = self.term()
            for hint in reversed(names[k:]):
                body = Lambda(body, hint)
            del names[k:]
            return body
        if self._at_binder():
            self.next()
            binder = self.next().text
            self.expect(":")
            dom = self.term()
            self.expect(")")
            sep = self.peek().kind
            if sep not in ("->", "*"):
                self.error("expected '->' or '*' after a binder")
            self.next()
            return (Pi if sep == "->" else Sigma)(dom, self.bound(binder), binder)
        lhs = self.app()
        if self.peek().kind == "->":
            self.next()
            return Pi(lhs, self.bound("_"), "_")
        return lhs

    def app(self) -> Term:
        head = self.head()
        while self.peek().kind in _ATOM_STARTERS and not self._at_binder():
            head = Apply(head, self.atom())
        return head

    def _at_binder(self) -> bool:
        # `(x : ...` after an application head belongs to an enclosing arrow
        return (
            self.peek().kind == "("
            and self.peek(1).kind in ("ident", "_")
            and self.peek(2).kind == ":"
        )

    def head(self) -> Term:
        tok = self.peek()
        if tok.kind == "fst":
            self.next()
            return Fst(self.atom())
        if tok.kind == "snd":
            self.next()
            return Snd(self.atom())
        if tok.kind == "refl":
            self.next()
            return Refl(self.atom())
        if tok.kind == "Id":
            self.next()
            return Id(self.atom(), self.atom(), self.atom())
        if tok.kind == "J":
            self.next()
            motive, base = self.atom(), self.atom()
            try:
                motive, mhints = _strip_binders(motive, 3)
                base, bhints = _strip_binders(base, 1)
            except S.MalformedTermError as exc:  # a placeholder cannot be shifted
                raise ParseError(str(exc), tok.line, tok.col) from None
            return J(motive, base, self.atom(), self.atom(), self.atom(), mhints + bhints)
        return self.atom()

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            names = self.names
            for i in range(len(names) - 1, -1, -1):
                if names[i] == tok.text:
                    return S.var(len(names) - 1 - i)
            return Constant(tok.text)
        if tok.kind == "_":
            self.next()
            return Hole(tok.line, tok.col)
        if tok.kind == "uni":
            self.next()
            try:
                return S.universe(int(tok.text[1:]))
            except S.MalformedTermError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        if tok.kind == "one":
            self.next()
            return S.UNIT
        if tok.kind == "*":
            self.next()
            return S.STAR
        if tok.kind == "(":
            self.next()
            inner = self.term()
            if self.peek().kind == ",":
                self.next()
                snd = self.term()
                self.expect(")")
                return Pair(inner, snd)
            self.expect(")")
            return inner
        self.error(f"unexpected token {tok.text!r}")


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
    return _Parser(tokenize(source)).program()


def parse_files(paths) -> list:
    """Parse the files at `paths` in order; their declarations, concatenated."""
    return [decl for path in paths for decl in parse_program(Path(path).read_text())]


def parse_term(source: str) -> Term:
    """Parse one term; its free names are `Constant`s."""
    parser = _Parser(tokenize(source))
    term = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return term
