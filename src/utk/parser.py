"""Tokenizer and parser for the surface language.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class DuplicateNameError(ParseError):
    pass


# Surface AST ---------------------------------------------------------------


@dataclass
class SVar:
    name: str


@dataclass
class SUniverse:
    level: int


@dataclass
class SPi:
    binder: Optional[str]  # None for the non-dependent arrow sugar
    domain: "STerm"
    codomain: "STerm"


@dataclass
class SLambda:
    binders: list
    body: "STerm"


@dataclass
class SApply:
    fn: "STerm"
    arg: "STerm"


@dataclass
class SSigma:
    binder: str
    first: "STerm"
    second: "STerm"


@dataclass
class SPair:
    fst: "STerm"
    snd: "STerm"


@dataclass
class SFst:
    arg: "STerm"


@dataclass
class SSnd:
    arg: "STerm"


@dataclass
class SUnit:
    pass


@dataclass
class SStar:
    pass


@dataclass
class SId:
    type: "STerm"
    lhs: "STerm"
    rhs: "STerm"


@dataclass
class SRefl:
    point: "STerm"


@dataclass
class SJ:
    motive: "STerm"
    base: "STerm"
    lhs: "STerm"
    rhs: "STerm"
    proof: "STerm"


@dataclass
class SHole:
    line: int = 0
    col: int = 0


STerm = object


@dataclass
class SurfaceDecl:
    name: str
    type: STerm
    body: Optional[STerm]  # None = postulate
    line: int = 0
    col: int = 0

    @property
    def is_postulate(self) -> bool:
        return self.body is None


# Tokenizer -----------------------------------------------------------------

KEYWORDS = {"def", "postulate", "fst", "snd", "refl", "J", "Id"}

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
            if kind == "ident" and text in KEYWORDS:
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

    # ---- grammar

    def program(self):
        decls = []
        seen = {}
        while self.peek().kind != "eof":
            decl = self.decl()
            if decl.name in seen:
                raise DuplicateNameError(
                    f"duplicate name {decl.name!r}", decl.line, decl.col)
            seen[decl.name] = decl
            decls.append(decl)
        return decls

    def decl(self) -> SurfaceDecl:
        tok = self.peek()
        if tok.kind == "def":
            self.next()
            name = self.expect("ident")
            self.expect(":")
            ty = self.term()
            self.expect(":=")
            body = self.term()
            return SurfaceDecl(name.text, ty, body, name.line, name.col)
        if tok.kind == "postulate":
            self.next()
            name = self.expect("ident")
            self.expect(":")
            ty = self.term()
            return SurfaceDecl(name.text, ty, None, name.line, name.col)
        self.error("expected 'def' or 'postulate'")

    def term(self) -> STerm:
        tok = self.peek()
        if tok.kind == "\\":
            self.next()
            binders = []
            while self.peek().kind in ("ident", "_"):
                binders.append(self.next().text)
            if not binders:
                self.error("expected at least one binder after '\\'")
            self.expect("->")
            return SLambda(binders, self.term())
        if tok.kind == "(" and self.peek(1).kind in ("ident", "_") and self.peek(2).kind == ":":
            self.next()
            binder = self.next().text
            self.expect(":")
            dom = self.term()
            self.expect(")")
            sep = self.peek()
            if sep.kind == "->":
                self.next()
                return SPi(binder, dom, self.term())
            if sep.kind == "*":
                self.next()
                return SSigma(binder, dom, self.term())
            self.error("expected '->' or '*' after a binder")
        lhs = self.app()
        if self.peek().kind == "->":
            self.next()
            return SPi(None, lhs, self.term())
        return lhs

    def app(self) -> STerm:
        head = self.head()
        while self.peek().kind in _ATOM_STARTERS and not self._at_binder():
            head = SApply(head, self.atom())
        return head

    def _at_binder(self) -> bool:
        # `(x : ...` after an application head belongs to an enclosing arrow
        return (
            self.peek().kind == "("
            and self.peek(1).kind in ("ident", "_")
            and self.peek(2).kind == ":"
        )

    def head(self) -> STerm:
        tok = self.peek()
        if tok.kind == "fst":
            self.next()
            return SFst(self.atom())
        if tok.kind == "snd":
            self.next()
            return SSnd(self.atom())
        if tok.kind == "refl":
            self.next()
            return SRefl(self.atom())
        if tok.kind == "Id":
            self.next()
            return SId(self.atom(), self.atom(), self.atom())
        if tok.kind == "J":
            self.next()
            return SJ(self.atom(), self.atom(), self.atom(), self.atom(), self.atom())
        return self.atom()

    def atom(self) -> STerm:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return SVar(tok.text)
        if tok.kind == "_":
            self.next()
            return SHole(tok.line, tok.col)
        if tok.kind == "uni":
            self.next()
            return SUniverse(int(tok.text[1:]))
        if tok.kind == "one":
            self.next()
            return SUnit()
        if tok.kind == "*":
            self.next()
            return SStar()
        if tok.kind == "(":
            self.next()
            inner = self.term()
            if self.peek().kind == ",":
                self.next()
                snd = self.term()
                self.expect(")")
                return SPair(inner, snd)
            self.expect(")")
            return inner
        self.error(f"unexpected token {tok.text!r}")


def parse_program(source: str):
    """Parse a whole source file into surface declarations, in order."""
    return _Parser(tokenize(source)).program()


def parse_files(paths) -> list:
    """Parse the files at `paths` in order; their declarations, concatenated."""
    return [decl for path in paths for decl in parse_program(Path(path).read_text())]


def parse_term(source: str) -> STerm:
    parser = _Parser(tokenize(source))
    term = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return term
