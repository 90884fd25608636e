"""Seeded mutation tests: each mutant deletes, repeats or swaps lines or
tokens of a valid input.  A mutant may be rejected, but only with an error
meant for the user, never with an internal exception."""

import random
import re

from utk import corpuscheck as C
from utk import elab as E
from utk import kernel as K
from utk import parser as P
from utk import syntax as S
from utk.model import fixtures as FX

USER_ERRORS = (P.ParseError, E.ElabError, K.KernelError, S.MalformedTermError)


def line_spans(text: str) -> list:
    return [m.span() for m in re.finditer(r"[^\n]*\n", text)]


def mutate(rng, text: str, spans: list):
    """`text` with one of the disjoint `spans` deleted, repeated, or swapped
    with a later one, and the offset in the result where the edit ends."""
    i, j = sorted(rng.sample(range(len(spans)), 2))
    (a, b), (c, d) = spans[i], spans[j]
    edit = rng.choice(("delete", "repeat", "swap"))
    if edit == "delete":
        return text[:a] + text[b:], a
    if edit == "repeat":
        return text[:b] + " " + text[a:b] + text[b:], 2 * b - a + 1
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:], d


def test_prelude_mutants_fail_only_with_user_errors():
    prelude = (C.corpus_dir() / "prelude.tt").read_text()
    lines = line_spans(prelude)
    tokens = [(at, at + len(text)) for kind, text, at in P.tokenize(prelude) if kind != "eof"]
    rng = random.Random(0)
    for _ in range(150):
        mutant, end = mutate(rng, prelude, rng.choice((lines, tokens)))
        # declarations are separated by blank lines: keep those up to the
        # first one the edit reaches, so that each mutant stays small
        cut = mutant.find("\n\n", end)
        source = mutant if cut < 0 else mutant[:cut]
        try:
            core, scope, _, _ = E.elaborate_and_check(P.parse_program(source))
            for decl in core[-1:]:
                if decl.body is not None:
                    K.normalize(scope, [], S.Annot(decl.body, decl.type))
        except USER_ERRORS:
            pass


FIXTURE = """\
# two discrete families
cset base
  cells: p q

family F over base
  fiber p: u v  # a comment
  fiber q: w

cset point
  cells: pt

family G over point
  fiber pt:
"""


def test_fixture_mutants_load_or_fail_with_a_format_error(tmp_path):
    path = tmp_path / "fx.txt"
    lines = line_spans(FIXTURE)
    tokens = [m.span() for m in re.finditer(r"\S+", FIXTURE)]
    rng = random.Random(0)
    for _ in range(3000):
        path.write_text(mutate(rng, FIXTURE, rng.choice((lines, tokens)))[0])
        try:
            FX.load_fixture_file(path)
        except FX.FixtureFormatError:
            pass
