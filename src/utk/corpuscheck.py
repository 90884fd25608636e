"""The shipped proof corpus: manifest loading, checking, and the theorem map
that pins every required statement to its checked declaration."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from . import elab as E
from . import kernel as K
from . import parser as P
from .report import Report


class CorpusError(Exception):
    pass


class MissingTheoremError(CorpusError):
    pass


class StatementShapeMismatchError(CorpusError):
    pass


def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def _lines(path: Path) -> list:
    """The stripped lines of `path`, without blanks and `--` comments."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("--")]


def check_corpus(directory: Path = None):
    """Parse, elaborate and check the whole corpus.

    Returns (core declarations, scope, report); stops at the first failing
    declaration, which the report names.
    """
    directory = directory or corpus_dir()
    decls = P.parse_files(directory / name for name in _lines(directory / "MANIFEST"))
    opaque_file = directory / "OPAQUE"
    opaque = frozenset(_lines(opaque_file)) if opaque_file.exists() else frozenset()
    core, scope, report, _ = E.elaborate_and_check(decls, opaque)
    return core, scope, report


# ---------------------------------------------------------------------------
# Theorem map


@dataclass
class TheoremEntry:
    identifier: str
    anchor: str
    statement: str  # surface syntax of the declared type


def load_theorem_map(directory: Path = None) -> list:
    """The `TheoremEntry` of each line of THEOREMS.tsv, in order."""
    directory = directory or corpus_dir()
    entries = []
    for line in _lines(directory / "THEOREMS.tsv"):
        identifier, anchor, statement = line.split("\t", 2)
        entries.append(TheoremEntry(identifier, anchor, statement))
    return entries


def verify_corpus(scope: K.GlobalScope, entries: list) -> Report:
    """Check that every mapped identifier is in scope with the recorded
    statement shape."""
    report = Report()
    for entry in entries:
        t0 = time.perf_counter()
        try:
            if entry.identifier not in scope:
                raise MissingTheoremError(f"missing theorem: {entry.identifier}")
            try:
                stmt = E.elab_term(
                    P.parse_term(entry.statement), [], scope.entries.keys())
            except (P.ParseError, E.ElabError) as exc:
                raise StatementShapeMismatchError(
                    f"recorded statement does not elaborate: {exc}") from exc
            chk = K.Checker(scope)
            chk.infer_universe(stmt)
            recorded = chk.eval(stmt)
            actual = scope[entry.identifier].type
            if not K.convert_type(0, recorded, actual):
                raise StatementShapeMismatchError(
                    f"statement shape mismatch for {entry.identifier}: "
                    f"expected {entry.statement}")
            report.add_ok(f"{entry.identifier} [{entry.anchor}]", time.perf_counter() - t0)
        except CorpusError as exc:
            report.add_error(f"{entry.identifier} [{entry.anchor}]", str(exc),
                             time.perf_counter() - t0)
    return report
