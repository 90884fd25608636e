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


def load_manifest(directory: Path) -> list:
    path = directory / "MANIFEST"
    files = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("--"):
            files.append(directory / line)
    return files


def load_opaque(directory: Path) -> frozenset:
    path = directory / "OPAQUE"
    if not path.exists():
        return frozenset()
    names = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("--"):
            names.add(line)
    return frozenset(names)


def parse_corpus(directory: Path = None) -> list:
    directory = directory or corpus_dir()
    decls = []
    for path in load_manifest(directory):
        decls.extend(P.parse_program(path.read_text()))
    return decls


def check_corpus(directory: Path = None):
    """Parse, elaborate and check the whole corpus.

    Returns (core declarations, scope, report); stops at the first failing
    declaration, which the report names.
    """
    directory = directory or corpus_dir()
    core, scope, report, _ = E.elaborate_and_check(
        parse_corpus(directory), load_opaque(directory))
    return core, scope, report


# ---------------------------------------------------------------------------
# Theorem map


@dataclass
class TheoremEntry:
    identifier: str
    anchor: str
    statement: str  # surface syntax of the declared type


@dataclass
class TheoremMap:
    entries: list


def load_theorem_map(directory: Path = None) -> TheoremMap:
    directory = directory or corpus_dir()
    entries = []
    for line in (directory / "THEOREMS.tsv").read_text().splitlines():
        line = line.rstrip("\n")
        if not line or line.startswith("--"):
            continue
        identifier, anchor, statement = line.split("\t", 2)
        entries.append(TheoremEntry(identifier, anchor, statement))
    return TheoremMap(entries)


def verify_corpus(scope: K.GlobalScope, tmap: TheoremMap) -> Report:
    """Check that every mapped identifier is in scope with the recorded
    statement shape."""
    report = Report()
    for entry in tmap.entries:
        t0 = time.time()
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
            report.add_ok(f"{entry.identifier} [{entry.anchor}]", time.time() - t0)
        except CorpusError as exc:
            report.add_error(f"{entry.identifier} [{entry.anchor}]", str(exc),
                             time.time() - t0)
    return report
