"""Shared report structure for corpus runs and the model self-test."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


def dump_json(data: dict) -> str:
    """The one JSON layout of every machine readable report."""
    return json.dumps(data, indent=2, sort_keys=True)


@dataclass
class Entry:
    name: str
    status: str  # "ok" or "error"
    error: Optional[str] = None
    elapsed: float = 0.0


@dataclass
class Report:
    entries: list = field(default_factory=list)

    def add_ok(self, name: str, elapsed: float = 0.0):
        self.entries.append(Entry(name, "ok", None, elapsed))

    def add_error(self, name: str, message: str, elapsed: float = 0.0):
        self.entries.append(Entry(name, "error", message, elapsed))

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.entries)

    def to_dict(self, with_timing: bool = False) -> dict:
        decls = []
        for e in self.entries:
            row = {"name": e.name, "status": e.status, "error": e.error}
            if with_timing:
                row["elapsed"] = round(e.elapsed, 3)
            decls.append(row)
        return {"declarations": decls, "pass": self.ok}

    def to_json(self, with_timing: bool = False) -> str:
        return dump_json(self.to_dict(with_timing))

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            if e.status == "ok":
                lines.append(f"ok    {e.name}")
            else:
                lines.append(f"FAIL  {e.name}: {e.error}")
        lines.append("pass" if self.ok else "fail")
        return "\n".join(lines)
