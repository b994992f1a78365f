"""The object-language corpus: manifest loading and expectations.

Files live under ``stdlib/`` at the repository root, listed in dependency
order; accept files share one growing signature, negative files are
self-contained and carry the error code they must fail with.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .core import Node

# Top-level declaration counts for the accept files, cross-checked by the
# corpus tests after elaboration.
EXPECTED_DEFINITIONS = {
    "basics.tt": 7,
    "nat_arith.tt": 9,
    "sum_empty.tt": 5,
    "unit_eta.tt": 5,
    "uip_use.tt": 5,
    "fin.tt": 7,
    "equiv.tt": 8,
    "collapse.tt": 9,
    "cocylinder.tt": 9,
    "strict_cat.tt": 5,
    "fib_repl_inconsistent.tt": 10,
    "semi_segal2.tt": 12,
}


class CorpusEntry(Node, frozen=True):
    path: str
    outcome: str  # "accept" | "reject"
    code: Optional[str]
    expected_definitions: Optional[int]

    @property
    def accepts(self) -> bool:
        return self.outcome == "accept"


class CorpusManifest(Node, frozen=True):
    root: Path
    entries: tuple[CorpusEntry, ...]

    def accept_entries(self) -> list[CorpusEntry]:
        return [e for e in self.entries if e.accepts]

    def reject_entries(self) -> list[CorpusEntry]:
        return [e for e in self.entries if not e.accepts]

    def source(self, entry: CorpusEntry) -> str:
        return (self.root / entry.path).read_text(encoding="utf-8")


def default_root() -> Path:
    """The stdlib directory, found relative to the package checkout."""
    here = Path(__file__).resolve()
    for base in (here.parents[2], Path.cwd()):
        candidate = base / "stdlib"
        if (candidate / "MANIFEST").is_file():
            return candidate
    raise FileNotFoundError("cannot locate stdlib/MANIFEST")


def corpus(root: Optional[Path] = None) -> CorpusManifest:
    """Load the manifest: lines of ``<file> <accept|reject:CODE>``."""
    root = Path(root) if root is not None else default_root()
    entries = []
    for raw_line in (root / "MANIFEST").read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        path, outcome = line.split()
        if outcome == "accept":
            entries.append(
                CorpusEntry(path, "accept", None, EXPECTED_DEFINITIONS.get(path))
            )
        elif outcome.startswith("reject:"):
            entries.append(CorpusEntry(path, "reject", outcome.split(":", 1)[1], None))
        else:
            raise ValueError(f"malformed manifest line: {raw_line!r}")
    return CorpusManifest(root, tuple(entries))
