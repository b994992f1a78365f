import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tt2.elab import Config
from tt2.prelude import initial_signature

REPO_ROOT = Path(__file__).resolve().parents[1]

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


class Entry(NamedTuple):
    path: str
    code: Optional[str]  # a reject file's error code; None for an accept file
    expected_definitions: Optional[int]


class Manifest:
    """``stdlib/MANIFEST``: lines of ``<file> accept`` or
    ``<file> reject:CODE``, in dependency order.  Accept files share one
    growing signature; each reject file stands alone and fails with CODE."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.entries = []
        for line in (root / "MANIFEST").read_text(encoding="utf-8").splitlines():
            path, outcome = line.split()
            code = None if outcome == "accept" else outcome.removeprefix("reject:")
            self.entries.append(Entry(path, code, EXPECTED_DEFINITIONS.get(path)))

    def accept_entries(self) -> list[Entry]:
        return [e for e in self.entries if e.code is None]

    def reject_entries(self) -> list[Entry]:
        return [e for e in self.entries if e.code is not None]

    def source(self, entry: Entry) -> str:
        return (self.root / entry.path).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def config():
    return Config()


@pytest.fixture(scope="session")
def manifest():
    return Manifest(REPO_ROOT / "stdlib")


@pytest.fixture()
def base_sig(config):
    # fresh per test: signatures grow as files are checked into them
    return initial_signature(config)
