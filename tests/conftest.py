import functools
import sys
import threading
import types
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


def fails_fast_on_recursion(probe):
    """Decorate a test so that a ``RecursionError`` fails it at once, with
    a one-line message.  pytest can take minutes to report the thousand
    frames of such an error, so a walk that starts to recurse per nesting
    level would stall the suite instead of failing it; failing after the
    ``except`` block leaves the error out of the report."""

    @functools.wraps(probe)
    def run(*args, **kwargs):
        try:
            return probe(*args, **kwargs)
        except RecursionError:
            pass
        pytest.fail(f"{probe.__name__} exceeded the recursion limit", pytrace=False)

    return run


def on_a_large_stack(fn, *args, limit=20_000):
    """``fn(*args)`` on a thread with a 64 MiB stack, under a recursion
    limit of ``limit``, as the ``tt2`` script runs its kernel; the old limit
    is restored after.  A limit a little above an input's depth fails a
    walk that takes two frames per level of it."""
    result, old_limit = [], sys.getrecursionlimit()
    thread = threading.Thread(target=lambda: result.append(fn(*args)))
    threading.stack_size(64 << 20)
    sys.setrecursionlimit(limit)
    try:
        thread.start()
        thread.join()
    finally:
        threading.stack_size(0)
        sys.setrecursionlimit(old_limit)
    assert result, f"{fn.__name__} raised on the large stack"
    return result[0]


def call_count(profile, fn):
    """How often the finished ``cProfile.Profile`` saw ``fn`` called, keyed
    by its code object rather than its pstats name."""
    return sum(e.callcount for e in profile.getstats() if e.code is fn.__code__)


def python_calls(profile):
    """How many Python-level calls the finished ``cProfile.Profile`` saw:
    every entry with a code object, so no built-in function counts."""
    return sum(e.callcount for e in profile.getstats() if isinstance(e.code, types.CodeType))


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
