"""The built-in axioms: declared in every fresh signature, elaborated on
first read of their type, and then the same core as eager elaboration of
the prelude text."""

import cProfile
import sys

import pytest

from tt2 import parse, prelude
from tt2.core import DeclKind, InternalError, is_scope_closed
from tt2.elab import Config, Elaborator, elaborate_signature
from tt2.prelude import initial_signature, prelude_source


def _eager(config):
    sig, diags = elaborate_signature(parse.parse_file(prelude_source(config)), config=config)
    assert not diags, [d.message for d in diags]
    return sig


def _calls(profile, fn):
    # Keyed by the function's code object rather than its pstats name.
    return sum(e.callcount for e in profile.getstats() if e.code is fn.__code__)


@pytest.mark.parametrize("collapse", [False, True])
@pytest.mark.parametrize("universes", [1, 2, 3, 4, 5])
def test_every_axiom_forces_to_its_eager_elaboration(universes, collapse):
    config = Config(universes=universes, collapse_fibrant_universes=collapse)
    eager = _eager(config)
    lazy = initial_signature(config)
    assert list(lazy.entries) == list(eager.entries)
    assert len(lazy.entries) == (0 if universes < 2 else universes + 1)
    for name, entry in lazy.entries.items():
        assert entry.kind is DeclKind.AXIOM and entry.body is None
        assert is_scope_closed(entry.ty)
        assert entry.ty == eager.entries[name].ty
        assert entry.ty is entry.ty  # elaborated once, then kept


def test_a_fresh_signature_elaborates_nothing(config):
    profile = cProfile.Profile()
    sig = profile.runcall(initial_signature, config)
    assert list(sig.entries) == ["uip", "funextS", "ua0", "ua1"]
    assert _calls(profile, parse.parse_file) == 0
    assert _calls(profile, Elaborator.infer) == 0


def _check_file(config, manifest, path):
    sig = initial_signature(config)
    entry = next(e for e in manifest.accept_entries() if e.path == path)
    decls = parse.parse_file(manifest.source(entry))
    profile = cProfile.Profile()
    sig, diags = profile.runcall(elaborate_signature, decls, sig, config)
    assert not diags
    forced = [name for name in initial_signature(config).entries if name in sig.type_values]
    # each forced axiom parses its own statement once
    assert _calls(profile, parse.parse_file) == len(forced)
    return forced


def test_checking_basics_forces_no_axiom(config, manifest):
    assert _check_file(config, manifest, "basics.tt") == []


def test_checking_uip_use_forces_only_uip(config, manifest):
    assert _check_file(config, manifest, "uip_use.tt") == ["uip"]


def test_signatures_do_not_share_their_axioms(config):
    first, second = initial_signature(config), initial_signature(config)
    assert first.entries["ua0"] is not second.entries["ua0"]
    first.entries["ua0"].ty
    profile = cProfile.Profile()
    profile.runcall(lambda: second.entries["ua0"].ty)
    assert _calls(profile, parse.parse_file) == 1


def test_an_ill_typed_axiom_fails_on_first_use(config, monkeypatch):
    monkeypatch.setattr(prelude, "_ua_axiom", lambda i: f"postulate ua{i} : zero")
    sig = initial_signature(config)
    assert "ua0" in sig.entries
    decls = parse.parse_file("def n : Nat := zero\n")
    sig, diags = elaborate_signature(decls, sig, config)
    assert not diags
    with pytest.raises(InternalError, match="built-in axioms failed to elaborate"):
        elaborate_signature(parse.parse_file("def e : Nat := ua0\n"), sig, config)


def _read_at_depth(entry, depth):
    if depth:
        return _read_at_depth(entry, depth - 1)
    return entry.ty


def test_a_first_read_too_deep_in_the_stack_is_a_recursion_error(config):
    # The reader's declaration then gets a DEPTH diagnostic, as it would
    # for any other work that ran out of stack; the axiom is not broken.
    frames = _stack_depth()
    expected = _eager(config).entries["ua0"].ty
    outcomes = set()
    for room in range(10, 400, 10):
        entry = initial_signature(config).entries["ua0"]
        try:
            _read_at_depth(entry, sys.getrecursionlimit() - frames - room)
        except RecursionError:
            outcomes.add("depth")
        else:
            outcomes.add("ok")
        assert entry.ty == expected
    assert outcomes == {"depth", "ok"}


def _stack_depth():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth
