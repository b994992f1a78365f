"""The former table of ``conv``: every core former is evaluated, read
back and compared either by a case of its own or through the table, each
row has its core class's fields, and each former, built as an open term,
normalizes as the small-step oracle says."""

import pytest

from smallstep_oracle import normalize
from termgen import open_instance

from tt2 import conv, core
from tt2.core import FIB, STRICT, Context, Signature, Term

EMPTY = Signature()
FORMERS = Term.__subclasses__()
# Forms that keep cases of their own, ahead of the table's generic case:
# variables and constants, and the hot or looped forms.
HAND_WRITTEN = {
    core.Var, core.Const, core.App, core.Pi, core.Sigma, core.Lam,
    core.Pair, core.Suc, core.Fst, core.Snd,
}
# enough variables in scope for every field of ``open_instance`` at offset 1
WIDTH = 8


def test_every_former_has_a_case_or_a_row():
    assert len(FORMERS) == 25
    for cls in FORMERS:
        assert cls in HAND_WRITTEN or cls in conv.FORMERS, cls.__name__
    assert set(conv.FORMERS) <= set(FORMERS)


def test_each_row_has_its_core_class_fields():
    for term_cls, (built, rule) in conv.FORMERS.items():
        fields = term_cls.__match_args__
        if rule is not None:
            # an eliminator's frame holds all but the scrutinee, its last field
            fields = fields[:-1]
        assert built.__match_args__ == fields, term_cls.__name__


@pytest.mark.parametrize("layer", [FIB, STRICT], ids=lambda layer: layer.name)
@pytest.mark.parametrize(
    "term_cls", [c for c in FORMERS if c not in (core.Var, core.Const)],
    ids=lambda c: c.__name__,
)
def test_each_former_normalizes_open_as_the_oracle_does(term_cls, layer):
    ctx = Context()
    for level in range(WIDTH):
        ctx = ctx.extend(None, None, conv.fresh(level))
    t = open_instance(term_cls, layer)
    assert conv.nf(EMPTY, ctx, t) == normalize(EMPTY, t)
    # Two evaluations of one term convert; a term that differs in a
    # layer, a universe or each term field does not.
    a, b = (conv.evaluate(EMPTY, ctx.env, t) for _ in range(2))
    assert a is not b and conv.convert(EMPTY, ctx.types, a, b, None)
    other = open_instance(term_cls, layer, offset=1)
    if other != t:
        assert not conv.convert(EMPTY, ctx.types, a, conv.evaluate(EMPTY, ctx.env, other), None)
    if set(term_cls.__match_args__) & {"layer", "sort"}:
        flipped = open_instance(term_cls, STRICT if layer is FIB else FIB)
        assert not conv.convert(
            EMPTY, ctx.types, a, conv.evaluate(EMPTY, ctx.env, flipped), None)
