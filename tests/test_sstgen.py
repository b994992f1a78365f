"""Generator fidelity: binder counts against the combinatorial oracle,
kernel re-checking of every emitted file, spine shapes, and determinism."""

import cProfile
import hashlib
import re
from math import comb

import pytest
from conftest import REPO_ROOT, call_count

from tt2 import cli, delta, parse
from tt2.delta import boundary_cells
from tt2.elab import elaborate_signature
from tt2.prelude import initial_signature
from tt2.sstgen import (
    GenPlan, LevelCapExceeded, _family_type, cell_name, gen_segal_scaffold,
    gen_spine, gen_sst, telescope_entries,
)

EQUIV_SRC = (
    "def isEquiv : (A : U0) -> (B : U0) -> (A -> B) -> U0 := "
    "\\A B f. ((g : B -> A) × Id (A -> A) (\\x. g (f x)) (\\x. x)) × "
    "((h : B -> A) × Id (B -> B) (\\x. f (h x)) (\\x. x))"
)


def gen_matching_telescope(n: int, family: str = "X") -> list[tuple[str, parse.Raw]]:
    """The matching telescope as parsed raw binder types."""
    return [(name, parse.parse_term(ty)) for name, ty in telescope_entries(n, family)]


def recheck(config, source, preamble=""):
    sig = initial_signature(config)
    if preamble:
        sig, diags = elaborate_signature(parse.parse_file(preamble), sig, config)
        assert not diags
    sig, diags = elaborate_signature(parse.parse_file(source), sig, config)
    return diags


def _count_binders(ty: parse.Raw) -> int:
    """Arrow/pi binders in a family type, named or not."""
    count = 0
    while isinstance(ty, parse.RPi):
        count += 1
        ty = ty.cod
    return count


def _family_types(source: str) -> dict[str, parse.Raw]:
    decl = [d for d in parse.parse_file(source) if d.kind == "def"][0]
    out = {}
    node = decl.body
    while isinstance(node, parse.RSigma) and node.binder is not None:
        out[node.binder] = node.fst
        node = node.snd
    return out


def test_sst_level0_is_unit():
    text = gen_sst(GenPlan(0))
    assert "def SST0 : US1 := Unit" in text


def test_sst_level1_single_family():
    text = gen_sst(GenPlan(1))
    assert "(X0 : U0)" in text
    assert "X1" not in text


def test_sst_level2_family_is_literal():
    text = gen_sst(GenPlan(2))
    assert "X1 : X0 -> X0 -> U0" in text


@pytest.mark.parametrize("n", range(5))
def test_sst_rechecks(config, n):
    assert recheck(config, gen_sst(GenPlan(n))) == []


@pytest.mark.parametrize("n", range(1, 5))
def test_sst_binder_counts_match_oracle(config, n):
    families = _family_types(gen_sst(GenPlan(n)))
    assert list(families) == [f"X{k}" for k in range(n)]
    for k in range(n):
        expected = sum(comb(k + 1, j + 1) for j in range(k))
        assert _count_binders(families[f"X{k}"]) == expected
        assert expected == 2 ** (k + 1) - 2


def test_sst_level8_above_the_cap_rechecks(config):
    # one huge nested Pi/Sigma type; scope checking must not hit the
    # interpreter's recursion limit on it
    assert recheck(config, gen_sst(GenPlan(8, cap=8))) == []


def test_sst9_and_segal8_check_at_the_default_recursion_limit(config):
    # X8 alone is one Π-telescope of 510 binders: at two frames per binder
    # it would not fit under the default limit of 1000, so the telescope
    # must be walked in a loop.
    assert recheck(config, gen_sst(GenPlan(9, cap=9))) == []
    equiv = (REPO_ROOT / "stdlib" / "equiv.tt").read_text(encoding="utf-8")
    assert recheck(config, gen_segal_scaffold(GenPlan(8, emit=frozenset({"segal"}))),
                   preamble=equiv) == []


def test_matching_telescope_level3_shape():
    entries = telescope_entries(3)
    assert len(entries) == 14
    names = [name for name, _ in entries]
    assert names[:4] == ["a0", "a1", "a2", "a3"]
    assert names[4:10] == ["x01", "x02", "x03", "x12", "x13", "x23"]
    assert names[10:] == ["x012", "x013", "x023", "x123"]
    by_name = dict(entries)
    assert by_name["x012"] == "X2 a0 a1 a2 x01 x02 x12"
    assert by_name["x01"] == "X1 a0 a1"


def test_gen_matching_telescope_returns_parsed_types():
    tele = gen_matching_telescope(2)
    assert [name for name, _ in tele] == ["a0", "a1", "a2", "x01", "x02", "x12"]
    assert all(isinstance(ty, parse.Raw) for _, ty in tele)


def test_spine_shapes(config):
    text = gen_spine(GenPlan(2))
    assert "def Spine2" in text
    assert "(x1 : X1 a0 a1)" in text and "(x2 : X1 a1 a2)" in text
    assert recheck(config, text) == []

    text3 = gen_spine(GenPlan(3), literal_spine=True)
    assert recheck(config, text3) == []
    lines = [ln for ln in text3.splitlines() if ln.startswith("def SpineLit3")]
    assert len(lines) == 1
    # three literal lines, two gluing equalities
    assert lines[0].count(": X1 ") == 3
    assert len(re.findall(r"\(e\d : Id X0", lines[0])) == 2
    # strictified spine: three lines, shared endpoints
    spine = [ln for ln in text3.splitlines() if ln.startswith("def Spine3")][0]
    assert spine.count(": X1 ") == 3
    assert spine.count(": X0)") == 4


def test_spine_needs_a_line():
    with pytest.raises(LevelCapExceeded):
        gen_spine(GenPlan(0))


def test_literal_spine_is_an_option_of_gen_spine_alone():
    # a plan cannot carry it to gen_sst or gen_segal_scaffold, as
    # ``tt2 gen sst --literal-spine`` is refused
    with pytest.raises(TypeError, match="literal_spine"):
        GenPlan(2, literal_spine=True)
    assert gen_spine(GenPlan(2), literal_spine=True).startswith(
        "-- tt2 gen spine --levels 2 --literal-spine\n")


@pytest.mark.parametrize("n", [2, 3])
def test_segal_scaffold_rechecks(config, n):
    text = gen_segal_scaffold(GenPlan(n))
    assert f"def SegalCondition{n} : U0 := isEquiv Tot{n} Spine{n} phi{n}" in text
    assert recheck(config, text, preamble=EQUIV_SRC) == []


def test_segal_degenerate_unit_family_checks(config):
    """Unit-valued families: replace the postulated X1/X2 with definitions
    and the Segal statement still checks."""
    text = gen_segal_scaffold(GenPlan(2))
    lines = text.splitlines()
    replaced = []
    for line in lines:
        if line.startswith("postulate X1"):
            replaced.append("def X1 : X0 -> X0 -> U0 := \\a b. Unit")
        elif line.startswith("postulate X2"):
            head = line.split(" : ", 1)[1]
            replaced.append(f"def X2 : {head} := \\a0 a1 a2 f g h. Unit")
        else:
            replaced.append(line)
    assert recheck(config, "\n".join(replaced), preamble=EQUIV_SRC) == []


def test_segal_requires_two_levels():
    with pytest.raises(LevelCapExceeded):
        gen_segal_scaffold(GenPlan(1))


def test_level_cap():
    with pytest.raises(LevelCapExceeded):
        GenPlan(9)
    GenPlan(8)
    GenPlan(9, cap=9)  # raising the cap is allowed


def test_prefix_is_applied(config):
    text = gen_sst(GenPlan(2, names="My"))
    assert "def MySST2" in text and "(MyX1 : MyX0 -> MyX0 -> U0)" in text
    assert recheck(config, text) == []
    assert recheck(config, gen_sst(GenPlan(2, names="a_1'"))) == []


@pytest.mark.parametrize("prefix", ["9", "a b", "x-", "λ", "_x", "x\n"])
def test_prefix_must_be_an_identifier(prefix):
    with pytest.raises(ValueError, match="not an identifier"):
        GenPlan(2, names=prefix)


def test_universe_retarget():
    text = gen_sst(GenPlan(2, universe=1))
    assert "def SST2 : US2 := (X0 : U1) × (X1 : X0 -> X0 -> U1) × Unit" in text
    # the US2 annotation needs a fourth level to classify it
    from tt2.elab import Config

    assert recheck(Config(universes=4), text) == []


def test_a_spine_is_retargeted_and_says_so_in_its_header(config, capsys):
    text = gen_spine(GenPlan(2, universe=1))
    assert text.startswith("-- tt2 gen spine --levels 2 --universe 1\n")
    assert "def Spine2 : U1 := " in text
    assert recheck(config, text) == []
    assert cli.main(["gen", "spine", "--levels", "2", "--universe", "1"]) == 0
    assert capsys.readouterr().out == text


def test_a_negative_universe_and_a_retargeted_segal_are_refused():
    with pytest.raises(ValueError, match="universe index must be non-negative"):
        GenPlan(2, universe=-1)
    # Segal scaffolding states its map against the stdlib's level-0 isEquiv
    with pytest.raises(LevelCapExceeded, match="level-0 isEquiv"):
        gen_segal_scaffold(GenPlan(2, universe=1))


def test_generation_is_deterministic():
    for plan in (GenPlan(3), GenPlan(4)):
        assert gen_sst(plan) == gen_sst(plan)
    p = GenPlan(3)
    assert gen_spine(p, literal_spine=True) == gen_spine(p, literal_spine=True)
    s = GenPlan(2)
    assert gen_segal_scaffold(s) == gen_segal_scaffold(s)


def test_generated_identifiers_are_introduced_before_use():
    # the kernel's scope pass is the arbiter: an out-of-order binder would
    # fail with UNBOUND, so a clean recheck covers well-scopedness
    for n in range(5):
        decls = parse.parse_file(gen_sst(GenPlan(n)))
        assert decls
    seen = set()
    for cell in boundary_cells(4):
        for w in boundary_cells(len(cell) - 1):
            assert cell_name(tuple(cell[i] for i in w)) in seen
        seen.add(cell_name(cell))


@pytest.mark.parametrize("k", range(9))
def test_binders_named_by_dimension_are_those_a_later_binder_mentions(k):
    # oracle: scan the type text of the binders after each one
    faces = [boundary_cells(d) for d in range(k + 1)]
    entries = telescope_entries(k, "X", faces)
    mentioned = [
        any(name in ty.split()[1:] for _, ty in entries[i + 1:])
        for i, (name, _) in enumerate(entries)
    ]
    expected = [f"({name} : {ty})" if used else ty
                for (name, ty), used in zip(entries, mentioned)]
    assert _family_type(k, 0, "X", faces) == " -> ".join(expected + ["U0"])


def _golden_gen_argv(filename: str) -> list[str]:
    """The ``tt2 gen`` arguments that produce a file named in
    tests/golden/gen.sha256."""
    m = re.fullmatch(r"(sst|spine|segal)(\d+)(_pq_u2|_lit|_pq)?\.tt", filename)
    target, levels, variant = m.groups()
    extra = {None: [], "_pq_u2": ["--prefix", "pq_", "--universe", "2"],
             "_lit": ["--literal-spine"], "_pq": ["--prefix", "pq_"]}[variant]
    return ["gen", target, "--levels", levels, *extra]


def test_generated_files_match_the_golden_hashes(tmp_path):
    # The hashes were taken from the generator as it stood before faces
    # became vertex tuples; CI checks the installed script against them too.
    golden = (REPO_ROOT / "tests" / "golden" / "gen.sha256").read_text().splitlines()
    assert len(golden) == 44
    for line in golden:
        digest, filename = line.split("  ")
        out = tmp_path / filename
        assert cli.main([*_golden_gen_argv(filename), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, filename


def test_generated_files_past_the_cap_match_the_golden_hashes():
    # tests/golden/gen.sha256 stops at the CLI cap of 8; vertex label 10
    # first appears at SST-11.  The hashes were taken from the generator
    # as it stood before cell texts came from one template per dimension.
    golden = (REPO_ROOT / "tests" / "golden" / "gen_past_cap.sha256").read_text().splitlines()
    assert len(golden) == 8
    for line in golden:
        digest, filename = line.split("  ")
        _, target, _, levels, *opts = _golden_gen_argv(filename)
        names = opts[opts.index("--prefix") + 1] if "--prefix" in opts else ""
        universe = int(opts[opts.index("--universe") + 1]) if "--universe" in opts else 0
        plan = GenPlan(int(levels), emit=frozenset({target}), names=names,
                       universe=universe, cap=11)
        text = {"sst": gen_sst, "segal": gen_segal_scaffold}[target](plan)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, filename


def test_each_dimension_faces_are_enumerated_once_per_file():
    # SST 1..7 used to enumerate boundary cells once per cell: 459 calls
    # for 7 distinct dimensions.
    for gen, plan, most in [(gen_sst, GenPlan(7, cap=7), 7),
                            (gen_segal_scaffold, GenPlan(5), 6)]:
        profile = cProfile.Profile()
        profile.runcall(gen, plan)
        assert 0 < call_count(profile, delta.boundary_cells) <= most


def test_cells_are_written_with_fewer_python_calls_than_cells():
    # SST-7 writes 240 cells.  Naming each face of each cell through a
    # Python-level helper took 520 calls or more; one printf template per
    # dimension leaves a few calls per dimension.
    plan = GenPlan(7, cap=7)
    cells = sum(len(boundary_cells(k)) for k in range(plan.levels))
    assert cells == 240
    profile = cProfile.Profile()
    profile.runcall(gen_sst, plan)
    calls = sum(e.callcount for e in profile.getstats() if not isinstance(e.code, str))
    assert calls < cells


@pytest.mark.parametrize("gen, levels", [(gen_sst, 13), (gen_segal_scaffold, 12)])
def test_faces_of_a_simplex_with_13_vertices_are_refused(gen, levels):
    # The top telescope is the boundary of the 12-simplex, where (0, 12) and
    # (0, 1, 2) would both be named x012 and one binder would shadow the other.
    with pytest.raises(ValueError, match="13 vertices.*x012"):
        gen(GenPlan(levels, cap=levels))


def test_twelve_vertices_keep_distinct_names():
    # the boundary of the 11-simplex, Segal-11's Tot, is the widest one named
    names = [cell_name(cell) for cell in boundary_cells(11)]
    assert len(set(names)) == len(names) == 2 ** 12 - 2
    assert [name for name, _ in telescope_entries(11)] == names
    with pytest.raises(ValueError, match="x012"):
        cell_name((0, 12))
