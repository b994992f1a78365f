"""The differential harness of ``tests/differential.py`` keeps working."""

import subprocess
import sys

import differential
from conftest import REPO_ROOT

SCRIPT = str(REPO_ROOT / "tests" / "differential.py")


def test_the_working_tree_agrees_with_itself():
    # Both runs parse and elaborate the same 50 mutated inputs, each tree in
    # its own subprocess, and every outcome matches.
    proc = subprocess.run([sys.executable, SCRIPT, "--base", str(REPO_ROOT), "--count", "50"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        f"differential: 50 inputs at seed 27 against {REPO_ROOT}: 0 differ, 0 crash")


def test_inputs_are_seeded_and_draw_every_edit():
    inputs = differential.draw(200, 27)
    assert inputs == differential.draw(200, 27) and inputs != differential.draw(200, 28)
    assert {edit for _, edits, _ in inputs for edit in edits} == set(differential.EDITS)
    labels = {label for label, _, _ in inputs}
    assert {"stdlib/basics.tt", "SST-4", "equiv.tt+Segal-3"} <= labels


def test_a_changed_outcome_is_reported_with_its_file_and_span():
    inputs = [("stdlib/basics.tt", ["delete"], ""), ("SST-2", ["swap", "rename"], "")]
    parsed = {"decls": [["A", [0, 9], "ab"]], "elab": [["UNBOUND", [4, 5], "unbound name 'x'"]]}
    base = [{"parse": ["SYNTAX", [3, 4], "expected a term, found ')'"]}, parsed]
    work = [base[0], {**parsed, "elab": [["UNBOUND", [4, 5], "unknown name 'x'"]]}]
    assert differential.compare(inputs, base, base, show=0) == []
    assert differential.compare(inputs, base, work, show=0) == [
        "  input 1 (SST-2; swap, rename): elaboration diagnostic 0: UNBOUND at [4, 5]: "
        "\"unknown name 'x'\"; base UNBOUND at [4, 5]: \"unbound name 'x'\""]
    work = [{"decls": [], "elab": []}, {**parsed, "decls": [["A", [0, 9], "cd"]]}]
    assert differential.compare(inputs, base, work, show=0) == [
        "  input 0 (stdlib/basics.tt; delete): parse: parsed; "
        "base SYNTAX at [3, 4]: \"expected a term, found ')'\"",
        "  input 1 (SST-2; swap, rename): declaration 0: 'A' at [0, 9], tree cd; "
        "base 'A' at [0, 9], tree ab"]


def test_totality_runs_each_input_through_the_script():
    proc = subprocess.run([sys.executable, SCRIPT, "--totality", "2", "--seed", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("totality: 2 inputs at seed 3 through python -m tt2 check: exit ")
    assert last.endswith("; 0 fail")
