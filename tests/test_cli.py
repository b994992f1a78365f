"""Command-line behaviour: exit codes, stream separation, JSON
diagnostics, generation to files, and order-insensitivity of independent
inputs."""

import json
import subprocess
import sys

from conftest import REPO_ROOT
from test_conv import SPINE_ETA_SOURCE

from tt2.diagnostics import offset_to_line_col


def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tt2", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PATH": "/usr/bin:/bin", "TT2_COLOR": "0",
             "PYTHONPATH": str(REPO_ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )


# python -m tt2.cli needs a tiny __main__ shim; cover it here
def test_module_entry_exists():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "tt2" in result.stdout


def test_check_accept_file_exits_zero():
    result = run_cli("check", "stdlib/fin.tt")
    assert result.returncode == 0
    assert result.stdout == ""  # artifacts only on stdout
    assert "checked" in result.stderr


def test_check_negative_file_exits_one_with_code():
    result = run_cli("check", "stdlib/negative/jf_strict_motive.tt")
    assert result.returncode == 1
    assert "error[FIBRANCY]" in result.stderr
    assert result.stdout == ""


def test_check_missing_file_exits_two():
    result = run_cli("check", "no_such_file.tt")
    assert result.returncode == 2


def test_usage_error_exits_two():
    result = run_cli("check")
    assert result.returncode == 2
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_json_diagnostics_shape():
    result = run_cli("--json-diagnostics", "check", "stdlib/negative/u0_in_u0.tt")
    assert result.returncode == 1
    payloads = [json.loads(line) for line in result.stderr.splitlines()
                if line.startswith("{")]
    assert len(payloads) == 1
    diag = payloads[0]
    assert set(diag) == {"code", "span", "message", "file", "line", "col"}
    assert diag["code"] == "SORT_MISMATCH"
    assert isinstance(diag["span"], list) and len(diag["span"]) == 2
    assert diag["file"] == "stdlib/negative/u0_in_u0.tt"
    source = (REPO_ROOT / diag["file"]).read_text(encoding="utf-8")
    assert (diag["line"], diag["col"]) == offset_to_line_col(source, diag["span"][0])
    # one check of two files: each diagnostic names its own file
    files = ["stdlib/negative/u0_in_u0.tt", "stdlib/negative/unbound.tt"]
    result = run_cli("--json-diagnostics", "check", *files)
    assert result.returncode == 1
    payloads = [json.loads(line) for line in result.stderr.splitlines()
                if line.startswith("{")]
    assert [p["file"] for p in payloads] == files


def test_unit_eta_inside_neutral_spines_checks(tmp_path):
    path = tmp_path / "spine_eta.tt"
    path.write_text(SPINE_ETA_SOURCE, encoding="utf-8")
    result = run_cli("check", str(path))
    assert result.returncode == 0, result.stderr


def test_non_utf8_input_is_a_coded_diagnostic(tmp_path):
    src = tmp_path / "bad_bytes.tt"
    src.write_bytes(b"\xff\xfe def")
    for argv in (("check", str(src)), ("eval", str(src), "--term", "a")):
        result = run_cli(*argv)
        assert result.returncode == 1
        assert "error[ENCODING]" in result.stderr
        assert "Traceback" not in result.stderr
        result = run_cli("--json-diagnostics", *argv)
        assert result.returncode == 1
        payloads = [json.loads(line) for line in result.stderr.splitlines()
                    if line.startswith("{")]
        assert [p["code"] for p in payloads] == ["ENCODING"]
        assert payloads[0]["span"] == [0, 1]


def test_too_deep_input_is_a_coded_diagnostic(tmp_path):
    src = tmp_path / "deep.tt"
    src.write_text("def n : Nat := " + "suc (" * 5000 + "zero" + ")" * 5000 + "\n")
    result = run_cli("check", str(src))
    assert result.returncode == 1
    assert "error[DEPTH]" in result.stderr
    assert "Traceback" not in result.stderr
    result = run_cli("--json-diagnostics", "check", str(src))
    assert result.returncode == 1
    payloads = [json.loads(line) for line in result.stderr.splitlines()
                if line.startswith("{")]
    assert [p["code"] for p in payloads] == ["DEPTH"]
    assert payloads[0]["span"][0] == 0


def test_eval_of_a_long_definition_chain_never_crashes(tmp_path):
    src = tmp_path / "chain.tt"
    lines = ["def n0 : Nat := zero"]
    lines += [f"def n{i} : Nat := suc n{i - 1}" for i in range(1, 1201)]
    src.write_text("\n".join(lines) + "\n")
    for flags in ((), ("--json-diagnostics",)):
        result = run_cli(*flags, "eval", str(src), "--term", "n1200")
        assert "Traceback" not in result.stderr
        if result.returncode == 0:
            assert result.stdout == "suc (" * 1199 + "suc zero" + ")" * 1199 + "\n"
        else:
            assert result.returncode == 1
            assert "DEPTH" in result.stderr


def test_eval_of_deeply_nested_successors_prints_the_normal_form(tmp_path):
    # Elaboration, evaluation, read-back and printing each recurse once per
    # nesting level; 900 levels stay under the default recursion limit
    # only if none of them spends a second frame per level.
    depth = 900
    src = tmp_path / "deep.tt"
    src.write_text("def n : Nat := " + "suc (" * depth + "zero" + ")" * depth + "\n")
    result = run_cli("eval", str(src), "--term", "n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "suc (" * (depth - 1) + "suc zero" + ")" * (depth - 1) + "\n"


def test_diagnostic_format_is_file_line_col():
    result = run_cli("check", "stdlib/negative/unbound.tt")
    assert result.returncode == 1
    line = [l for l in result.stderr.splitlines() if "error[" in l][0]
    prefix, rest = line.split(" ", 1)
    fname, row, col, _ = prefix.split(":")
    assert fname.endswith("unbound.tt")
    assert row.isdigit() and col.isdigit()
    assert rest.startswith("error[UNBOUND]")


def test_gen_writes_file_and_rechecks(tmp_path):
    out = tmp_path / "sst2.tt"
    result = run_cli("gen", "sst", "--levels", "2", "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert "X1 : X0 -> X0 -> U0" in text
    check = run_cli("check", str(out))
    assert check.returncode == 0


def test_gen_to_stdout_only():
    result = run_cli("gen", "spine", "--levels", "2")
    assert result.returncode == 0
    assert "def Spine2" in result.stdout
    assert result.stderr == ""


def test_gen_level_cap_fails_cleanly():
    result = run_cli("gen", "sst", "--levels", "9")
    assert result.returncode == 1
    assert "cap" in result.stderr


def test_delta_faces_output():
    result = run_cli("delta", "--faces", "1", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["0,1", "0,2", "0,3", "1,2", "1,3", "2,3"]


def test_eval_prints_normal_form():
    result = run_cli("eval", "stdlib/nat_arith.tt", "--term", "four")
    assert result.returncode == 0
    assert result.stdout.strip() == "suc (suc (suc (suc zero)))"


def test_eval_of_postulate_fails():
    result = run_cli("eval", "stdlib/cocylinder.tt", "--term", "ccA")
    assert result.returncode == 1
    assert "postulate" in result.stderr


def test_check_multiple_files_share_signature():
    result = run_cli("check", "stdlib/basics.tt", "stdlib/nat_arith.tt",
                     "stdlib/strict_cat.tt")
    # strict_cat depends on nat_arith definitions
    assert result.returncode == 0


def test_negative_corpus_is_order_insensitive():
    files = [
        "stdlib/negative/u0_in_u0.tt",
        "stdlib/negative/unbound.tt",
        "stdlib/negative/natf_where_nats.tt",
    ]
    fwd = run_cli("check", *files)
    rev = run_cli("check", *files[::-1])
    assert fwd.returncode == rev.returncode == 1

    def codes(stderr):
        return sorted(line.split("error[")[1].split("]")[0]
                      for line in stderr.splitlines() if "error[" in line)

    assert codes(fwd.stderr) == codes(rev.stderr)


def test_dump_core_is_byte_identical_across_runs():
    first = run_cli("check", "stdlib/fin.tt", "--dump-core")
    second = run_cli("check", "stdlib/fin.tt", "--dump-core")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert "def FinS" in first.stdout


def test_universes_flag_extends_hierarchy(tmp_path):
    src = tmp_path / "tall.tt"
    src.write_text("def T : U3 := U2 -> U2\n")
    default = run_cli("check", str(src))
    assert default.returncode == 1
    tall = run_cli("--universes", "5", "check", str(src))
    assert tall.returncode == 0


def test_collapse_flag_is_exposed(tmp_path):
    src = tmp_path / "collapse_use.tt"
    src.write_text("def T : US0 := U1 -> U1\n")
    strict = run_cli("check", str(src))
    assert strict.returncode == 1
    collapsed = run_cli("--collapse-fibrant-universes", "check", str(src))
    assert collapsed.returncode == 0
