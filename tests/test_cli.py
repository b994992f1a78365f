"""Command-line behaviour: exit codes, stream separation, JSON
diagnostics, generation to files, and order-insensitivity of independent
inputs."""

import argparse
import gc
import hashlib
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from conftest import REPO_ROOT, fails_fast_on_recursion, on_a_large_stack
from test_conv import SPINE_ETA_SOURCE

from tt2 import cli, parse, pretty
from tt2.diagnostics import offset_to_line_col
from tt2.elab import Config, elaborate_signature
from tt2.prelude import initial_signature, prelude_source


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


@pytest.mark.parametrize("include, status, message", [
    (["--include", str(REPO_ROOT / "stdlib")], 0, "tt2: checked "),
    ([], 2, "tt2: cannot read 'fin.tt'\n"),
], ids=["with-root", "without-root"])
def test_include_roots_resolve_inputs(tmp_path, include, status, message):
    # fin.tt is not in the working directory: only the include root finds it
    result = run_cli(*include, "check", "fin.tt", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (status, "")
    assert result.stderr.startswith(message) and "Traceback" not in result.stderr


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
    # Nested sums Sum (Sum (… Nat) Nat) Nat: genuine nesting, which
    # recurses at two frames per level, here past the recursion limit of
    # the script's largest stack.
    levels = max(cli.STACK_SIZES) // cli.STACK_PER_FRAME // 2 + 10_000
    src = tmp_path / "deep.tt"
    src.write_text("def T : U0 := " + "Sum (" * levels + "Sum Nat Nat" + ") Nat" * levels + "\n")
    result = run_cli("check", str(src))
    assert result.returncode == 1  # not a signal
    assert "error[DEPTH]" in result.stderr
    assert "Traceback" not in result.stderr
    result = run_cli("--json-diagnostics", "check", str(src))
    assert result.returncode == 1
    payloads = [json.loads(line) for line in result.stderr.splitlines()
                if line.startswith("{")]
    assert [p["code"] for p in payloads] == ["DEPTH"]
    assert payloads[0]["span"][0] == 0


def _domains_chain(levels):
    # A{i} names A{i-1} as a Π domain, so read-back enters one defined
    # constant's value per level
    lines = ["def A0 : U0 := Nat"] + [f"def A{i} : U0 := A{i - 1} -> Nat" for i in range(1, levels + 1)]
    return "\n".join(lines) + "\n", "(" * (levels - 1) + "Nat -> Nat" + ") -> Nat" * (levels - 1) + "\n"


# Inputs nested far past Python's default recursion limit, which the script
# checks on its large stack: the result each ends in, and what it prints.
DEEP_INPUTS = {
    "5000 nested sums": (
        "def T : U0 := " + "Sum (" * 4999 + "Sum Nat Nat" + ") Nat" * 4999 + "\n",
        ("check",), "",
    ),
    "5000 left-nested domains": (
        "def T : U1 := " + "(" * 4999 + "U0 -> U0" + ") -> U0" * 4999 + "\n",
        ("check",), "",
    ),
    "20000-definition chain": (
        "def n0 : Nat := zero\n" + "".join(f"def n{i} : Nat := suc n{i - 1}\n" for i in range(1, 20_001)),
        ("eval", "--term", "n20000"), "suc (" * 19_999 + "suc zero" + ")" * 19_999 + "\n",
    ),
}


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_the_script_checks_inputs_nested_past_the_default_limit(tmp_path, name):
    text, (command, *flags), out = DEEP_INPUTS[name]
    (tmp_path / "deep.tt").write_text(text)
    result = run_cli(command, "deep.tt", *flags, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (0, out), result.stderr


def test_check_of_2000_nested_successors_passes(tmp_path):
    # Checking, evaluation, read-back and printing walk a numeral in a loop.
    depth = 2000
    src = tmp_path / "deep.tt"
    src.write_text("def n : Nat := " + "suc (" * depth + "zero" + ")" * depth + "\n")
    result = run_cli("check", str(src))
    assert result.returncode == 0, result.stderr
    result = run_cli("check", str(src), "--dump-core")
    assert result.returncode == 0, result.stderr
    numeral = "suc (" * (depth - 1) + "suc zero" + ")" * (depth - 1)
    assert result.stdout.splitlines()[-1] == f"def n : Nat := {numeral}"
    result = run_cli("eval", str(src), "--term", "n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == numeral + "\n"


def test_check_of_3000_nested_pairs_passes(tmp_path):
    # Checking, evaluation, read-back and printing walk right-nested pairs
    # in a loop.
    depth = 3000
    src = tmp_path / "pairs.tt"
    ty = "(Unit × " * depth + "Unit" + ")" * depth
    pair = "(star , " * depth + "star" + ")" * depth
    src.write_text(f"def T : U0 := {ty}\ndef p : T := {pair}\n")
    result = run_cli("check", str(src), "--dump-core")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"def p : T := {pair}"
    result = run_cli("eval", str(src), "--term", "p")
    assert result.returncode == 0, result.stderr
    assert result.stdout == pair + "\n"


def _main_at_one_frame_per_level(depth, argv, capsys):
    """The output of ``cli.main(argv)`` in-process, on a large stack under a
    recursion limit of ``depth`` plus 100: an input ``depth`` levels deep
    fails there if any layer takes two frames per level."""
    status = on_a_large_stack(cli.main, argv, limit=depth + 100)
    out, err = capsys.readouterr()
    assert status == 0, err
    return out


def test_check_of_3000_nested_pairs_takes_one_frame_per_level(tmp_path, capsys):
    # The script runs its kernel on a stack far deeper than 3 000 levels,
    # so only an in-process run under a tight limit sees a second frame.
    depth = 3000
    src = tmp_path / "pairs.tt"
    ty = "(Unit × " * depth + "Unit" + ")" * depth
    pair = "(star , " * depth + "star" + ")" * depth
    src.write_text(f"def T : U0 := {ty}\ndef p : T := {pair}\n")
    out = _main_at_one_frame_per_level(depth, ["check", str(src), "--dump-core"], capsys)
    assert out.splitlines()[-1] == f"def p : T := {pair}"
    assert _main_at_one_frame_per_level(depth, ["eval", str(src), "--term", "p"], capsys) == pair + "\n"


def _arrows(count):
    return "U0 -> " * count + "U0"


# Inputs that are wide, not deep: each is one long chain, which the kernel
# and the printer walk in a loop, so they check, dump and evaluate at the
# default recursion limit however long the chain.
WIDE_INPUTS = {
    "600 arrows": f"def T : U1 := {_arrows(600)}\n",
    "600-binder lambda": (
        "postulate f : U0 -> U0\n"
        f"def k : {_arrows(601)} := \\" + " ".join(f"x{i}" for i in range(600)) + ". f\n"
    ),
    "600-component Σ": "def S : U1 := " + "".join(f"(y{i} : U0) × " for i in range(600)) + "Unit\n",
    "600 arguments": f"postulate P : {_arrows(600)}\ndef q : U0 := P" + " Unit" * 600 + "\n",
    # the two copies of the domain are compared, codomain by codomain
    "1200-arrow domain": (
        f"postulate P : ({_arrows(1200)}) -> U0\n"
        f"def q (f : {_arrows(1200)}) : U0 := P f\n"
    ),
}


@pytest.mark.parametrize("name", WIDE_INPUTS)
def test_wide_input_checks_and_dumps(tmp_path, name):
    src = tmp_path / "wide.tt"
    src.write_text(WIDE_INPUTS[name])
    result = run_cli("check", str(src))
    assert result.returncode == 0, result.stderr
    result = run_cli("check", str(src), "--dump-core")
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    if name == "600 arrows":
        assert result.stdout.splitlines()[-1] == f"def T : U1 := {_arrows(600)}"


# The normal form of each input's last definition, as ``tt2 eval`` prints it.
WIDE_NORMAL_FORMS = {
    "600 arrows": _arrows(600),
    "600-binder lambda": "".join(f"\\v{i}. " for i in range(600)) + "f",
    "600-component Σ": " × ".join(["U0"] * 600 + ["Unit"]),
    "600 arguments": "P" + " Unit" * 600,
    "1200-arrow domain": "\\v0. P v0",
}


@pytest.mark.parametrize("name", WIDE_INPUTS)
def test_wide_input_evaluates_and_prints(tmp_path, monkeypatch, capsys, name):
    # in-process: read-back and printing walk telescopes, λ-chains and
    # spines in a loop, so a wide normal form prints instead of ending in
    # DEPTH even under pytest's own frames
    (tmp_path / "wide.tt").write_text(WIDE_INPUTS[name])
    monkeypatch.chdir(tmp_path)
    last = WIDE_INPUTS[name].splitlines()[-1].split()[1]
    assert cli.main(["eval", "wide.tt", "--term", last]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == WIDE_NORMAL_FORMS[name] + "\n"


def test_dump_that_nests_too_deeply_is_a_coded_diagnostic(monkeypatch, capsys):
    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(pretty, "pretty", too_deep)
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["--json-diagnostics", "check", "stdlib/basics.tt", "--dump-core"]) == 1
    payloads = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                if line.startswith("{")]
    assert payloads and {p["code"] for p in payloads} == {"DEPTH"}
    assert {p["file"] for p in payloads} == {"<prelude>", "stdlib/basics.tt"}


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


def test_eval_of_definitions_chained_through_domains_reads_back_at_one_frame_per_level(tmp_path):
    src = tmp_path / "domains.tt"
    text, normal_form = _domains_chain(700)
    src.write_text(text)
    result = run_cli("eval", str(src), "--term", "A700")
    assert result.returncode == 0, result.stderr
    assert result.stdout == normal_form


@fails_fast_on_recursion
def test_definitions_chained_through_domains_read_back_at_the_default_limit(
    tmp_path, monkeypatch, capsys
):
    # in-process, at Python's default recursion limit of 1000, under
    # pytest's own frames: 700 levels fit only at one frame per level
    text, normal_form = _domains_chain(700)
    (tmp_path / "domains.tt").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", "domains.tt", "--term", "A700"]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == normal_form


def test_eval_of_deeply_nested_successors_prints_the_normal_form(tmp_path):
    depth = 900
    src = tmp_path / "deep.tt"
    src.write_text("def n : Nat := " + "suc (" * depth + "zero" + ")" * depth + "\n")
    result = run_cli("eval", str(src), "--term", "n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "suc (" * (depth - 1) + "suc zero" + ")" * (depth - 1) + "\n"


def test_eval_of_deeply_nested_successors_takes_one_frame_per_level(tmp_path, capsys):
    depth = 900
    src = tmp_path / "deep.tt"
    src.write_text("def n : Nat := " + "suc (" * depth + "zero" + ")" * depth + "\n")
    out = _main_at_one_frame_per_level(depth, ["eval", str(src), "--term", "n"], capsys)
    assert out == "suc (" * (depth - 1) + "suc zero" + ")" * (depth - 1) + "\n"


def test_diagnostic_format_is_file_line_col():
    result = run_cli("check", "stdlib/negative/unbound.tt")
    assert result.returncode == 1
    line = [l for l in result.stderr.splitlines() if "error[" in l][0]
    prefix, rest = line.split(" ", 1)
    fname, row, col, _ = prefix.split(":")
    assert fname.endswith("unbound.tt")
    assert row.isdigit() and col.isdigit()
    assert rest.startswith("error[UNBOUND]")


# Inputs for every way ``check`` and ``eval`` can fail to load a file;
# tests/golden/cli_errors.json holds the exit code, stdout and stderr of
# each command line run on them, plain and with --json-diagnostics, and of
# a universe count above the maximum, refused before the prelude is built.
FAILING_INPUTS = {
    "good.tt": "def a : Nat := zero\npostulate p : Nat\n",
    "bad_bytes.tt": b"def a : Nat := zero\n\xff\xfe def",
    "syntax.tt": "def a : Nat := zero\ndef b : Nat :=\n",
    "type.tt": "def a : Nat := star\ndef b : Unit := zero\n",
    "deep.tt": "def T : U1 := " + "(" * 4999 + "U0 -> U0" + ") -> U0" * 4999 + "\n",
}


def test_load_failures_print_the_pinned_exit_codes_and_messages(tmp_path, monkeypatch, capsys):
    for name, text in FAILING_INPUTS.items():
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / name).write_bytes(data)
    golden = json.loads((REPO_ROOT / "tests" / "golden" / "cli_errors.json").read_text())
    assert len(golden) == 29
    monkeypatch.chdir(tmp_path)
    for case in golden:
        if "deep.tt" in case["argv"]:
            # deep.tt nests past Python's default recursion limit, which a
            # caller of cli.main keeps; the script checks it on its large
            # stack (test_the_script_checks_inputs_nested_past_the_default_limit)
            status = cli.main(case["argv"])
            captured = capsys.readouterr()
            result = (status, captured.out, captured.err)
        else:
            ran = run_cli(*case["argv"], cwd=tmp_path)
            result = (ran.returncode, ran.stdout, ran.stderr)
        assert result == (case["returncode"], case["stdout"], case["stderr"]), case["argv"]


def test_a_kept_parse_diagnostic_holds_no_frames(tmp_path, capsys):
    # as test_elab.py::test_kept_diagnostics_hold_no_frames, for the
    # diagnostic that ends a parse
    (tmp_path / "syntax.tt").write_text(FAILING_INPUTS["syntax.tt"])
    args = argparse.Namespace(include=[str(tmp_path)], json_diagnostics=True)
    gc.collect()
    gc.disable()
    try:
        loaded = cli._load("syntax.tt", initial_signature(Config()), args, Config())
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert loaded[1:] == ([], FAILING_INPUTS["syntax.tt"], 1)
    assert '"code": "SYNTAX"' in capsys.readouterr().err


@pytest.mark.parametrize("flags, line", [
    ((), "good.tt:1:1: error[DEPTH]: the normal form of 'a' nests too deeply to compute"),
    (("--json-diagnostics",), json.dumps({
        "code": "DEPTH", "span": [0, 19],
        "message": "the normal form of 'a' nests too deeply to compute",
        "file": "good.tt", "line": 1, "col": 1,
    })),
])
def test_eval_of_a_normal_form_too_deep_to_print_is_a_coded_diagnostic(
    tmp_path, monkeypatch, capsys, flags, line
):
    def too_deep(*args):
        raise RecursionError

    (tmp_path / "good.tt").write_text(FAILING_INPUTS["good.tt"])
    monkeypatch.setattr(pretty, "pretty", too_deep)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TT2_COLOR", "0")
    assert cli.main([*flags, "eval", "good.tt", "--term", "a"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


def test_diagnostics_are_colored_on_a_terminal_unless_tt2_color_is_0(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    for setting, colored in (("1", True), ("0", False)):
        monkeypatch.setenv("TT2_COLOR", setting)
        assert cli.main(["check", "stdlib/negative/unbound.tt"]) == 1
        err = capsys.readouterr().err
        assert ("\x1b[31merror[UNBOUND]\x1b[0m" in err) is colored
        assert ("error[UNBOUND]" in err) is True


def test_gen_writes_file_and_rechecks(tmp_path):
    out = tmp_path / "sst2.tt"
    result = run_cli("gen", "sst", "--levels", "2", "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert "X1 : X0 -> X0 -> U0" in text
    check = run_cli("check", str(out))
    assert check.returncode == 0


@pytest.mark.parametrize("out, reason", [
    ("no_such_dir/x.tt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_gen_to_a_path_that_cannot_be_written_fails_cleanly(tmp_path, out, reason):
    result = run_cli("gen", "sst", "--levels", "2", "--out", out, cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"tt2: cannot write {out!r}: {reason}\n")


def test_an_input_that_cannot_be_read_is_reported_as_a_missing_one(monkeypatch, capsys):
    # file modes do not stop every user (root reads any file), so the
    # refusal is made by hand
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(Path, "read_bytes", refuse)
    for name, argv in [
        ("stdlib/basics.tt", ["check", "stdlib/basics.tt"]),
        ("stdlib/basics.tt", ["--json-diagnostics", "check", "stdlib/basics.tt"]),
        ("stdlib/nat_arith.tt", ["eval", "stdlib/nat_arith.tt", "--term", "four"]),
    ]:
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"tt2: cannot read {name!r}\n")


def test_gen_to_stdout_only():
    result = run_cli("gen", "spine", "--levels", "2")
    assert result.returncode == 0
    assert "def Spine2" in result.stdout
    assert result.stderr == ""


@pytest.mark.parametrize("target, preamble", [("sst", []), ("segal", ["stdlib/equiv.tt"])])
def test_gen_at_the_top_level_rechecks(tmp_path, target, preamble):
    out = tmp_path / f"{target}8.tt"
    result = run_cli("gen", target, "--levels", "8", "--out", str(out))
    assert result.returncode == 0, result.stderr
    result = run_cli("check", *preamble, str(out))
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("prefix", ["9", "a b", "x-", "λ"])
def test_gen_rejects_a_prefix_that_is_no_identifier(tmp_path, prefix):
    out = tmp_path / "sst2.tt"
    result = run_cli("gen", "sst", "--levels", "2", "--prefix", prefix, "--out", str(out))
    assert result.returncode == 1
    assert "is not an identifier" in result.stderr
    assert not out.exists()


def test_literal_spine_is_an_option_of_spine_alone():
    result = run_cli("gen", "sst", "--levels", "2", "--literal-spine")
    assert (result.returncode, result.stdout) == (2, "")
    assert "unrecognized arguments: --literal-spine" in result.stderr
    assert "Traceback" not in result.stderr
    result = run_cli("gen", "spine", "--levels", "2", "--literal-spine")
    assert result.returncode == 0 and "--literal-spine" in result.stdout.splitlines()[0]


def test_gen_level_cap_fails_cleanly():
    result = run_cli("gen", "sst", "--levels", "9")
    assert result.returncode == 1
    assert "cap" in result.stderr


def test_delta_faces_output():
    result = run_cli("delta", "--faces", "1", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["0,1", "0,2", "0,3", "1,2", "1,3", "2,3"]


@pytest.mark.parametrize("k, n", [("-1", "3"), ("0", "-2")])
def test_delta_negative_object_fails_cleanly(k, n):
    result = run_cli("delta", "--faces", k, n)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "tt2: objects of the semi-simplex category are [n] with n >= 0\n"


def _rss_kb(pid):
    with open(f"/proc/{pid}/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc and RLIMIT_AS")
def test_delta_streams_its_images_in_flat_memory():
    # [20] -> [40] has C(41, 21), about 2.7e11, monotone maps.  Under a
    # 1.5 GB address-space limit the first images arrive at once, the
    # process's memory does not grow while 200 000 more are read, and a
    # reader that stops early ends it with exit 1 and no traceback.
    import resource
    limit = 1_500_000_000
    proc = subprocess.Popen(
        [sys.executable, "-m", "tt2", "delta", "--faces", "20", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(REPO_ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    try:
        first = [proc.stdout.readline() for _ in range(3)]
        before = _rss_kb(proc.pid)
        for _ in range(200_000):
            proc.stdout.readline()
        after = _rss_kb(proc.pid)
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    row = ",".join(map(str, range(20)))
    assert first == [f"{row},20\n", f"{row},21\n", f"{row},22\n"]
    assert after - before < 2048, (before, after)
    assert (proc.returncode, proc.stderr.read()) == (1, "")
    proc.stderr.close()


def test_delta_without_maps_prints_nothing():
    result = run_cli("delta", "--faces", "3", "1")
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_delta_prints_each_mono_as_its_image(capsys):
    # in-process over a grid: one line per strictly monotone [k] -> [n], the
    # image in lexicographic order, and the one message for a negative object
    for k in range(6):
        for n in range(6):
            assert cli.main(["delta", "--faces", str(k), str(n)]) == 0
            lines = "".join(",".join(map(str, c)) + "\n" for c in combinations(range(n + 1), k + 1))
            assert capsys.readouterr() == (lines, "")
    for k, n in [(-1, 3), (0, -2), (-1, -1), (-2, 5), (5, -1)]:
        assert cli.main(["delta", "--faces", str(k), str(n)]) == 1
        assert capsys.readouterr() == (
            "", "tt2: objects of the semi-simplex category are [n] with n >= 0\n")


def test_eval_prints_normal_form():
    result = run_cli("eval", "stdlib/nat_arith.tt", "--term", "four")
    assert result.returncode == 0
    assert result.stdout.strip() == "suc (suc (suc (suc zero)))"


def test_eval_of_a_type_with_two_binder_groups(tmp_path, monkeypatch, capsys):
    # a second parenthesised group after the first, then ``->``
    (tmp_path / "k.tt").write_text("def k : (A : U0) (B : U0) -> A -> B -> A := \\A B a b. a\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", "k.tt", "--term", "k"]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == "\\v0. \\v1. \\v2. \\v3. v2\n"


def test_eval_of_postulate_fails():
    result = run_cli("eval", "stdlib/cocylinder.tt", "--term", "ccA")
    assert result.returncode == 1
    assert "tt2: 'ccA' is a postulate and has no body" in result.stderr


def test_eval_of_axiom_fails():
    result = run_cli("eval", "stdlib/basics.tt", "--term", "ua0")
    assert result.returncode == 1
    assert "tt2: 'ua0' is an axiom and has no body" in result.stderr


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


def test_dump_core_of_the_accept_corpus_matches_the_golden_file(manifest):
    # tests/golden/accept.dump was written before the printer and the
    # elaborator took their keywords from the parser's table of built-ins.
    files = [f"stdlib/{e.path}" for e in manifest.accept_entries()]
    result = run_cli("check", "--dump-core", *files)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (REPO_ROOT / "tests" / "golden" / "accept.dump").read_text()


def test_eval_past_segal_condition_5_matches_the_golden_hashes(tmp_path, monkeypatch, capsys):
    # tests/golden/nf.dump stops at SegalCondition5.  These hashes of what
    # `tt2 eval` prints for SegalCondition6 to 8, each after
    # stdlib/equiv.tt, were taken before read-back kept one read-back per
    # defined constant; CI checks SegalCondition8 through the installed script.
    golden = (REPO_ROOT / "tests" / "golden" / "nf_segal.sha256").read_text().splitlines()
    assert len(golden) == 3
    equiv = (REPO_ROOT / "stdlib" / "equiv.tt").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in golden:
        digest, filename = line.split("  ")
        term = filename.removesuffix(".nf")
        levels = term.removeprefix("SegalCondition")
        assert cli.main(["gen", "segal", "--levels", levels, "--out", "segal.tt"]) == 0
        Path("input.tt").write_text(equiv + Path("segal.tt").read_text(encoding="utf-8"),
                                    encoding="utf-8")
        assert cli.main(["eval", "input.tt", "--term", term]) == 0, capsys.readouterr().err
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, term


def test_dump_core_prints_the_axioms_as_eager_elaboration(manifest):
    # The axioms are elaborated on first read; the dump reads them all and
    # must print what elaborating the prelude text up front gives.
    config = Config()
    sig, diags = elaborate_signature(parse.parse_file(prelude_source(config)), config=config)
    names = list(sig.entries)
    for entry in manifest.accept_entries():
        sig, more = elaborate_signature(parse.parse_file(manifest.source(entry)), sig, config)
        diags += more
    assert not diags
    axioms = [f"axiom {name} : {pretty.pretty(sig.entries[name].ty, sig)}" for name in names]
    files = [f"stdlib/{e.path}" for e in manifest.accept_entries()]
    result = run_cli("check", *files, "--dump-core")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[:len(axioms)] == axioms
    result = run_cli("check", *files)
    assert result.returncode == 0, result.stderr
    assert f"tt2: checked {len(sig.entries)} signature entries" in result.stderr


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
