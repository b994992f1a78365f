"""Differential and totality runs over seeded token mutations of tt2 sources.

    python tests/differential.py --base REV|DIR [--count N] [--seed S]
    python tests/differential.py --totality N [--seed S] [--script CMD]

The inputs are seeded mutations of the stdlib files, of SST-1..4 and of
``equiv.tt`` followed by Segal-2 or Segal-3.  Each input takes one to four
token edits: a deletion, a duplication, a swap with a nearby token, a splice
of a run of tokens from any source, or a name replaced by another word.
Tokens are read by the reference lexer of ``scan_reference.py``.  ``mutate``
is also the mutator of ``test_tokens.py``, which adds inserted pieces.

``--base`` compares the working tree with a base tree: a directory that
holds ``src/tt2``, or a revision, which ``git archive`` extracts into a
temporary directory.  Each tree runs once, in one subprocess over the whole
batch.  For each input that run records the parse, each declaration's span
and a hash of its ``repr``, or the parse diagnostic's code, span and
message; and the diagnostics of elaborating the declarations against a
fresh prelude.  A Python exception is recorded as a ``CRASH`` outcome.  The
script prints counts by code, the first differing inputs with their file
and span, and a summary line; it exits 1 on any difference.

``--totality`` runs N inputs through ``tt2 check``, one at a time and
serially: the working tree's ``python -m tt2``, or ``--script``.  Each run
must exit 0, 1 or 2 with no ``Traceback`` on stderr; the script exits 1 if
one does not.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Sequence
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

EDITS = ("delete", "duplicate", "swap", "splice", "rename")
# Words a renamed token may become besides the names of its own source.
OTHER_WORDS = ("zz", "U0", "US1", "Nat", "refl", "J", "def", "postulate", "fst")
SHOWN = 10  # differing or failing inputs printed
TIMEOUT = 120  # seconds one --totality run may take


def sources() -> list[tuple[str, str]]:
    """``(label, text)`` of each source that inputs are mutated from."""
    from tt2.sstgen import GenPlan, gen_segal_scaffold, gen_sst

    stdlib = REPO / "stdlib"
    found = [(path.relative_to(REPO).as_posix(), path.read_text(encoding="utf-8"))
             for path in sorted(stdlib.rglob("*.tt"))]
    found += [(f"SST-{n}", gen_sst(GenPlan(n))) for n in range(1, 5)]
    equiv = (stdlib / "equiv.tt").read_text(encoding="utf-8")
    found += [(f"equiv.tt+Segal-{n}", equiv + gen_segal_scaffold(GenPlan(n))) for n in (2, 3)]
    return found


def tokens_of(text: str) -> list:
    """``text``'s tokens as ``(kind, text, span)``, ``EOF`` included, as the
    reference lexer of ``scan_reference.py`` reads them, or [] if it does not lex."""
    import scan_reference
    from tt2.diagnostics import Diagnostic

    try:
        return scan_reference.lex(text)
    except Diagnostic:
        return []


def window(rng: random.Random, donor: tuple[str, list]) -> str:
    """A run of up to 60 tokens of ``donor``, a text and its tokens, with
    the text between them."""
    text, tokens = donor
    i = rng.randrange(len(tokens))
    j = min(len(tokens) - 1, i + rng.randrange(1, 60))
    return text[tokens[i][2][0]:tokens[j][2][1]]


def mutate(rng: random.Random, text: str, donors: list[tuple[str, list]],
           edits: Sequence[str] = EDITS, inserts: Sequence[str] = ()) -> tuple[str, list[str]]:
    """``text`` after one to four edits drawn from ``edits``, and the edits'
    names.  Each edit but an insert acts on a token: a deletion, a
    duplication, a swap with a token up to 8 further on, a splice of a
    ``window`` of a donor before it, or a name, any one, replaced by another
    word.  An insert puts one of ``inserts`` at a token's start or anywhere;
    it is the only edit of a text that does not lex, and without ``inserts``
    such a text takes no more edits."""
    done = []
    for _ in range(rng.randint(1, 4)):
        tokens = tokens_of(text)[:-1]
        if not tokens and not inserts:
            break
        edit = rng.choice(edits) if tokens else "insert"
        done.append(edit)
        if edit == "insert":
            at = rng.choice([span[0] for _, _, span in tokens] + [rng.randrange(len(text) + 1)])
            text = text[:at] + rng.choice(inserts) + text[at:]
            continue
        i = rng.randrange(len(tokens))
        a, b = tokens[i][2]
        if edit == "delete":
            text = text[:a] + text[b:]
        elif edit == "duplicate":
            text = text[:b] + " " + text[a:b] + text[b:]
        elif edit == "splice":
            text = text[:a] + window(rng, rng.choice(donors)) + text[a:]
        elif edit == "swap":
            c, d = tokens[min(len(tokens) - 1, i + rng.randint(1, 8))][2]
            if a < c:
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        else:
            names = [token for token in tokens if token[0] == "IDENT"]
            if names:
                a, b = rng.choice(names)[2]
                word = rng.choice([rng.choice(names)[1], rng.choice(OTHER_WORDS)])
                text = text[:a] + word + text[b:]
    return text, done


def draw(count: int, seed: int) -> list[tuple[str, list[str], str]]:
    """``count`` seeded inputs, each ``(source label, edits, text)``."""
    rng = random.Random(seed)
    found = sources()
    donors = [(text, tokens_of(text)) for _, text in found]
    inputs = []
    for _ in range(count):
        label, text = rng.choice(found)
        text, edits = mutate(rng, text, donors)
        inputs.append((label, edits, text))
    return inputs


# ---------------------------------------------------------------------------
# One tree over a whole batch, in a subprocess


def work(inputs_path: str, out_path: str) -> None:
    """Record the outcome of each input of ``inputs_path`` in ``out_path``,
    with the tt2 on ``sys.path``."""
    import tt2
    from tt2.diagnostics import Diagnostic
    from tt2.elab import Config, elaborate_signature
    from tt2.parse import parse_file
    from tt2.prelude import initial_signature

    def crash(exc: BaseException) -> list:
        return ["CRASH", None, f"{exc.__class__.__name__}: {exc}"[:500]]

    def outcome(source: str) -> dict:
        try:
            decls = parse_file(source)
            parsed = [[decl.name, decl.span, hashlib.sha256(repr(decl).encode()).hexdigest()[:16]]
                      for decl in decls]
        except Diagnostic as diag:
            return {"parse": [diag.code, diag.span, diag.message]}
        except Exception as exc:
            return {"parse": crash(exc)}
        config = Config()
        try:
            _, diags = elaborate_signature(decls, initial_signature(config), config)
            elab = [[diag.code, diag.span, diag.message] for diag in diags]
        except Exception as exc:
            elab = [crash(exc)]
        return {"decls": parsed, "elab": elab}

    texts = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    results = [outcome(text) for text in texts]
    Path(out_path).write_text(json.dumps({"tt2": tt2.__file__, "results": results}),
                              encoding="utf-8")


def run_trees(trees: list[Path], texts: list[str], tmp: Path) -> list[list[dict]]:
    """Each tree's outcomes for ``texts``; the trees run side by side."""
    inputs = tmp / "inputs.json"
    inputs.write_text(json.dumps(texts), encoding="utf-8")
    runs = []
    for k, tree in enumerate(trees):
        out = tmp / f"outcomes{k}.json"
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.Popen([sys.executable, __file__, "--worker", str(inputs), str(out)],
                                env=env)
        runs.append((tree, out, proc))
    outcomes = []
    for tree, out, proc in runs:
        if proc.wait() != 0:
            sys.exit(f"differential: the run of {tree} failed with exit {proc.returncode}")
        data = json.loads(out.read_text(encoding="utf-8"))
        if not Path(data["tt2"]).resolve().is_relative_to((tree / "src").resolve()):
            sys.exit(f"differential: the run of {tree} imported {data['tt2']}")
        outcomes.append(data["results"])
    return outcomes


# ---------------------------------------------------------------------------
# Comparison


def codes(outcomes: list[dict]) -> tuple[collections.Counter, collections.Counter]:
    """Counts of parse outcomes (``parsed`` or a code) and of elaboration codes."""
    parse, elab = collections.Counter(), collections.Counter()
    for out in outcomes:
        parse["parsed" if "decls" in out else out["parse"][0]] += 1
        elab.update(diag[0] for diag in out.get("elab", ()))
    return parse, elab


def first_difference(base: dict, work: dict) -> str:
    """Where two differing outcomes of one input first differ, with its span."""
    def diag(x):
        return "none" if x is None else f"{x[0]} at {x[1]}: {x[2]!r}"

    def decl(x):
        return "none" if x is None else f"{x[0]!r} at {x[1]}, tree {x[2]}"

    if "decls" not in base or "decls" not in work:
        ours, theirs = (diag(out["parse"]) if "parse" in out else "parsed" for out in (work, base))
        return f"parse: {ours}; base {theirs}"
    for part, what, shown in (("decls", "declaration", decl), ("elab", "elaboration diagnostic", diag)):
        ours, theirs = work[part], base[part]
        for k in range(max(len(ours), len(theirs))):
            a, b = (x[k] if k < len(x) else None for x in (ours, theirs))
            if a != b:
                return f"{what} {k}: {shown(a)}; base {shown(b)}"
    return "no difference"


def compare(inputs: list[tuple[str, list[str], str]], base: list[dict], work: list[dict],
            show: int = SHOWN) -> list[str]:
    """One line per input whose outcomes differ, the first ``show`` of them printed."""
    lines = [f"  input {i} ({label}; {', '.join(edits)}): {first_difference(b, w)}"
             for i, ((label, edits, _), b, w) in enumerate(zip(inputs, base, work)) if b != w]
    for line in lines[:show]:
        print(line)
    return lines


def base_tree(base: str, tmp: Path) -> Path:
    """The tree at ``base``: a directory, or a revision extracted into ``tmp``."""
    if Path(base).is_dir():
        return Path(base).resolve()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", base],
                             capture_output=True, check=True).stdout
    tree = tmp / "base"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def differential(args: argparse.Namespace) -> int:
    inputs = draw(args.count, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        tree = base_tree(args.base, Path(tmp))
        work_out, base_out = run_trees([REPO, tree], [text for _, _, text in inputs], Path(tmp))
    parse, elab = codes(work_out)
    print("parse:", ", ".join(f"{code} {n}" for code, n in sorted(parse.items())))
    print("elaboration:", ", ".join(f"{code} {n}" for code, n in sorted(elab.items())))
    differ = compare(inputs, base_out, work_out)
    print(f"differential: {len(inputs)} inputs at seed {args.seed} against {args.base}: "
          f"{len(differ)} differ, {parse['CRASH'] + elab['CRASH']} crash")
    return 1 if differ else 0


def totality(args: argparse.Namespace) -> int:
    inputs = draw(args.totality, args.seed)
    if args.script:
        script, env, shown = shlex.split(args.script), os.environ, args.script
    else:
        script, shown = [sys.executable, "-m", "tt2"], "python -m tt2"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    exits, failures = collections.Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.tt"
        for i, (label, edits, text) in enumerate(inputs):
            path.write_bytes(text.encode("utf-8"))
            try:
                proc = subprocess.run([*script, "check", str(path)], env=env,
                                      capture_output=True, text=True, timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                failures.append(f"  input {i} ({label}; {', '.join(edits)}): "
                                f"still running after {TIMEOUT} s")
                continue
            exits[proc.returncode] += 1
            if proc.returncode not in (0, 1, 2) or "Traceback" in proc.stderr:
                failures.append(f"  input {i} ({label}; {', '.join(edits)}): "
                                f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    for line in failures[:SHOWN]:
        print(line)
    print(f"totality: {len(inputs)} inputs at seed {args.seed} through {shown} check: "
          + ", ".join(f"exit {code} {n}" for code, n in sorted(exits.items()))
          + f"; {len(failures)} fail")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", help="a revision or a directory to compare the working tree with")
    mode.add_argument("--totality", type=int, metavar="N", help="run N inputs through tt2 check")
    mode.add_argument("--worker", nargs=2, metavar=("INPUTS", "OUT"), help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=4000, help="inputs to compare (4000)")
    parser.add_argument("--seed", type=int, default=27, help="seed of the mutations (27)")
    parser.add_argument("--script", help="the tt2 command for --totality (python -m tt2)")
    args = parser.parse_args(argv)
    if args.worker:
        work(*args.worker)
        return 0
    sys.path.insert(0, str(REPO / "src"))  # the working tree generates the sources
    return totality(args) if args.totality is not None else differential(args)


if __name__ == "__main__":
    sys.exit(main())
