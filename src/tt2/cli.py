"""Command-line driver.

Subcommands: ``check`` elaborates files in order against one growing
signature, ``eval`` prints the normal form of a definition, ``gen`` emits
semi-simplicial scaffolding, ``delta`` prints monotone-map tables.
Exit codes: 0 success, 1 diagnostics or generation failure, 2 usage
errors.  Diagnostics go to stderr; requested artifacts go to stdout.
Running out of stack or memory is a ``DEPTH`` or ``MEMORY`` diagnostic
that names the phase: parse (which covers reading and decoding the
file), check, compute (``eval``'s nf) or print.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
from pathlib import Path
from typing import Optional

from . import conv, core, parse, pretty
from .diagnostics import Diagnostic, ENCODING, EXHAUSTED, exhausted
from .elab import MAX_UNIVERSES, Config, elaborate_signature
from .prelude import initial_signature


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tt2",
        description="two-level type theory checker and scaffolding generator",
    )
    top.add_argument("--universes", type=int, default=3, metavar="L",
                     help=f"number of universe levels per layer, 1 to {MAX_UNIVERSES} (default 3)")
    top.add_argument("--collapse-fibrant-universes", action="store_true",
                     help="place every fibrant universe inside the first strict one")
    top.add_argument("--json-diagnostics", action="store_true",
                     help="emit one JSON object per diagnostic")
    top.add_argument("--include", action="append", default=[], metavar="DIR",
                     help="extra directory to resolve input files against")
    sub = top.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="elaborate files against a shared signature")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument("--dump-core", action="store_true",
                         help="print the elaborated signature to stdout")

    p_eval = sub.add_parser("eval", help="print the normal form of a definition")
    p_eval.add_argument("file", metavar="FILE")
    p_eval.add_argument("--term", required=True, metavar="NAME")

    p_gen = sub.add_parser("gen", help="generate semi-simplicial scaffolding")
    gen_sub = p_gen.add_subparsers(dest="target", required=True)
    for target in ("sst", "spine", "segal"):
        p = gen_sub.add_parser(target)
        p.add_argument("--levels", type=int, required=True, metavar="N")
        p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
        p.add_argument("--prefix", default="", metavar="P",
                       help="prefix for generated identifiers")
        if target in ("sst", "spine"):
            p.add_argument("--universe", type=int, default=0, metavar="I",
                           help="retarget generated families to U<I>")
        if target == "spine":
            p.add_argument("--literal-spine", action="store_true",
                           help="also emit the spine with explicit equality components")

    p_delta = sub.add_parser("delta", help="monotone-map combinatorics")
    p_delta.add_argument("--faces", nargs=2, type=int, required=True,
                         metavar=("K", "N"), help="list all monotone [K] -> [N]")
    return top


def _color_enabled() -> bool:
    if os.environ.get("TT2_COLOR", "") == "0":
        return False
    return sys.stderr.isatty()


def _emit_diagnostic(diag: Diagnostic, source: str, filename: str, args) -> None:
    if args.json_diagnostics:
        print(json.dumps(diag.to_json(source, filename)), file=sys.stderr)
        return
    text = diag.render(source, filename)
    if _color_enabled():
        text = text.replace(f"error[{diag.code}]", f"\x1b[31merror[{diag.code}]\x1b[0m", 1)
    print(text, file=sys.stderr)


def _resolve(path: str, include: list[str]) -> Path:
    """The first of ``path`` and ``path`` under each include directory that
    is a file, else ``path`` itself, which then fails to read."""
    for candidate in (Path(path), *(Path(base) / path for base in include)):
        if candidate.is_file():
            return candidate
    return Path(path)


def _load(names: list[str], args, config: Config) -> Optional[tuple]:
    """Read, decode, parse and elaborate the files ``names`` in order into
    one fresh signature, printing each file's diagnostics.  Returns the
    signature, the number of diagnostics, the number of postulates and the
    source, file name and raw declaration of each declaration by name, whose
    span is computed only for a diagnostic; or None, after
    saying so, if a file cannot be read.  A file that is not valid UTF-8 is
    decoded with replacement characters, not parsed, and comes with an
    ENCODING diagnostic at the first bad byte."""
    sig, failures, postulates, origins = initial_signature(config), 0, 0, {}
    for name in names:
        source, decls = "", []
        try:
            data = _resolve(name, args.include).read_bytes()
            source = data.decode("utf-8")
            decls = parse.parse_file(source)
        except OSError:  # missing, a directory or unreadable
            print(f"tt2: cannot read {name!r}", file=sys.stderr)
            return None
        except UnicodeDecodeError as exc:
            at = len(data[:exc.start].decode("utf-8"))
            source = data.decode("utf-8", errors="replace")
            diagnostics = [Diagnostic(
                ENCODING, (at, at + 1),
                f"input is not valid UTF-8 (byte 0x{data[exc.start]:02x} at offset {exc.start})",
            )]
        except Diagnostic as diag:
            diagnostics = [diag.detached()]
        except EXHAUSTED as exc:
            diagnostics = [exhausted(exc, (0, 0), repr(name), "parse")]
        else:
            sig, diagnostics = elaborate_signature(decls, sig, config)
        failures += len(diagnostics)
        for diag in diagnostics:
            _emit_diagnostic(diag, source, name, args)
        for d in decls:
            postulates += d.kind == "postulate"
            origins.setdefault(d.name, (source, name, d))
    return sig, failures, postulates, origins


def _cmd_check(args, config: Config) -> int:
    loaded = _load(args.files, args, config)
    if loaded is None:
        return 2
    sig, failures, postulates, origins = loaded
    if postulates:
        print(f"tt2: {postulates} postulate(s) admitted", file=sys.stderr)
    if args.dump_core:
        for entry in sig.entries.values():
            try:
                head = f"{entry.kind.value} {entry.name} : {pretty.pretty(entry.ty, sig)}"
                if entry.body is not None:
                    head += f" := {pretty.pretty(entry.body, sig)}"
            except EXHAUSTED as exc:
                source, name, decl = origins.get(entry.name, ("", "<prelude>", None))
                span = (0, 0) if decl is None else decl.span
                _emit_diagnostic(exhausted(exc, span, repr(entry.name), "print"), source, name, args)
                failures += 1
                continue
            print(head)
    else:
        print(f"tt2: checked {len(sig.entries)} signature entries", file=sys.stderr)
    return 1 if failures else 0


def _cmd_eval(args, config: Config) -> int:
    loaded = _load([args.file], args, config)
    if loaded is None:
        return 2
    sig, failures, _, origins = loaded
    if failures:
        return 1
    entry = sig.lookup(args.term)
    if entry is None:
        print(f"tt2: no definition named {args.term!r}", file=sys.stderr)
        return 1
    if entry.body is None:
        what = "an axiom" if entry.kind is core.DeclKind.AXIOM else "a postulate"
        print(f"tt2: {args.term!r} is {what} and has no body", file=sys.stderr)
        return 1
    phase = "compute"
    try:
        normal_form = conv.nf(sig, core.Context(), entry.body)
        phase = "print"
        text = pretty.pretty(normal_form, sig)
    except EXHAUSTED as exc:
        source, name, decl = origins[args.term]
        diag = exhausted(exc, decl.span, f"the normal form of {args.term!r}", phase)
        _emit_diagnostic(diag, source, name, args)
        return 1
    print(text)
    return 0


def _cmd_gen(args) -> int:
    # imported here so that check and eval do not load the generator
    from .sstgen import GenPlan, gen_segal_scaffold, gen_spine, gen_sst
    try:
        plan = GenPlan(
            levels=args.levels,
            names=args.prefix,
            universe=getattr(args, "universe", 0),
        )
        if args.target == "sst":
            text = gen_sst(plan)
        elif args.target == "spine":
            text = gen_spine(plan, args.literal_spine)
        else:
            text = gen_segal_scaffold(plan)
    except ValueError as exc:
        print(f"tt2: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"tt2: cannot write {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_delta(args) -> int:
    from .delta import enumerate_mono
    try:
        monos = enumerate_mono(*args.faces)
    except ValueError as exc:
        print(f"tt2: {exc}", file=sys.stderr)
        return 1
    for images in monos:
        print(",".join(map(str, images)))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = Config(
            universes=args.universes,
            collapse_fibrant_universes=args.collapse_fibrant_universes,
        )
    except ValueError as exc:
        print(f"tt2: {exc}", file=sys.stderr)
        return 2
    if args.command == "check":
        return _cmd_check(args, config)
    if args.command == "eval":
        return _cmd_eval(args, config)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "delta":
        return _cmd_delta(args)
    return 2


# The kernel recurses once per level of nesting, so the script runs ``main``
# on a thread with the largest of these stacks that starts and takes at most
# a quarter of the address-space limit, allowing a frame per STACK_PER_FRAME
# bytes: its C stack, with a margin (README § How deep the script goes).
STACK_SIZES = tuple(2**k << 20 for k in range(9, 5, -1))  # 512 MiB down to 64 MiB
STACK_PER_FRAME = 2_684  # 512 MiB for 200 000 frames


def _run(status: list, limit: int = 0) -> None:
    if limit:
        sys.setrecursionlimit(limit)
    try:
        status.append(main())
        sys.stdout.flush()
    except SystemExit as exc:  # argparse's, for --help and usage errors
        status.append(exc.code)
    except BrokenPipeError:
        # The reader of stdout has gone, as in ``tt2 delta --faces 20 40 |
        # head -3``: send what is left to /dev/null, so that the flush at
        # exit does not fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status.append(1)


def entry() -> None:
    # A run of tt2 keeps nearly all it allocates until it exits, so the
    # cyclic collector finds little to free: move the imported modules out
    # of its view, and let far more allocations pass between its young
    # collections.  Library callers of ``main`` keep Python's defaults.
    gc.freeze()
    gc.set_threshold(100_000, 20, 100)
    status = []  # main's exit status, once it returns
    room = resource.getrlimit(resource.RLIMIT_AS)[0]
    for size in STACK_SIZES:
        if size > room // 4 and room != resource.RLIM_INFINITY:
            continue
        thread = threading.Thread(target=_run, args=(status, size // STACK_PER_FRAME), daemon=True)
        threading.stack_size(size)
        try:
            thread.start()
        except RuntimeError:  # "can't start new thread"
            continue
        finally:
            threading.stack_size(0)
        thread.join()
        break
    else:
        _run(status)
    # an uncaught error has printed its traceback and left no status
    sys.exit(status[0] if status else 1)
