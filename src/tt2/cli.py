"""Command-line driver.

Subcommands: ``check`` elaborates files in order against one growing
signature, ``eval`` prints the normal form of a definition, ``gen`` emits
semi-simplicial scaffolding, ``delta`` prints monotone-map tables.
Exit codes: 0 success, 1 diagnostics or generation failure, 2 usage
errors.  Diagnostics go to stderr; requested artifacts go to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import conv, core, parse, pretty
from .diagnostics import DEPTH, Diagnostic, ENCODING
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


def _resolve(path: str, include: list[str]) -> Optional[Path]:
    p = Path(path)
    if p.is_file():
        return p
    for base in include:
        candidate = Path(base) / path
        if candidate.is_file():
            return candidate
    return None


def _read_source(path: Path) -> tuple[str, Optional[Diagnostic]]:
    """Decode an input file as UTF-8.  A file that is not valid UTF-8 is
    decoded with replacement characters and comes with an ENCODING
    diagnostic at the first bad byte."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        at = len(data[:exc.start].decode("utf-8"))
        diag = Diagnostic(
            ENCODING, (at, at + 1),
            f"input is not valid UTF-8 (byte 0x{data[exc.start]:02x} at offset {exc.start})",
        )
        return data.decode("utf-8", errors="replace"), diag


def _load(name: str, sig: core.Signature, args, config: Config) -> Optional[tuple]:
    """Resolve, decode, parse and elaborate the file ``name`` into ``sig``
    and print its diagnostics.  Returns the grown signature, the file's
    declarations (none if it did not parse), its source and the number of
    diagnostics; or None, after saying so, if the file cannot be read."""
    path = _resolve(name, args.include)
    if path is not None:
        try:
            source, bad_bytes = _read_source(path)
        except OSError:  # a file that exists but cannot be read
            path = None
    if path is None:
        print(f"tt2: cannot read {name!r}", file=sys.stderr)
        return None
    decls, diagnostics = [], [bad_bytes]
    if bad_bytes is None:
        try:
            decls = parse.parse_file(source)
        except Diagnostic as diag:
            diagnostics = [diag]
        else:
            sig, diagnostics = elaborate_signature(decls, sig, config)
    for diag in diagnostics:
        _emit_diagnostic(diag, source, name, args)
    return sig, decls, source, len(diagnostics)


def _cmd_check(args, config: Config) -> int:
    sig = initial_signature(config)
    failures = 0
    postulates = 0
    origins = {}  # declaration name -> (source, file name, span), for --dump-core
    for name in args.files:
        loaded = _load(name, sig, args, config)
        if loaded is None:
            return 2
        sig, decls, source, failed = loaded
        failures += failed
        postulates += sum(1 for d in decls if d.kind == "postulate")
        for d in decls:
            origins.setdefault(d.name, (source, name, d.span))
    if postulates:
        print(f"tt2: {postulates} postulate(s) admitted", file=sys.stderr)
    if args.dump_core:
        for entry in sig.entries.values():
            try:
                head = f"{entry.kind.value} {entry.name} : {pretty.pretty(entry.ty, sig)}"
                if entry.body is not None:
                    head += f" := {pretty.pretty(entry.body, sig)}"
            except RecursionError:
                source, name, span = origins.get(entry.name, ("", "<prelude>", (0, 0)))
                diag = Diagnostic(DEPTH, span, f"{entry.name!r} nests too deeply to print")
                _emit_diagnostic(diag, source, name, args)
                failures += 1
                continue
            print(head)
    else:
        print(f"tt2: checked {len(sig.entries)} signature entries", file=sys.stderr)
    return 1 if failures else 0


def _cmd_eval(args, config: Config) -> int:
    loaded = _load(args.file, initial_signature(config), args, config)
    if loaded is None:
        return 2
    sig, decls, source, failed = loaded
    if failed:
        return 1
    entry = sig.lookup(args.term)
    if entry is None:
        print(f"tt2: no definition named {args.term!r}", file=sys.stderr)
        return 1
    if entry.body is None:
        what = "an axiom" if entry.kind is core.DeclKind.AXIOM else "a postulate"
        print(f"tt2: {args.term!r} is {what} and has no body", file=sys.stderr)
        return 1
    try:
        text = pretty.pretty(conv.nf(sig, core.Context(), entry.body), sig)
    except RecursionError:
        span = next((d.span for d in decls if d.name == args.term), (0, 0))
        diag = Diagnostic(DEPTH, span, f"the normal form of {args.term!r} nests too deeply to compute")
        _emit_diagnostic(diag, source, args.file, args)
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


def entry() -> None:
    # A run of tt2 keeps nearly all it allocates until it exits, so the
    # cyclic collector finds little to free: move the imported modules out
    # of its view, and let far more allocations pass between its young
    # collections.  Library callers of ``main`` keep Python's defaults.
    gc.freeze()
    gc.set_threshold(100_000, 20, 100)
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone, as in ``tt2 delta --faces 20 40 |
        # head -3``: send what is left to /dev/null, so that the flush at
        # exit does not fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
