"""The four benchmark workloads: their seeded inputs, one operation each,
and output checks that do not trust the kernel under test.

Every call into tt2 goes through ``tracer.call(name, fn, *args)`` so that a
traced run can record a span around it; an untraced run passes a tracer
whose ``call`` only forwards.  Operations build every signature they use,
so no operation reuses caches filled by another.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from math import comb
from pathlib import Path

from smallstep_oracle import normalize  # tests/
from termgen import TermGen  # tests/
from tt2 import conv, core, parse, pretty
from tt2.core import Context, Signature
from tt2.diagnostics import Diagnostic
from tt2.elab import Config, elaborate_signature
from tt2.prelude import initial_signature
from tt2.sstgen import GenPlan, gen_segal_scaffold, gen_sst

ROOT = Path(__file__).resolve().parents[1]
STDLIB = ROOT / "stdlib"
CONFIG = Config()
SST_LEVELS = range(1, 8)  # level 7 is past the CLI cap of 6
SEGAL_LEVELS = range(2, 6)
EVAL_SEGAL_LEVELS = range(2, 6)
RANDOM_TERMS = 400
RANDOM_TERM_SIZE = 30
ORACLE_FUEL = 10_000_000


def seeded_prefix(seed: int) -> str:
    """An identifier prefix for generated names, drawn from the seed."""
    rng = random.Random(seed)
    return "p" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4)) + "_"


def read_manifest() -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
    """The corpus oracle, read from ``stdlib/MANIFEST`` directly: accept
    files as (path, source), reject files as (path, code, source)."""
    accepts, rejects = [], []
    for line in (STDLIB / "MANIFEST").read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        path, outcome = line.split()
        source = (STDLIB / path).read_text(encoding="utf-8")
        if outcome == "accept":
            accepts.append((path, source))
        elif outcome.startswith("reject:"):
            rejects.append((path, outcome.split(":", 1)[1], source))
        else:
            raise ValueError(f"malformed MANIFEST line: {line!r}")
    return accepts, rejects


def check_file(tracer, source: str, sig: Signature):
    """What ``tt2 check`` does for one file: parse, then elaborate into
    ``sig``.  Returns the grown signature, the declarations and the
    diagnostics."""
    try:
        decls = tracer.call("parse.parse_file", parse.parse_file, source)
    except Diagnostic as diag:
        return sig, [], [diag]
    sig, diags = tracer.call("elab.elaborate_signature", elaborate_signature, decls, sig, CONFIG)
    return sig, decls, diags


def fresh_prelude(tracer) -> Signature:
    return tracer.call("prelude.initial_signature", initial_signature, CONFIG)


def sigma_components(term) -> int:
    """Components of a right-nested core Σ closed off by ``Unit``."""
    count = 0
    while isinstance(term, core.Sigma):
        count, term = count + 1, term.snd
    if not isinstance(term, core.Unit):
        raise ValueError(f"Σ chain ends in {type(term).__name__}, not Unit")
    return count


def boundary_cell_count(n: int) -> int:
    """Proper non-empty faces of the n-simplex."""
    return sum(comb(n + 1, k + 1) for k in range(n))


@dataclass
class Corpus:
    """``tt2 check`` over the 12 accept files into one signature, then each
    reject file alone; the seed orders the reject files."""

    seed: int

    def __post_init__(self) -> None:
        self.accepts, self.rejects = read_manifest()
        random.Random(self.seed).shuffle(self.rejects)

    def prepare(self):
        return None

    def run(self, tracer, _prepared):
        sig = fresh_prelude(tracer)
        verdicts = []
        for path, source in self.accepts:
            sig, decls, diags = check_file(tracer, source, sig)
            verdicts.append((path, len(decls), [d.code for d in diags]))
        for path, _, source in self.rejects:
            _, decls, diags = check_file(tracer, source, fresh_prelude(tracer))
            verdicts.append((path, len(decls), [d.code for d in diags]))
        return verdicts

    def check(self, verdicts, _prepared) -> list[str]:
        want = {path: None for path, _ in self.accepts}
        want.update({path: code for path, code, _ in self.rejects})
        problems = []
        for path, ndecls, codes in verdicts:
            code = want.pop(path)
            if code is None and (codes or not ndecls):
                problems.append(f"{path}: expected accept, got {codes or 'no declarations'}")
            if code is not None and codes[:1] != [code]:
                problems.append(f"{path}: expected first code {code}, got {codes}")
        problems += [f"{path}: not checked" for path in want]
        return problems

    def sources(self, verdicts):
        return [s for _, s in self.accepts] + [s for _, _, s in self.rejects]


@dataclass
class Sst:
    """Generate, parse and check ``gen_sst`` at levels 1..7, each level in
    a fresh prelude signature; the seed draws the generator prefix."""

    seed: int

    def __post_init__(self) -> None:
        self.prefix = seeded_prefix(self.seed)

    def prepare(self):
        return None

    def run(self, tracer, _prepared):
        out = []
        for n in SST_LEVELS:
            plan = GenPlan(n, names=self.prefix, cap=SST_LEVELS[-1])
            text = tracer.call("sstgen.gen_sst", gen_sst, plan)
            tracer.note("sstgen.bytes", len(text.encode()))
            sig, decls, diags = check_file(tracer, text, fresh_prelude(tracer))
            out.append((n, text, decls, [d.code for d in diags],
                        sig.lookup(f"{self.prefix}SST{n}") is not None))
        return out

    def check(self, out, _prepared) -> list[str]:
        problems = []
        for n, _, decls, codes, elaborated in out:
            if codes or not elaborated:
                problems.append(f"sst {n}: diagnostics {codes}")
                continue
            # Binder counts against the binomial oracle: the level-k family
            # takes one argument per proper face of the k-simplex.
            node, k = decls[0].body, 0
            while isinstance(node, parse.RSigma) and node.binder is not None:
                binders, ty = 0, node.fst
                while isinstance(ty, parse.RPi):
                    binders, ty = binders + 1, ty.cod
                if binders != boundary_cell_count(k):
                    problems.append(f"sst {n}: level {k} has {binders} binders")
                node, k = node.snd, k + 1
            if k != n:
                problems.append(f"sst {n}: {k} level families")
        if [o[0] for o in out] != list(SST_LEVELS):
            problems.append("sst: levels missing")
        return problems

    def sources(self, out):
        return [text for _, text, *_ in out]


@dataclass
class Segal:
    """Generate, parse and check ``gen_segal_scaffold`` at levels 2..5, each
    after ``stdlib/equiv.tt`` in a fresh prelude signature; the seed draws
    the generator prefix."""

    seed: int

    def __post_init__(self) -> None:
        self.prefix = seeded_prefix(self.seed)
        self.equiv = (STDLIB / "equiv.tt").read_text(encoding="utf-8")

    def prepare(self):
        return None

    def run(self, tracer, _prepared):
        out = []
        for n in SEGAL_LEVELS:
            sig, _, diags = check_file(tracer, self.equiv, fresh_prelude(tracer))
            plan = GenPlan(n, emit=frozenset({"segal"}), names=self.prefix,
                           cap=SEGAL_LEVELS[-1])
            text = tracer.call("sstgen.gen_segal_scaffold", gen_segal_scaffold, plan)
            tracer.note("sstgen.bytes", len(text.encode()))
            sig, _, more = check_file(tracer, text, sig)
            codes = [d.code for d in diags + more]
            out.append((n, text, codes, sig.lookup(f"{self.prefix}Tot{n}")))
        return out

    def check(self, out, _prepared) -> list[str]:
        problems = []
        for n, _, codes, tot in out:
            if codes or tot is None:
                problems.append(f"segal {n}: diagnostics {codes}")
                continue
            # One component per boundary cell, plus the filler.
            got = sigma_components(tot.body)
            if got != boundary_cell_count(n) + 1:
                problems.append(f"segal {n}: Tot has {got} components")
        if [o[0] for o in out] != list(SEGAL_LEVELS):
            problems.append("segal: levels missing")
        return problems

    def sources(self, out):
        return [s for _, text, *_ in out for s in (self.equiv, text)]


@dataclass
class Eval:
    """The read-back half of ``tt2 eval`` (``nf`` then ``pretty``) over every
    corpus definition, ``SegalCondition_n`` for n in 2..5 and seeded random
    closed terms.  Signatures are elaborated for each operation, untimed."""

    seed: int

    def __post_init__(self) -> None:
        accepts, _ = read_manifest()
        # Raw declarations are immutable, so they are parsed once; every
        # operation elaborates them into signatures of its own.
        self.decls = [parse.parse_file(source) for _, source in accepts]
        self.names = [d.name for decls in self.decls for d in decls if d.kind == "def"]
        prefix = seeded_prefix(self.seed)
        for n in EVAL_SEGAL_LEVELS:
            plan = GenPlan(n, emit=frozenset({"segal"}), names=f"{prefix}{n}_")
            self.decls.append(parse.parse_file(gen_segal_scaffold(plan)))
            self.names.append(f"{prefix}{n}_SegalCondition{n}")
        gen = TermGen(self.seed)
        self.terms = [gen.sample(RANDOM_TERM_SIZE)[0] for _ in range(RANDOM_TERMS)]
        self.reference = None

    def prepare(self):
        """Signatures for one operation: the accept corpus plus the Segal
        scaffolds in one, and an empty one for the random terms."""
        sig = initial_signature(CONFIG)
        for decls in self.decls:
            sig, diags = elaborate_signature(decls, sig, CONFIG)
            if diags:
                raise RuntimeError(f"eval inputs do not check: {[d.code for d in diags]}")
        targets = [(name, sig.lookup(name).body) for name in self.names]
        return sig, targets, Signature()

    def run(self, tracer, prepared):
        sig, targets, empty = prepared
        out = []
        for name, body in targets:
            normal = tracer.call("conv.nf", conv.nf, sig, Context(), body)
            text = tracer.call("pretty.pretty", pretty.pretty, normal, sig)
            tracer.note("pretty.chars", len(text))
            out.append((name, normal, text))
        for i, term in enumerate(self.terms):
            normal = tracer.call("conv.nf", conv.nf, empty, Context(), term)
            text = tracer.call("pretty.pretty", pretty.pretty, normal, empty)
            tracer.note("pretty.chars", len(text))
            out.append((f"random{i}", normal, text))
        return out

    def check(self, out, prepared) -> list[str]:
        """The first operation checked is compared with the small-step
        reducer of ``tests/smallstep_oracle.py``; every later one must
        repeat its normal forms and printed text exactly."""
        if self.reference is not None:
            if out != self.reference:
                return ["eval: output differs from the first operation"]
            return []
        sig, targets, empty = prepared
        inputs = [(sig, body) for _, body in targets] + [(empty, t) for t in self.terms]
        if len(out) != len(inputs):
            return ["eval: outputs missing"]
        problems = [
            f"eval {name}: nf disagrees with the small-step oracle"
            for (name, normal, _), (target_sig, term) in zip(out, inputs)
            if normalize(target_sig, term, ORACLE_FUEL) != normal
        ]
        if not problems:
            self.reference = out
        return problems

    def sources(self, out):
        return []


def curve_input(kind: str, n: int):
    """A fresh prelude signature, after ``stdlib/equiv.tt`` for Segal, and
    the level-n generated text, parsed, with the level cap lifted to n."""
    sig = initial_signature(CONFIG)
    if kind == "segal":
        equiv = (STDLIB / "equiv.tt").read_text(encoding="utf-8")
        sig, _ = elaborate_signature(parse.parse_file(equiv), sig, CONFIG)
        text = gen_segal_scaffold(GenPlan(n, emit=frozenset({"segal"}), cap=n))
    else:
        text = gen_sst(GenPlan(n, cap=n))
    return sig, text, parse.parse_file(text)


WORKLOADS = {"corpus": Corpus, "sst": Sst, "segal": Segal, "eval": Eval}
