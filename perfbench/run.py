"""The tt2 benchmark: one workload per process, serial, no threads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

An untraced run (``--trace 0``) measures set-up time in fresh
interpreters, then runs operations of the workload back to back for
``--seconds`` and reports the end-to-end metrics, with every time at the
speed of the reference loop in ``reference.py``.  A traced run
(``--trace 1``) reports the per-layer metrics instead: spans around the
benchmark's own calls into each layer, ``cProfile`` call counts and self
times by module, the peak Python stack depth, the level curve, and a
repeat of the counting passes under another ``PYTHONHASHSEED``.  Nothing
inside ``src/`` is instrumented.  Every operation's output is checked;
the last line of standard output is one JSON object with the result.
The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]
try:
    import workloads as wl
    from reference import at_reference_speed, reference
    from tt2 import parse
    from tt2.elab import elaborate_signature
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tt2 and its test helpers from {ROOT}: {exc}")

SETUP_RUNS = 21
# A set-up interpreter reports ready, then times the reference loop twice
# on its own core, after the timed part.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tt2; "
    "tt2.initial_signature(); print('ready', flush=True); "
    "sys.path.insert(0, sys.argv[2]); from reference import reference; "
    "print(reference(), reference())"
)
TAIL_BEYOND = 10
# The core speed changes within fractions of a second, so each op is set
# against the reference loops run within this many seconds of it.
REFERENCE_WINDOW_S = 0.4
TRACE_BASELINE_OPS = 5
# cProfile names of the functions whose calls are counted, where the
# metric name differs from the function name.
FUNCTION_NAMES = {
    "closure_apply": "apply",
    "convert_spine": "_convert_spine",
    "convert_untyped": "_convert_untyped",
}
CURVE = [("sst", n) for n in range(1, 9)] + [("segal", n) for n in range(2, 7)]


class Untraced:
    """Forwards every call; what untimed and untraced operations use."""

    def call(self, name, fn, *args):
        return fn(*args)

    def note(self, name, amount):
        pass


class Spans:
    """Spans (name, start, end, parent) around the benchmark's calls into
    each layer, and the work sizes noted at those calls, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.sizes: Counter = Counter()
        self._open: list[int] = []

    def call(self, name, fn, *args):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def note(self, name, amount):
        self.sizes[name] += amount

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class StackDepth:
    """Peak Python frame depth below the point where it is entered,
    counted with ``sys.setprofile``."""

    def __init__(self) -> None:
        self.depth = self.peak = 0

    def _hook(self, frame, event, arg):
        if event == "call":
            self.depth += 1
            self.peak = max(self.peak, self.depth)
        elif event == "return":
            self.depth -= 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


class Op(NamedTuple):
    start: float | None  # perf_counter() when the timed run started
    seconds: float  # wall time of the timed run
    references: list[tuple[float, float]]  # (midpoint, seconds) of reference loops
    problems: list[str]
    out: object


def timed_reference() -> tuple[float, float]:
    """One reference loop, as (midpoint on the perf_counter clock, seconds)."""
    seconds = reference()
    return time.perf_counter() - seconds / 2, seconds


def one_op(workload, tracer=Untraced(), instrument=None, referenced=False) -> Op:
    """One operation: untimed preparation, the timed run, untimed checks.
    The timed run starts with the garbage collector's counts at zero, as in
    a fresh ``tt2`` process, so that no op collects an earlier op's garbage.
    With ``referenced``, the reference loop (``reference.py``) runs just
    before and just after the timed run.  An exception in any part is a
    problem."""
    start = elapsed = None
    references = []
    try:
        prepared = workload.prepare()
        gc.collect()
        if referenced:
            references.append(timed_reference())
        start = time.perf_counter()
        with instrument or nullcontext():
            out = tracer.call("op", workload.run, tracer, prepared)
        elapsed = time.perf_counter() - start
        if referenced:
            references.append(timed_reference())
        problems = workload.check(out, prepared)
    except Exception:
        if elapsed is None:
            elapsed = 0.0 if start is None else time.perf_counter() - start
        return Op(start, elapsed, references, [traceback.format_exc(limit=4)], None)
    return Op(start, elapsed, references, problems, out)


def window(workload, seconds: float, min_ops: int = 1):
    """Operations back to back, a closed loop of one caller, for at least
    ``seconds`` of wall time and at least ``min_ops`` operations.  Returns
    their wall times, their times at reference speed, failures and problems.
    An op's reference speed is that of every reference loop within
    ``REFERENCE_WINDOW_S`` of its timed run, its own two and its neighbours'."""
    walls, runs, references, problems, failed = [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    while len(walls) < min_ops or time.perf_counter() < deadline:
        op = one_op(workload, referenced=True)
        walls.append(op.seconds)
        if op.start is not None:
            runs.append((op.start, op.start + op.seconds))
        references += op.references
        failed += bool(op.problems)
        problems += op.problems
    times = []
    for start, end in runs:
        near = [s for t, s in references
                if start - REFERENCE_WINDOW_S <= t <= end + REFERENCE_WINDOW_S]
        times.append(at_reference_speed(end - start, statistics.mean(near)))
    return walls, times, failed, problems


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the smallest sample when there are ten or fewer."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def setup_seconds() -> list[float]:
    """Time from starting a fresh interpreter until it has imported tt2
    and built the prelude signature, once per set-up run, at the reference
    speed the interpreter measured right after."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            refs = child.stdout.read().split()
        if line.strip() != "ready" or child.returncode != 0 or len(refs) != 2:
            raise RuntimeError(f"set-up interpreter failed with code {child.returncode}")
        samples.append(at_reference_speed(elapsed, statistics.mean(map(float, refs))))
    return samples


def profile_counts(stats: dict) -> tuple[Counter, Counter, int]:
    """Self seconds by tt2 module, calls by (module, function) and all
    Python-level calls, from ``pstats`` entries."""
    self_s, calls, total = Counter(), Counter(), 0
    tt2_dir = str(SRC / "tt2")
    for (filename, _, function), (_, ncalls, tottime, _, _) in stats.items():
        if filename == "~" or filename.startswith(str(HERE)):
            continue
        total += ncalls
        if os.path.dirname(filename) == tt2_dir:
            module = Path(filename).stem
            self_s[module] += tottime
            calls[module, function] += ncalls
    return self_s, calls, total


def traced_passes(workload) -> tuple[dict, dict]:
    """The three traced passes over one operation each: spans alone, then
    ``cProfile``, then stack depth.  Returns the layer values and the
    trace record (spans and problems)."""
    values: dict = {}
    problems = []

    spans = Spans()
    op = one_op(workload, spans)
    problems += op.problems
    out = op.out
    if out is not None:
        for source in workload.sources(out):
            tokens = spans.call("parse.lex", parse.lex, source)
            spans.note("parse.tokens", len(tokens))
    values["prelude.builds"] = sum(s["name"] == "prelude.initial_signature" for s in spans.spans)
    for name in ("parse.tokens", "sstgen.bytes", "pretty.chars"):
        values[name] = spans.sizes[name]

    profiler = cProfile.Profile()
    profiled = one_op(workload, instrument=profiler)
    problems += profiled.problems
    self_s, calls, values["py.calls"] = profile_counts(pstats.Stats(profiler).stats)
    for metric in declared(trace=True):
        layer, _, rest = metric.partition(".")
        if rest == "self_s":
            values[metric] = self_s[layer]
        elif rest.endswith(".calls") and layer != "py":
            function = rest[: -len(".calls")]
            values[metric] = calls[layer, FUNCTION_NAMES.get(function, function)]
        elif rest.endswith(".s"):
            values[metric] = spans.seconds(metric[: -len(".s")])

    depth = StackDepth()
    found = one_op(workload, instrument=depth).problems
    problems += found
    values["py.max_depth"] = depth.peak
    return values, {"spans": spans.spans, "profiled_op_s": profiled.seconds, "problems": problems}


def counts_of(values: dict) -> dict:
    return {k: v for k, v in values.items() if isinstance(v, int)}


def repeat_counts(workload_name: str, seed: int) -> dict:
    """The counts of the traced passes, from a fresh process under another
    hash seed."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed), "--counts"],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=170,
    )
    if child.returncode != 0:
        raise RuntimeError(f"count repeat failed: {child.stderr[-2000:]}")
    return json.loads(child.stdout.splitlines()[-1])


def curve(values: dict) -> list[dict]:
    """Generate and check SST at levels 1..8 and Segal at 2..6 past the CLI
    cap: text bytes, untraced elaboration seconds, and ``evaluate`` calls
    from a second, profiled elaboration.  A level that raises or reports a
    diagnostic is recorded as failed."""
    levels = []
    for kind, n in CURVE:
        key = f"curve.{kind}.{n}"
        record = {"level": key, "failure": None}
        for profiled in (False, True):
            sig, text, decls = wl.curve_input(kind, n)
            profiler = cProfile.Profile() if profiled else None
            start = time.perf_counter()
            try:
                with profiler or nullcontext():
                    _, diags = elaborate_signature(decls, sig, wl.CONFIG)
                if diags:
                    record["failure"] = f"diagnostics {[d.code for d in diags]}"
            except Exception as exc:
                record["failure"] = f"{type(exc).__name__}: {str(exc)[:200]}"
            if profiled:
                _, calls, _ = profile_counts(pstats.Stats(profiler).stats)
                values[f"{key}.evaluate_calls"] = calls["conv", "evaluate"]
            else:
                values[f"{key}.elab_s"] = time.perf_counter() - start
        values[f"{key}.bytes"] = len(text.encode())
        levels.append(record)
    values["curve.failed_levels"] = sum(r["failure"] is not None for r in levels)
    return levels


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def select(values: dict, trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` declares, with their units."""
    units = declared(trace)
    missing = units.keys() - values.keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_untraced(args, workload) -> tuple[dict, int, int, list[str]]:
    setup = setup_seconds()
    problems = one_op(workload).problems  # warm-up, checked, untimed
    walls, times, failed, found = window(workload, args.seconds)
    problems += found
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (len(walls) - failed) / len(walls),
    }
    print(f"{args.workload}: {len(walls)} ops, set-up median of {len(setup)} "
          f"interpreters, op_tail_s is p{tail_pct:.0f}; wall time per op "
          f"{statistics.median(walls):.4g} s, at reference speed {values['op_s']:.4g} s")
    return values, len(walls), failed, problems


def run_traced(args, workload) -> tuple[dict, int, int, list[str]]:
    problems = one_op(workload).problems  # warm-up, checked, untimed
    # The untraced baseline for trace.overhead_s is a few ops, not a full
    # window: the level curve already makes a traced run the longest one.
    times, _, failed, found = window(workload, 0, TRACE_BASELINE_OPS)
    problems += found
    values, record = traced_passes(workload)
    problems += record["problems"]
    values["trace.overhead_s"] = record["profiled_op_s"] - statistics.median(times)
    repeat = repeat_counts(args.workload, args.seed)
    mine = counts_of(values)
    mismatches = sorted(k for k in mine.keys() | repeat.keys() if mine.get(k) != repeat.get(k))
    for key in mismatches:
        print(f"finding: count {key} is {mine.get(key)} here and {repeat.get(key)} "
              f"under another PYTHONHASHSEED", file=sys.stderr)
    values["trace.count_mismatches"] = len(mismatches)
    record["count_mismatches"] = {k: [mine.get(k), repeat.get(k)] for k in mismatches}
    record["curve"] = curve(values)
    for level in record["curve"]:
        if level["failure"]:
            print(f"curve: {level['level']} failed: {level['failure']}", file=sys.stderr)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, values=values)
    (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(record, indent=1))
    return values, len(times) + 3, failed, problems


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", action="store_true",
                        help="print only the counts of the traced passes (used by --trace 1)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = wl.WORKLOADS[args.workload](args.seed)
    if args.counts:
        one_op(workload)
        values, _ = traced_passes(workload)
        print(json.dumps(counts_of(values)))
        return 0
    run = run_traced if args.trace else run_untraced
    values, attempted, failed, problems = run(args, workload)
    metrics = select(values, bool(args.trace))
    for name, m in metrics.items():
        print(f"{args.workload}  {name:34} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload}  {'failed_ratio':34} {failed / attempted:>14.6g} 1")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not problems and not failed, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
