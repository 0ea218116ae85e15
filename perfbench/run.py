"""Benchmark for credalarg: four CLI workloads, run in process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads: enum-structured, bounds-causal, grounded-large, cli-small (see
``BENCHMARK.json`` for why each exists). One process and one thread drive
``credalarg.cli.main(argv)`` as a closed loop: the next command starts
when the previous one returns, with stdout and stderr captured to memory.

A run sets up five times (build the seeded corpus, write it, import the
program afresh, run a few warm-up commands), then makes one untimed check
pass that compares every output with an independent reference, then
repeats timed passes over the command list for ``--seconds`` (at least
three passes). Every later output must equal the checked one.

End-to-end metrics (``--trace 0``), where a command's latency is its
median over the passes:

    setup_s       median set-up time
    wall_s        one pass: the sum of the command latencies
    cmd_p50_ms    median command latency
    cmd_tail_ms   highest ladder percentile of the command latencies
                  with at least ten commands beyond it
    peak_rss_mib  peak resident memory of this process

With ``--trace 1`` half the time goes to untraced passes and half to
traced ones, which give the per-layer metrics (see ``spans.py``) and the
tracing overhead; both run the workload plus eight short commands that
reach every layer (``workloads.add_coverage``).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and sample count, the failure ratio, known faults
and the size of ``src/credalarg``, none of them gated.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
TAIL_BEYOND = 10
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms",
              "cmd_tail_ms": "ms", "peak_rss_mib": "MiB"}


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    for code in ("cf", "ad", "co", "pr", "st"):
        base = f"af.enumerate_extensions.{code}"
        units.update({f"{base}.busy_s": "s", f"{base}.calls": "count",
                      f"{base}.extensions": "count"})
    units.update({
        "af.enumerate_extensions.gr.busy_s": "s",
        "af.enumerate_extensions.gr.calls": "count",
        "af.enumerate_extensions.cf_sets": "count",
        "af.enumerate_extensions.ns_per_cf_set": "ns",
        "bounds.extension_bounds.calls": "count",
        "bounds.extension_bounds.busy_s": "s",
        "bounds.extension_bounds.us_per_call": "us",
        "bounds.extension_bounds.ok_ratio": "ratio",
    })
    for reason in spans.REASONS + ("other",):
        units[f"bounds.extension_bounds.refused.{reason}"] = "count"
    for reason in spans.REASONS:
        for label in spans.LABELS:
            units[f"bounds.extension_bounds.refused.{reason}.{label}"] = (
                "count")
    units.update({
        "bounds.rank_extensions.busy_s": "s",
        "bounds.agent_valuation_oracle.busy_s": "s",
        "formats.emit_json.busy_s": "s",
        "formats.emit_json.bytes": "bytes",
        "formats.load_caf.busy_s": "s",
        "formats.parse_caf.self_s": "s",
        "formats.parse_caf.statements": "count",
        "formats.parse_caf.us_per_statement": "us",
        "af.build.busy_s": "s",
        "causality.build.busy_s": "s",
        "causality.build.edges": "count",
        "credal.profile.busy_s": "s",
        "credal.rationality_report.busy_s": "s",
        "credal.rationality_report.violations": "count",
        "formats.export_dot.busy_s": "s",
        "cli.main.calls": "count",
        "cli.main.self_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.accounted_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer()


# -- statistics ---------------------------------------------------------------

def _rank(level: float, samples: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(level * samples / 100.0, 6)))


def nearest_rank(ordered: list[float], level: float) -> float:
    """The ``level`` percentile of sorted samples, nearest-rank method."""
    return ordered[_rank(level, len(ordered)) - 1]


def tail_level(samples: int, beyond: int = TAIL_BEYOND) -> float:
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Too few samples fall back to the median.
    """
    best = TAIL_LADDER[0]
    for level in TAIL_LADDER:
        if samples - _rank(level, samples) >= beyond:
            best = level
    return best


# -- the program under test ---------------------------------------------------

class ProgramMissing(Exception):
    pass


def import_program():
    """Fresh import of credalarg from this checkout's ``src``."""
    src = str(ROOT / "src")
    if not (ROOT / "src" / "credalarg" / "__init__.py").is_file():
        raise ProgramMissing(f"no credalarg package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "credalarg" or m.startswith("credalarg.")]:
        del sys.modules[name]
    package = importlib.import_module("credalarg")
    for sub in ("cli", "formats", "af", "samples"):
        importlib.import_module(f"credalarg.{sub}")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "credalarg":
        raise ProgramMissing(f"credalarg imported from {package.__file__}")
    return package


def load_bruteforce():
    path = ROOT / "tests" / "bruteforce.py"
    if not path.is_file():
        raise ProgramMissing(f"reference {path} is missing")
    spec = importlib.util.spec_from_file_location("bench_bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def execute(main, argv: list[str]):
    """Run one command; returns (exit code, stdout, seconds, exception)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # counted as a failed command
            rc, error = None, exc
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed, error


# -- phases -------------------------------------------------------------------

def set_up(workload: str, seed: int, workdir: Path, trace: bool):
    """Build, write, import, warm up; returns (corpus, program, digest)."""
    corpus = workloads.build(workload, seed)
    if trace:
        workloads.add_coverage(corpus)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    texts = workloads.write(corpus, str(workdir))
    program = import_program()
    for cmd in corpus.warmup:
        execute(program.cli.main, cmd.resolved())
    digest = hashlib.sha256()
    for name in sorted(texts):
        digest.update(name.encode() + b"\0" + texts[name].encode())
    return corpus, program, digest.hexdigest()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[what] = self.reasons.get(what, 0) + 1


def check_pass(program, corpus, checker, tally):
    """Untimed pass: compare every output with its reference.

    Returns each command's output signature; None marks a failed command,
    which then fails in every timed pass too.
    """
    signatures = []
    for cmd in corpus.commands:
        rc, out, _, error = execute(program.cli.main, cmd.resolved())
        what = " ".join(cmd.argv)
        try:
            if error is not None:
                raise checks.CheckFailure(
                    f"uncaught {type(error).__name__}: {error}")
            checker.check(cmd, rc, out)
        except Exception as exc:  # a check that breaks is a failed command
            tally.record(False, f"{what}: {exc}")
            signatures.append(None)
            continue
        tally.record(True)
        signatures.append((rc, len(out), hash(out)))
    return signatures


def timed_passes(main, corpus, signatures, seconds: float, min_passes: int,
                 tally, before=None):
    """Closed-loop passes until ``seconds`` elapse; per-pass latencies."""
    passes: list[list[float]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        latencies = []
        for i, cmd in enumerate(corpus.commands):
            gc.collect()
            if before is not None:
                before(cmd)
            rc, out, elapsed, error = execute(main, cmd.resolved())
            latencies.append(elapsed)
            ok = (error is None and signatures[i] is not None
                  and (rc, len(out), hash(out)) == signatures[i])
            tally.record(ok, " ".join(cmd.argv)
                         + ": differs from the checked output")
        passes.append(latencies)
    return passes


def run_probes(program, corpus, checker) -> list[str]:
    """Known seed faults, run once outside the timed loop and reported."""
    lines = []
    for cmd in corpus.probes:
        rc, out, _, error = execute(program.cli.main, cmd.resolved())
        shown = " ".join(cmd.argv).replace("{input}", cmd.doc.name)
        if error is not None:
            state = f"still fails: uncaught {type(error).__name__}"
        else:
            try:
                checker.check(cmd, rc, out)
                state = "fixed: output matches the reference"
            except Exception as exc:
                state = f"still fails: {exc}"
        lines.append(f"known-fault [{shown}] {state}")
    return lines


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "credalarg").rglob("*.py")))


# -- metrics ------------------------------------------------------------------

def end_to_end(setups, passes, commands: int) -> tuple[dict, list[str]]:
    """A command's latency is its median over the passes.

    A transient stall then moves no metric, and the tail is a property of
    the command mix: the highest ladder percentile of the per-command
    latencies with at least TAIL_BEYOND commands beyond it. Its level
    depends only on the workload's command count.
    """
    latency = sorted(statistics.median(c) for c in zip(*passes))
    level = tail_level(commands)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency),
        "cmd_p50_ms": statistics.median(latency) * 1e3,
        "cmd_tail_ms": nearest_rank(latency, level) * 1e3,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per = f"{commands} commands, each the median of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"sum over {per}",
        "cmd_p50_ms": f"median over {per}",
        "cmd_tail_ms": f"p{level:g} over {per}",
        "peak_rss_mib": "ru_maxrss of the benchmark process",
    }
    lines = [f"{k} {v:.6g} {END_TO_END[k]} ({notes[k]})"
             for k, v in values.items()]
    return values, lines


def _ratio(part: float, whole: float, scale: float = 1.0) -> float:
    return part / whole * scale if whole else 0.0


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    """Per-pass layer figures from the spans and counts of a traced run.

    ``<span>.busy_s``, ``.self_s`` and ``.calls`` come from the span
    summary; every other name is a count recorded at a span boundary.
    """
    count = len(traced)
    summary = spans.summarize(tracer.spans)
    fields = {"busy_s": "busy", "self_s": "self", "calls": "calls"}

    def value(name):
        span, _, field = name.rpartition(".")
        if field in fields:
            entry = summary.get(span)
            return entry[fields[field]] / count if entry else 0.0
        return tracer.counts.get(name, 0.0) / count

    values = {name: value(name) for name in PER_LAYER}
    enum, eb = "af.enumerate_extensions", "bounds.extension_bounds"
    values[f"{enum}.ns_per_cf_set"] = _ratio(
        value(f"{enum}.walk_s"), values[f"{enum}.cf_sets"], 1e9)
    values[f"{eb}.us_per_call"] = _ratio(
        values[f"{eb}.busy_s"], values[f"{eb}.calls"], 1e6)
    values[f"{eb}.ok_ratio"] = _ratio(value(f"{eb}.ok"), values[f"{eb}.calls"])
    values["formats.parse_caf.us_per_statement"] = _ratio(
        values["formats.parse_caf.self_s"],
        values["formats.parse_caf.statements"], 1e6)
    values["trace.overhead_ratio"] = (
        statistics.median(sum(p) for p in traced)
        / statistics.median(sum(p) for p in untraced) - 1.0)
    own = sum(o for o, _ in spans.per_command_self(tracer.spans).values())
    values["trace.accounted_ratio"] = own / sum(x for p in traced for x in p)
    return values


def accounting_gap(tracer) -> float:
    """Largest |sum of self times - root span| over commands, in seconds."""
    per_command = spans.per_command_self(tracer.spans)
    return max((abs(own - root) for own, root in per_command.values()),
               default=0.0)


# -- driver -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def traced_run(program, corpus, cf_sets, signatures, seconds, tally, dump):
    """Untraced passes, then traced ones; per-layer values and notes."""
    main = program.cli.main
    untraced = timed_passes(main, corpus, signatures, seconds / 2,
                            MIN_TRACE_PASSES, tally)
    tracer = spans.Tracer()
    command_ids = itertools.count()

    def before(cmd):
        tracer.command = next(command_ids)
        tracer.label = "set" if cmd.explicit or not cmd.sem else cmd.sem
        tracer.cf_sets = cf_sets[cmd.doc.path] if cmd.doc else 0
        tracer.statements = cmd.doc.statements if cmd.doc else 0

    def traced_main(argv):
        return tracer.call("cli.main", main, argv)

    with spans.installed(tracer, program):
        traced = timed_passes(traced_main, corpus, signatures, seconds / 2,
                              MIN_TRACE_PASSES, tally, before)
    values = per_layer(tracer, traced, untraced)
    gap = accounting_gap(tracer)
    if gap > 1e-6:
        tally.record(False, f"self times miss the root span by {gap:g} s")
    tracer.dump(dump)
    lines = [f"traced passes {len(traced)}, untraced {len(untraced)}, "
             f"spans {len(tracer.spans)} (written to {dump}), largest "
             f"self-time gap {gap:.3g} s"]
    lines += [f"{k} {v:.6g} {PER_LAYER[k]}" for k, v in values.items() if v]
    return values, lines


def run(args) -> tuple[dict, list[str]]:
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    try:
        bruteforce = load_bruteforce()
        setups, digests = [], set()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            corpus, program, digest = set_up(args.workload, args.seed,
                                             workdir, bool(args.trace))
            setups.append(time.perf_counter() - start)
            digests.add(digest)
        if len(digests) != 1:
            tally.record(False, "corpus bytes differ between set-ups")
        refs = checks.References(bruteforce, program)
        diagnosis = next((d for d in corpus.docs
                          if d.family == "diagnosis"), None)
        checker = checks.Checker(refs, program.samples.REPORTED_FIXTURES,
                                 diagnosis)
        signatures = check_pass(program, corpus, checker, tally)
        lines += run_probes(program, corpus, checker)
        cf_sets = {d.path: refs.cf_count(d) for d in corpus.docs
                   } if args.trace else {}
        del refs, checker  # the timed passes hold no reference data
        gc.collect()
        gc.freeze()  # keeps the per-command collections small
        if args.trace:
            values, text = traced_run(
                program, corpus, cf_sets, signatures, args.seconds, tally,
                str(scratch / f"spans-{args.workload}.jsonl"))
            units = PER_LAYER
        else:
            passes = timed_passes(program.cli.main, corpus, signatures,
                                  args.seconds, MIN_PASSES, tally)
            values, text = end_to_end(setups, passes, len(corpus.commands))
            units = END_TO_END
        lines += text
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"fail_ratio {ratio:.6g} ({tally.failed} of "
                 f"{tally.attempted} commands failed)")
    lines += [f"  failed {n}x: {r}" for r, n in tally.reasons.items()]
    lines.append(f"src_lines {src_lines()} (lines in src/credalarg, "
                 f"informational, not gated)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, lines = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
