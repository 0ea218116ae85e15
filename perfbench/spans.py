"""In-memory spans around the calls `cli` and `formats` make into each layer.

The traced run patches public names in the imported modules for its
duration and restores them afterwards; the program's sources are not
touched. A span is ``[name, start, end, parent, command]``; spans stay in
a list until the run ends and are then written out as JSON lines. Counts
(extensions found, bytes emitted, refusals by reason) are recorded at the
same boundaries, after the span has closed.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from workloads import SEMANTICS

CODES = {name: code for code, name in SEMANTICS.items()}
REASONS = ("overlap", "unreachable", "consumed-twice")
LABELS = tuple(SEMANTICS) + ("set",)


def refusal_reason(message: str) -> str:
    """Classify a CoverageError message by which grouping check refused."""
    if "overlap" in message:
        return "overlap"
    if "not reachable" in message:
        return "unreachable"
    if "consumed" in message:
        return "consumed-twice"
    return "other"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command = -1
        self.label = "set"   # semantics code of the running command
        self.cf_sets = 0     # conflict-free sets of the running command's doc
        self.statements = 0  # statements in the running command's doc

    def call(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.command]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, command in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "command": command}) + "\n")


# -- the patch set ---------------------------------------------------------

def _count(key: str, measure):
    def after(tracer, result):
        tracer.counts[key] += measure(tracer, result)
    return after


def _traced_enumerate(tracer: Tracer, method):
    def enumerate_extensions(self, semantics, *args, **kwargs):
        code = CODES.get(semantics, semantics)
        name = f"af.enumerate_extensions.{code}"
        index = len(tracer.spans)
        result = tracer.call(name, method, self, semantics, *args, **kwargs)
        span = tracer.spans[index]
        tracer.counts[name + ".extensions"] += len(result)
        if code != "gr":
            tracer.counts["af.enumerate_extensions.cf_sets"] += tracer.cf_sets
            tracer.counts["af.enumerate_extensions.walk_s"] += (
                span[2] - span[1])
        return result
    return enumerate_extensions


def _traced_bounds(tracer: Tracer, fn, coverage_error):
    def extension_bounds(*args, **kwargs):
        try:
            result = tracer.call("bounds.extension_bounds", fn, *args,
                                 **kwargs)
        except coverage_error as exc:
            reason = refusal_reason(str(exc))
            tracer.counts[f"bounds.extension_bounds.refused.{reason}"] += 1
            tracer.counts[f"bounds.extension_bounds.refused.{reason}."
                          f"{tracer.label}"] += 1
            raise
        tracer.counts["bounds.extension_bounds.ok"] += 1
        return result
    return extension_bounds


class _ProfileConstructor:
    """Stands in for ``CredalProfile`` inside ``formats`` while tracing."""

    def __init__(self, tracer: Tracer, cls):
        self._call = tracer.wrap("credal.profile", cls)
        self.maximal = tracer.wrap("credal.profile", cls.maximal)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)


def patches(tracer: Tracer, program) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapped public name.

    Names a later version of the program no longer has are skipped, so
    their metrics read zero instead of the run failing.
    """
    cli, formats, af = program.cli, program.formats, program.af
    wanted = []
    simple = [
        (cli, "load_caf", "formats.load_caf", None),
        (formats, "parse_caf", "formats.parse_caf",
         _count("formats.parse_caf.statements", lambda t, r: t.statements)),
        (cli, "emit_json", "formats.emit_json",
         _count("formats.emit_json.bytes", lambda t, r: len(r))),
        (cli, "export_dot", "formats.export_dot", None),
        (cli, "agent_valuation_oracle", "bounds.agent_valuation_oracle",
         None),
        (cli, "rank_extensions", "bounds.rank_extensions", None),
        (cli, "rationality_report", "credal.rationality_report",
         _count("credal.rationality_report.violations",
                lambda t, r: len(r))),
        (formats, "ArgumentationFramework", "af.build", None),
        (formats, "CausalityGraph", "causality.build",
         _count("causality.build.edges", lambda t, r: len(r.edges))),
    ]
    for owner, attr, name, after in simple:
        if hasattr(owner, attr):
            wanted.append((owner, attr,
                           tracer.wrap(name, getattr(owner, attr), after)))
    if hasattr(formats, "CredalProfile"):
        wanted.append((formats, "CredalProfile",
                       _ProfileConstructor(tracer, formats.CredalProfile)))
    if hasattr(cli, "extension_bounds"):
        wanted.append((cli, "extension_bounds", _traced_bounds(
            tracer, cli.extension_bounds, program.CoverageError)))
    klass = af.ArgumentationFramework
    wanted.append((klass, "enumerate_extensions",
                   _traced_enumerate(tracer, klass.enumerate_extensions)))
    return wanted


@contextlib.contextmanager
def installed(tracer: Tracer, program):
    """Apply ``patches`` for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, replacement in patches(tracer, program):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- arithmetic ------------------------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - union_length(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """busy (inclusive), self and call count per span name."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry["busy"] += span[2] - span[1]
        entry["self"] += own
        entry["calls"] += 1
    return out


def per_command_self(spans: list[list]) -> dict[int, tuple[float, float]]:
    """command id -> (sum of all self times, root span duration)."""
    out: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        out[span[4]][0] += own
        if span[3] < 0:
            out[span[4]][1] += span[2] - span[1]
    return {k: (v[0], v[1]) for k, v in out.items()}
