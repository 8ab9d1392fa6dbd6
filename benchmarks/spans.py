"""In-memory span recorder and the layer patches used by the traced run.

Spans are recorded from outside the program: the public entry points of
each polarlab layer are replaced, for the length of one traced call, by a
wrapper that opens a span, calls the original and closes the span. Nothing
in `src/` knows about tracing; in-program tracing and a `--stats` sidecar
are a later change (ROADMAP open item 1).

Each thread keeps its own stack of open spans, so spans opened on a
thread-pool worker nest under that worker's own spans and never under
whatever the main thread happens to be doing. A span opened on a worker
with an empty stack is parented to the innermost span open on the main
thread, which is the `enumerate_paths`/`sample_paths` call waiting on the
pool. Self time is a span's duration minus the part of it covered by the
union of its children, so parallel children are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "counts", "error")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.counts: dict[str, int] = {}
        self.error: str | None = None
        self.end = 0.0
        self.start = time.perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)


class SpanRecorder:
    """Spans kept in memory, one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span = Span(name, parent, threading.get_ident())
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def self_times(self) -> dict[int, float]:
        """Self time of every span, keyed by id(span)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[id(span)] = (span.end - span.start) - covered
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, "error:<exception>" counts and every recorded count."""
        selfs = self.self_times()
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            t = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += selfs[id(span)]
            if span.error is not None:
                t["error:" + span.error] = t.get("error:" + span.error, 0) + 1
            for key, n in span.counts.items():
                t[key] = t.get(key, 0) + n
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON object per line (start/end relative to the first)."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "thread": s.thread,
                    "start_s": s.start - t0,
                    "end_s": s.end - t0,
                    "counts": s.counts,
                    "error": s.error,
                }) + "\n")


Before = Callable[[Span, inspect.BoundArguments], None]
After = Callable[[Span, inspect.BoundArguments, object], None]


def traced(rec: SpanRecorder, name: str, fn, before: Before | None = None,
           after: After | None = None):
    """Wrap fn so each call is one span; counters read the bound arguments.

    A counter that no longer fits the function's signature is reported once
    and skipped; it never fails the call.
    """
    sig = inspect.signature(fn) if (before or after) else None
    warned = []

    def count(counter, *args):
        try:
            counter(*args)
        except (KeyError, AttributeError, TypeError) as exc:
            if not warned:
                warned.append(exc)
                print(f"trace: counter for {name} failed ({exc!r}), skipped", file=sys.stderr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    count(before, span, bound)
            result = fn(*args, **kwargs)
            if after is not None:
                count(after, span, bound, result)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            rec.close(span)

    return wrapper


class Patches:
    """Replaces functions for the length of a `with` block, then restores them.

    A module-level function is replaced in its defining module and in every
    loaded polarlab module that bound it by name (`process` imports
    `polar_step`, `capacity_gap`, `distance_to_pol` and
    `delta_determining_subgroup`; `cli` imports `enumerate_paths`,
    `sample_paths` and `report_json`). Recursion through the module-global
    name, as in `transport_plan`'s orientation flip, goes through the wrapper.
    A name the program no longer defines is reported and left untraced, so
    the traced run keeps working when private helpers are removed.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make) -> None:
        if not hasattr(module, attr):
            print(f"trace: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("polarlab") and \
                    getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def method(self, cls, attr: str, make) -> None:
        if attr not in vars(cls):
            print(f"trace: {cls.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        self._set(cls, attr, make(vars(cls)[attr]))

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False


def install(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap the public entry points of every layer on the polarize path."""
    from polarlab import blackwell, channels, cli, metrics, polar, process

    def step_before(span, b):
        k = b.arguments["m"].atom_count
        g = b.arguments["m"].group.size
        span.count("raw_atoms", k * k if b.arguments["sign"] == polar.MINUS else k * k * g)

    def gap_before(span, b):
        k = b.arguments["m"].atom_count
        span.count("pairs", k * k)

    def canon_before(span, b):
        span.count("atoms_in", len(b.arguments["weights"]))

    def canon_after(span, b, _result):
        span.count("atoms_out", b.arguments["self"].atom_count)

    def transport_before(span, b):
        if span.parent is not None and span.parent.name == span.name:
            span.count("flips")  # re-entry to solve in the canonical orientation
            return
        m1, m2 = b.arguments["m1"], b.arguments["m2"]
        if m1.identical(m2):
            span.count("identical")
        elif m1.atom_count == 1 or m2.atom_count == 1:
            span.count("single_atom")
        else:
            span.count("lp_solves")

    def write_before(span, b):
        span.count("bytes", len(b.arguments["text"].encode("utf-8")))

    def leaves_after(span, _b, report):
        span.count("leaves", len(report.records))

    def wrap(name, before=None, after=None):
        return lambda fn: traced(rec, name, fn, before, after)

    patches.function(process, "enumerate_paths", wrap("process.run", after=leaves_after))
    patches.function(process, "sample_paths", wrap("process.run", after=leaves_after))
    patches.function(process, "_walk", wrap("process.walk"))
    patches.function(polar, "polar_step", wrap("polar.step", step_before))
    patches.function(polar, "capacity_gap", wrap("polar.gap", gap_before))
    patches.method(blackwell.BlackwellMeasure, "__init__",
                   wrap("blackwell.canon", canon_before, canon_after))
    patches.method(blackwell.BlackwellMeasure, "realize", wrap("blackwell.realize"))
    patches.function(metrics, "distance_to_pol", wrap("metrics.pol"))
    patches.function(metrics, "transport_plan", wrap("metrics.transport", transport_before))
    patches.function(channels, "delta_determining_subgroup", wrap("channels.classify"))
    patches.method(process.PolarizationReport, "to_dict", wrap("cli.report"))
    patches.function(cli, "report_json", wrap("cli.report"))
    patches.function(cli, "_write_atomic", wrap("cli.report", write_before))
