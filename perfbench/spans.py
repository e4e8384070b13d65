"""Spans around the library calls that ``iomma.cli`` makes.

``Tracer.installed`` replaces each name in ``WRAPPED`` inside the ``iomma.cli``
module namespace, where the CLI looks it up, with a wrapper that records a
span (name, start, end, parent, request) and the call's work counts. The CLI
command itself is the parent span, so its self time is what the CLI does
around the library: argument parsing, payloads, formatting and writes.

With ``memory=True`` each call of a function that reports
``alloc_peak_mb`` runs under ``tracemalloc``, started at the call and stopped
after it, so the peak counts only what the call itself allocates. That pass
runs on its own because tracemalloc slows every allocation it traces.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter


def _events(schedule) -> int:
    return len(schedule.events)


# name bound in iomma.cli -> (layer, counts of one call from (args, result),
# per-layer metrics reported beside ".s" and ".errors")
WRAPPED = {
    "build_schedule": (
        "algorithms",
        lambda args, out: {"events": _events(out)},
        ("events", "events_per_s", "alloc_peak_mb"),
    ),
    "predicted_io": (
        "algorithms",
        lambda args, out: {},
        ("calls", "calls_per_s"),
    ),
    "execute": (
        "memsim",
        lambda args, out: {
            "events": _events(args[0]),
            "reads": out.stats.reads,
            "writes": out.stats.writes,
            "fmas": out.stats.fmas,
        },
        ("events_per_s", "reads", "writes", "fmas", "alloc_peak_mb"),
    ),
    "reference_gemm": ("memsim", lambda args, out: {}, ()),
    "dump_trace": (
        "memsim",
        lambda args, out: {"bytes": len(out.encode())},
        ("bytes", "alloc_peak_mb"),
    ),
    "parse_trace": (
        "memsim",
        lambda args, out: {"events": _events(out)},
        ("events_per_s", "alloc_peak_mb"),
    ),
    "partition_phases": (
        "phases",
        lambda args, out: {"events": _events(args[0]), "phases": len(out)},
        ("events_per_s", "phases", "alloc_peak_mb"),
    ),
    "phases_to_csv": ("phases", lambda args, out: {}, ()),
    "seeded_matrices": (
        "inputs",
        lambda args, out: {"elements": sum(matrix.size for matrix in out)},
        ("elements",),
    ),
    "tiny_optimal_schedule": (
        "bounds",
        lambda args, out: {"nodes": out.nodes, "proven": int(out.optimal)},
        ("nodes", "nodes_per_s", "proven_ratio"),
    ),
}

CLI_SPAN_PREFIX = "cli."
MB = 1024 * 1024


class MissingWrappedName(RuntimeError):
    """A name the benchmark wraps is no longer bound in iomma.cli."""


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {}
    for name, (layer, _, extra) in WRAPPED.items():
        prefix = f"{layer}.{name}"
        units[f"{prefix}.s"] = ("s", "lower")
        units[f"{prefix}.errors"] = ("count", "lower")
        for metric in extra:
            if metric.endswith("_per_s"):
                units[f"{prefix}.{metric}"] = ("1/s", "higher")
            elif metric == "alloc_peak_mb":
                units[f"{prefix}.{metric}"] = ("MB", "lower")
            elif metric == "proven_ratio":
                units[f"{prefix}.{metric}"] = ("ratio", "higher")
            else:
                units[f"{prefix}.{metric}"] = ("bytes" if metric == "bytes" else "count", "lower")
    units["cli.self_s"] = ("s", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    units["trace.untraced_wall_s"] = ("s", "lower")
    units["trace.reference_s"] = ("s", "lower")
    return units


class Tracer:
    """Records spans and counts while installed in the ``iomma.cli`` module."""

    def __init__(self, cli_module, memory: bool = False):
        self.cli = cli_module
        self.memory = memory
        # [name, request, parent index, start, end]
        self.spans: list[list] = []
        # request -> (function name -> count name -> total)
        self.counts: dict = defaultdict(lambda: defaultdict(Counter))
        self.errors: Counter = Counter()
        self.alloc_peak: dict[str, int] = defaultdict(int)  # span name -> bytes
        self.request = None
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` inside iomma.cli for the block."""
        missing = [name for name in WRAPPED if not callable(getattr(self.cli, name, None))]
        if missing:
            raise MissingWrappedName(
                f"iomma.cli no longer binds {', '.join(missing)}; "
                "update perfbench/spans.py WRAPPED rather than report zeros"
            )
        originals = {name: getattr(self.cli, name) for name in WRAPPED}
        for name, (layer, counter, extra) in WRAPPED.items():
            measure = self.memory and "alloc_peak_mb" in extra
            setattr(self.cli, name,
                    self._wrap(f"{layer}.{name}", name, originals[name], counter, measure))
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(self.cli, name, original)

    def _wrap(self, span_name, name, original, counter, measure_memory):
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                if measure_memory:
                    out = self._allocation_peak(span_name, original, args, kwargs)
                else:
                    out = original(*args, **kwargs)
            counts = self.counts[self.request][name]
            counts["calls"] += 1
            counts.update(counter(args, out))
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.request, parent, perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            self.spans[index][4] = perf_counter()
            self._stack.pop()

    def _allocation_peak(self, span_name, original, args, kwargs):
        # The CLI calls the wrapped functions one after another, never one
        # inside another, so each call owns tracemalloc while it runs.
        if tracemalloc.is_tracing():
            raise RuntimeError(f"{span_name} called while tracemalloc was already tracing")
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.alloc_peak[span_name] = max(self.alloc_peak[span_name], peak)

    def self_times(self) -> dict:
        """pass -> span name -> busy self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, request, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: defaultdict(float))
        for index, (name, request, parent, start, end) in enumerate(self.spans):
            totals[request[0]][name] += end - start - child_time[index]
        return totals

    def pass_counts(self) -> dict:
        """pass -> function name -> counts summed over the pass's commands."""
        per_pass: dict = defaultdict(lambda: defaultdict(Counter))
        for (pass_index, _), by_name in self.counts.items():
            for name, counts in by_name.items():
                per_pass[pass_index][name].update(counts)
        return per_pass

    def span_records(self) -> list[dict]:
        return [
            {"id": index, "parent": parent, "name": name, "pass": request[0],
             "command": request[1], "start": start, "end": end}
            for index, (name, request, parent, start, end) in enumerate(self.spans)
        ]


def layer_metrics(traced: Tracer, memory: Tracer) -> dict:
    """Per-layer metrics from traced passes and a tracemalloc pass.

    Busy times are medians over the traced passes; counts must repeat exactly
    from pass to pass, so later changes can cite them as counts.
    """
    self_times = traced.self_times()
    per_pass = traced.pass_counts()
    passes = sorted(self_times)
    first = per_pass.get(passes[0], {})
    for pass_index in passes[1:]:
        if per_pass.get(pass_index, {}) != first:
            raise RuntimeError(
                f"work counts differ between pass {passes[0]} and pass {pass_index}"
            )
    values: dict[str, float] = {}
    for name, (layer, _, extra) in WRAPPED.items():
        prefix = f"{layer}.{name}"
        busy = median(self_times[p].get(prefix, 0.0) for p in passes)
        counts = first.get(name, Counter())
        values[f"{prefix}.s"] = busy
        values[f"{prefix}.errors"] = traced.errors[prefix]
        for metric in extra:
            if metric == "alloc_peak_mb":
                values[f"{prefix}.{metric}"] = memory.alloc_peak.get(prefix, 0) / MB
            elif metric == "proven_ratio":
                calls = counts["calls"]
                values[f"{prefix}.{metric}"] = counts["proven"] / calls if calls else 0.0
            elif metric.endswith("_per_s"):
                work = counts[metric[: -len("_per_s")]]
                values[f"{prefix}.{metric}"] = work / busy if busy > 0 else 0.0
            else:
                values[f"{prefix}.{metric}"] = counts[metric]
    values["cli.self_s"] = median(
        sum(t for span, t in self_times[p].items() if span.startswith(CLI_SPAN_PREFIX))
        for p in passes
    )
    return values
