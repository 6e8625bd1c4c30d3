"""Timing wrappers the benchmark installs on dispersim's public functions.

`Timeline` stamps the time at fixed points of the work (each engine run and
every few dozen steps inside it); it is installed in every run. `Spans` is
installed only in a traced run: it records one span (name, start,
end, parent) per call of each function in `BINDINGS`, keeps them in memory
and folds them into per-function call counts and self time.

Each binding is the module attribute or class attribute the caller reads,
so `engine.independent_step` is wrapped, not `algorithms.independent_step`.
"""

from __future__ import annotations

import time
from array import array

# (span name, owner, attribute); an owner is a module key or "module.Class"
BINDINGS = (
    ("graph.generate", "graph", "generate"),
    ("graph.generate", "cli", "generate"),
    ("graph.build_graph", "graph", "build_graph"),
    ("graph.PortLabeledGraph.validate", "graph.PortLabeledGraph", "validate"),
    ("graph.PortLabeledGraph.max_degree", "graph.PortLabeledGraph", "max_degree"),
    ("graph.PortLabeledGraph.traverse", "graph.PortLabeledGraph", "traverse"),
    ("graph.graph_to_text", "cli", "graph_to_text"),
    ("graph.graph_from_text", "cli", "graph_from_text"),
    ("agents.memory_bits_helping", "engine", "memory_bits_helping"),
    ("agents.memory_bits_independent", "engine", "memory_bits_independent"),
    ("algorithms.helping_sync_step", "engine", "helping_sync_step"),
    ("algorithms.helping_async_step", "engine", "helping_async_step"),
    ("algorithms.independent_step", "engine", "independent_step"),
    ("algorithms.settled_service", "engine", "settled_service"),
    ("engine.WorldState.local_view", "engine.WorldState", "local_view"),
    ("engine.WorldState.robots_at", "engine.WorldState", "robots_at"),
    ("engine.WorldState.contenders_at", "engine.WorldState", "contenders_at"),
    ("engine.WorldState.apply_state", "engine.WorldState", "apply_state"),
    ("engine.WorldState.dock", "engine.WorldState", "dock"),
    ("engine.WorldState.settle_in_absentia", "engine.WorldState", "settle_in_absentia"),
    ("engine.WorldState.move_robot", "engine.WorldState", "move_robot"),
    ("engine.arbitrate_mutex", "engine", "arbitrate_mutex"),
    ("engine.apply_moves_single_lane", "engine", "apply_moves_single_lane"),
    ("engine.run_sync", "engine", "run_sync"),
    ("engine.run_async", "engine", "run_async"),
    ("engine.trace_record_line", "engine", "trace_record_line"),
    ("engine.trace_record_line", "cli", "trace_record_line"),
    ("engine.JsonlTraceWriter.__call__", "engine.JsonlTraceWriter", "__call__"),
    ("analysis.check_dispersion", "engine", "check_dispersion"),
    ("analysis.check_time_bound", "cli", "check_time_bound"),
    ("analysis.check_memory_bound", "cli", "check_memory_bound"),
    ("cli.run_experiment", "cli", "run_experiment"),
    ("cli.replay", "cli", "replay"),
    ("cli.trace_header", "cli", "trace_header"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in BINDINGS))

# exact work counts kept beside the spans
HELP_RECORDS = "algorithms.help_records"
TRACE_BYTES = "engine.trace_bytes"


def _owner(modules, owner: str):
    module, _, cls = owner.partition(".")
    target = getattr(modules, module)
    return getattr(target, cls) if cls else target


def _rebind(modules, owner: str, attr: str, wrap) -> None:
    """Replace one binding by `wrap(original)`; properties wrap their getter."""
    target = _owner(modules, owner)
    original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
    if isinstance(original, property):
        setattr(target, attr, property(wrap(original.fget)))
    else:
        setattr(target, attr, wrap(original))


class Timeline:
    """Time stamps of one round, at the same points of the work in every
    round: wherever the benchmark calls `mark`, at entry to and exit from
    each engine run, and after every `BLOCK` step-function calls.

    Because every round repeats the same work, stretch j between stamps j
    and j+1 is the same work in every round, and its median time across
    rounds discounts a burst of slowness in any one round.
    """

    BLOCK = 64
    STEP_FUNCTIONS = ("helping_sync_step", "helping_async_step", "independent_step")

    def __init__(self) -> None:
        self.stamps = array("d")
        self.engine_runs: list[tuple[str, int, int, int]] = []
        self._calls = 0

    def install(self, modules) -> None:
        for kind in ("sync", "async"):
            _rebind(modules, "engine", f"run_{kind}", lambda fn, kind=kind: self._engine(kind, fn))
        for name in self.STEP_FUNCTIONS:
            _rebind(modules, "engine", name, self._step)

    def mark(self) -> int:
        self.stamps.append(time.perf_counter())
        return len(self.stamps) - 1

    def take(self) -> tuple[array, list]:
        """The stamps and engine runs of the round so far; starts a new one."""
        out = self.stamps, self.engine_runs
        self.stamps, self.engine_runs, self._calls = array("d"), [], 0
        return out

    def _engine(self, kind: str, fn):
        def timed(*args, **kwargs):
            first = self.mark()
            report = fn(*args, **kwargs)
            last = self.mark()
            steps = sum(r.active_iterations for r in report.robots)
            self.engine_runs.append((kind, first, last, steps))
            return report

        return timed

    def _step(self, fn):
        block = self.BLOCK
        perf = time.perf_counter

        def step(*args):
            self._calls += 1
            if self._calls % block == 0:
                self.stamps.append(perf())
            return fn(*args)

        return step


class Spans:
    """In-memory span log: parallel arrays of name id, parent index, start
    and end. Spans nest because the program is single-threaded."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.help_records = 0

    def install(self, modules) -> None:
        for name, owner, attr in BINDINGS:
            _rebind(modules, owner, attr, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        perf = time.perf_counter
        count_help = name.startswith("algorithms.helping_")

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            start.append(0.0)
            end.append(0.0)
            open_.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                start[i] = t0
                open_.pop()
            if count_help:
                self.help_records += len(result[2])
            return result

        return traced

    def fold(self) -> dict[str, list]:
        """Calls and self seconds per span name, and the help-record count,
        since the last fold; a span's self time is its duration minus the
        durations of its children."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(len(name_id)):
            d = end[i] - start[i]
            nid = name_id[i]
            calls[nid] += 1
            self_s[nid] += d
            p = parent[i]
            if p >= 0:
                self_s[name_id[p]] -= d
        for arr in (name_id, parent, start, end):
            del arr[:]
        folded = {name: [calls[i], self_s[i]] for i, name in enumerate(self.names)}
        folded[HELP_RECORDS] = [self.help_records, 0.0]
        self.help_records = 0
        return folded
