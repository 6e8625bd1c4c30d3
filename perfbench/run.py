"""Benchmark of the dispersim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, from the checkout's `src/`, for at least
S seconds of whole rounds, checks every output, and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are per-layer call
counts and self times from spans around dispersim's public functions.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from spans import HELP_RECORDS, SPAN_NAMES, TRACE_BYTES, Spans, Timeline
from workloads import WORKLOADS, Env, build_graphs, graph_inputs, make_workload, run_round

ROOT = Path(__file__).resolve().parent.parent
# set-ups before the first round; an untraced run sets up again after each
# round, so that the median set-up time samples the whole run
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sync_steps_per_s": "steps/s",
    "async_steps_per_s": "steps/s",
    "trace_events_per_s": "events/s",
    "replay_events_per_s": "events/s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[HELP_RECORDS] = "count"
    units[TRACE_BYTES] = "bytes"
    units["tracing_overhead"] = "ratio"
    return units


class ProgramMissing(RuntimeError):
    """The checkout has no importable dispersim under src/."""


def import_dispersim(root: Path) -> SimpleNamespace:
    """Import dispersim afresh from `root/src`, dropping any earlier import."""
    src = root / "src"
    for name in [n for n in sys.modules if n == "dispersim" or n.startswith("dispersim.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("dispersim.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import dispersim from {src}: {exc}") from None
    found = Path(sys.modules["dispersim"].__file__).resolve().parent
    if found != (src / "dispersim").resolve():
        raise ProgramMissing(f"dispersim was imported from {found}, not from {src}")
    return SimpleNamespace(
        graph=sys.modules["dispersim.graph"], engine=sys.modules["dispersim.engine"], cli=cli
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 root: Path = ROOT, tiny: bool = False) -> dict:
    workload = make_workload(name, seed, tiny)
    setup_times = []

    def setup():
        t0 = time.perf_counter()
        modules = import_dispersim(root)
        built = build_graphs(modules, workload)
        setup_times.append(time.perf_counter() - t0)
        return modules, built

    for _ in range(SETUP_REPEATS):
        modules, built = setup()
    timeline = Timeline()
    timeline.install(modules)
    inputs = graph_inputs(workload, built)
    del built

    env = Env(modules, timeline, Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root)))
    rounds = []
    build_layers = {}
    try:
        deadline = time.perf_counter() + seconds
        if traced:
            # one untraced round is the reference for the tracing overhead
            rounds.append(run_round(env, workload, inputs, 0))
            env.spans = Spans()
            env.spans.install(modules)
            inputs = graph_inputs(workload, build_graphs(modules, workload))
            build_layers = env.spans.fold()
        while len(rounds) < 1 + traced or time.perf_counter() < deadline:
            rounds.append(run_round(env, workload, inputs, len(rounds)))
            if not traced:
                setup()  # timed only: the rounds keep the modules they have
    finally:
        shutil.rmtree(env.tmp, ignore_errors=True)

    tallies = [r[0] for r in rounds]
    for problem in [p for t in tallies for p in t.problems][:5]:
        print(f"failed: {problem}", file=sys.stderr)
    if tallies[0].traces:
        print(f"trace sha256 {tallies[0].trace_digest.hexdigest()} "
              f"over {tallies[0].traces} traces of round 0", file=sys.stderr)
    # every round repeats the same operations, so their outputs must match
    correct = len({t.output_digest.hexdigest() for t in tallies}) == 1

    if traced:
        metrics, repeatable = _per_layer(rounds, build_layers)
        correct = correct and repeatable
    else:
        metrics, aligned = _end_to_end(rounds, statistics.median(setup_times))
        correct = correct and aligned
    return {
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }


def _stretch_times(rounds):
    """Prefix sums of each stretch's median time across the rounds, so that
    the time between stamps i and j is `at[j] - at[i]`; None when the
    rounds did not stamp the same points."""
    stamps = [r[1] for r in rounds]
    if len({len(s) for s in stamps}) != 1:
        return None
    at = [0.0]
    for j in range(len(stamps[0]) - 1):
        at.append(at[-1] + statistics.median(s[j + 1] - s[j] for s in stamps))
    return at


def _end_to_end(rounds, setup_s: float) -> tuple[dict, bool]:
    """Times are sums of stretches between stamps, each stretch at its
    median across the rounds; see `Timeline`."""
    at = _stretch_times(rounds)
    if at is None:
        return {}, False
    tally = rounds[0][0]

    def seconds(spans) -> float:
        return sum(at[last] - at[first] for first, last in spans)

    def steps_per_s(kind: str) -> float:
        runs = [r for r in tally.engine_runs if r[0] == kind]
        return _ratio(sum(r[3] for r in runs), seconds((r[1], r[2]) for r in runs))

    values = {
        "wall_s": setup_s + at[-1],
        "setup_s": setup_s,
        "sync_steps_per_s": steps_per_s("sync"),
        "async_steps_per_s": steps_per_s("async"),
        "trace_events_per_s": _ratio(tally.trace_events, seconds(tally.trace_runs)),
        "replay_events_per_s": _ratio(tally.replay_events, seconds(tally.replays)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, True


def _per_layer(rounds, build_layers: dict) -> tuple[dict, bool]:
    """Per pass (one input build plus one round): calls and self time of each
    span name, the exact work counts, and traced / untraced round time."""
    med = statistics.median
    traced = [r[0] for r in rounds[1:]]
    first = traced[0].layers
    repeatable = all(
        t.layers[n][0] == first[n][0] and t.trace_bytes == traced[0].trace_bytes
        for t in traced for n in first
    )
    values = {}
    for name in SPAN_NAMES:
        built = build_layers.get(name, [0, 0.0])
        values[f"{name}.calls"] = first[name][0] + built[0]
        values[f"{name}.self_s"] = med(t.layers[name][1] for t in traced) + built[1]
    values[HELP_RECORDS] = first[HELP_RECORDS][0]
    values[TRACE_BYTES] = traced[0].trace_bytes
    values["tracing_overhead"] = med(r[2] for r in rounds[1:]) / rounds[0][2]
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}, repeatable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
