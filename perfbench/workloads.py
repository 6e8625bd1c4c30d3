"""The three workloads: their inputs, made from the seed, and one round.

A round runs every operation of a workload once and checks each output with
`checks`. An operation is one simulation run (library call or one repetition
of a `dispersim run` batch) or one `dispersim replay`. Every round of a run
does exactly the same operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import audit_trace, check_report, expected_edge_count, graph_facts, parse_graph_text

ALGORITHMS = ("helping-sync", "helping-async", "independent-sync", "independent-async")


@dataclass(frozen=True)
class LibraryRun:
    """One `run_sync` / `run_async` call on a graph the set-up built."""

    graph: str
    algorithm: str
    mutex: str
    scheduler: str | None = None  # async only: "random" or "adversarial"


@dataclass(frozen=True)
class CliRun:
    """One `dispersim run --trace` batch, each repetition then replayed."""

    graph: str
    n: int
    m: int | None
    k: int
    algorithm: str
    mutex: str
    scheduler: str | None
    reps: int
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    # key -> (generator family, n, m, seed, k); k robots colocated at node 0
    graphs: dict[str, tuple[str, int, int | None, int, int]]
    library_runs: tuple[LibraryRun, ...]
    cli_runs: tuple[CliRun, ...]


def _colocated_dense(rng: random.Random, tiny: bool) -> Workload:
    # k = n: the per-step scans over all k robots dominate. Two draws of each
    # graph family average out how much the work depends on the seed.
    n_tree, n_grid, n_cli = (24, 25, 12) if tiny else (200, 196, 100)
    graphs = {
        "tree-a": ("random_tree", n_tree, None, rng.randrange(1 << 30), n_tree),
        "tree-b": ("random_tree", n_tree, None, rng.randrange(1 << 30), n_tree),
        "grid-a": ("grid", n_grid, None, rng.randrange(1 << 30), n_grid),
        "grid-b": ("grid", n_grid, None, rng.randrange(1 << 30), n_grid),
    }
    runs = (
        LibraryRun("tree-a", "helping-sync", "lowest-label"),
        LibraryRun("tree-b", "independent-async", "earliest-arrival", "random"),
        LibraryRun("grid-a", "independent-sync", "earliest-arrival"),
        LibraryRun("grid-b", "helping-async", "lowest-label", "adversarial"),
    )
    cli = (CliRun("tree", n_cli, None, n_cli, "independent-async", "earliest-arrival",
                  "random", 1, rng.randrange(1 << 30)),)
    return Workload("colocated-dense", graphs, runs, cli)


def _sparse_large(rng: random.Random, tiny: bool) -> Workload:
    # k << n: the O(n) scans per step and graph generation dominate. Each
    # algorithm runs once, so that a round is short and a run holds many;
    # the sync pair and the async pair each cover both families.
    n_grid, n_gnm, k = (100, 60, 8) if tiny else (4096, 1500, 64)
    graphs = {
        "grid": ("grid", n_grid, None, rng.randrange(1 << 30), k),
        "gnm": ("gnm", n_gnm, 4 * n_gnm, rng.randrange(1 << 30), k),
    }
    runs = tuple(
        LibraryRun(graph, alg, mutex, None if alg.endswith("-sync") else "random")
        for graph, alg, mutex in zip(("grid", "gnm", "gnm", "grid"), ALGORITHMS,
                                     ("lowest-label", "earliest-arrival") * 2)
    )
    cli = (CliRun("grid", n_grid, None, k, "independent-sync", "lowest-label",
                  None, 1, rng.randrange(1 << 30)),)
    return Workload("sparse-large", graphs, runs, cli)


def _batch_traced(rng: random.Random, tiny: bool) -> Workload:
    # many small traced runs: fixed per-run costs dominate
    n, reps = (12, 1) if tiny else (48, 2)
    schedulers = ("round-robin", "random", "adversarial", "random")
    cli = []
    for gi, graph in enumerate(("ring", "grid", "tree", "gnm")):
        for ai, alg in enumerate(ALGORITHMS):
            cli.append(CliRun(
                graph, n, 2 * n if graph == "gnm" else None, n, alg,
                ("lowest-label", "earliest-arrival")[(gi + ai) % 2],
                None if alg.endswith("-sync") else schedulers[gi],
                reps, rng.randrange(1 << 30),
            ))
    return Workload("batch-traced", {}, (), tuple(cli))


WORKLOADS = {
    "colocated-dense": _colocated_dense,
    "sparse-large": _sparse_large,
    "batch-traced": _batch_traced,
}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), tiny)


def build_graphs(modules, workload: Workload) -> dict:
    """The set-up: every graph and placement the library runs use."""
    out = {}
    for key, (family, n, m, seed, k) in workload.graphs.items():
        graph = modules.graph.generate(family, n, m, seed=seed, ports="random")
        out[key] = (graph, modules.graph.InitialPlacement((0,) * k))
    return out


def graph_inputs(workload: Workload, built: dict) -> dict:
    """Attach the benchmark's own facts about each built graph."""
    inputs = {}
    for key, (graph, placement) in built.items():
        family, n, m, seed, _ = workload.graphs[key]
        facts = graph_facts(graph.ports, n, expected_edge_count(family, n, m))
        inputs[key] = (graph, placement, facts, seed)
    return inputs


@dataclass
class Tally:
    """What one round did: operations, engine and trace timings, digests."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # (kind, first stamp, last stamp, steps) of the engine runs that count
    engine_runs: list = field(default_factory=list)
    # (first stamp, last stamp) of each `dispersim run` and `dispersim replay`
    trace_runs: list = field(default_factory=list)
    replays: list = field(default_factory=list)
    trace_events: int = 0
    replay_events: int = 0
    trace_bytes: int = 0
    traces: int = 0
    trace_digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    output_digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    layers: dict = field(default_factory=dict)
    fold_s: float = 0.0

    def op(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")


class Env:
    """What the operations of a run share."""

    def __init__(self, modules, timeline, tmp: Path) -> None:
        self.modules = modules
        self.timeline = timeline
        self.tmp = tmp
        self.spans = None


def _family(algorithm: str) -> str:
    return algorithm.split("-", 1)[0]


def _fold_spans(env: Env, tally: Tally) -> None:
    if env.spans is None:
        return
    t0 = time.perf_counter()
    for name, (calls, self_s) in env.spans.fold().items():
        acc = tally.layers.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
    tally.fold_s += time.perf_counter() - t0


def _library_op(env: Env, run: LibraryRun, inputs: dict, tally: Tally) -> None:
    m = env.modules
    graph, placement, facts, seed = inputs[run.graph]
    sync = run.algorithm.endswith("-sync")
    mutex = m.engine.MutexPolicy(run.mutex)
    runs = env.timeline.engine_runs
    before = len(runs)
    try:
        if sync:
            report = m.engine.run_sync(graph, placement, run.algorithm, mutex)
        else:
            scheduler = (m.engine.SeededRandom(seed=seed) if run.scheduler == "random"
                         else m.engine.AdversarialStalling())
            report = m.engine.run_async(graph, placement, run.algorithm, scheduler, mutex)
    except Exception:
        tally.op(f"{run}", [traceback.format_exc(limit=-1)])
        return
    tally.engine_runs.extend(runs[before:])
    doc = report.to_dict()
    tally.output_digest.update(json.dumps(doc, sort_keys=True).encode())
    problems = check_report(doc, facts, placement.robot_positions, _family(run.algorithm), sync)
    tally.op(f"{run}", problems)


def _cli_argv(spec: CliRun, out: Path) -> list[str]:
    argv = ["run", "--algorithm", spec.algorithm, "--graph", spec.graph,
            "--n", str(spec.n), "--k", str(spec.k), "--seed", str(spec.seed),
            "--reps", str(spec.reps), "--mutex", spec.mutex,
            "--trace", str(out / "traces"), "--out", str(out / "report.json")]
    if spec.m is not None:
        argv += ["--m", str(spec.m)]
    if spec.scheduler is not None:
        argv += ["--scheduler", spec.scheduler]
    return argv


def _check_cli_rep(spec: CliRun, sync: bool, data: bytes, report: dict):
    """Check one repetition's report against the graph in its trace header,
    and audit the trace; returns (problems, trace events, report)."""
    lines = data.decode().splitlines()
    header = json.loads(lines[0])
    tables, text_problems = parse_graph_text(header["graph"])
    facts = graph_facts(tables, spec.n, expected_edge_count(spec.graph, spec.n, spec.m))
    facts.problems.extend(text_problems)
    report = dict(report)
    problems = check_report(report, facts, header["placement"], _family(spec.algorithm), sync)
    audit, events = audit_trace(lines, spec.k, sync)
    expected = (sum(r["active_iterations"] for r in report["robots"]) if sync
                else report["events_elapsed"])
    if events != expected:
        audit.append(f"trace has {events} events, report implies {expected}")
    return problems + audit, events, report


def _cli_ops(env: Env, spec: CliRun, out: Path, tally: Tally, count_engine: bool) -> None:
    cli = env.modules.cli
    sync = spec.algorithm.endswith("-sync")
    timeline = env.timeline
    before = len(timeline.engine_runs)
    first = timeline.mark()
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main(_cli_argv(spec, out))
        span = (first, timeline.mark())
        doc = json.loads((out / "report.json").read_text()) if status == 0 else None
    except Exception:
        status, doc, err = -1, None, io.StringIO(traceback.format_exc(limit=-1))
    if count_engine:
        tally.engine_runs.extend(timeline.engine_runs[before:])

    traces = []
    for rep in range(spec.reps):
        what = f"{spec} rep {rep}"
        if doc is None:
            tally.op(what, [f"dispersim run exited {status}: {err.getvalue()[-200:]}"])
            traces.append(None)
            continue
        path = out / "traces" / f"run_{rep:03d}.jsonl"
        try:
            data = path.read_bytes()
            problems, events, report = _check_cli_rep(spec, sync, data, doc["runs"][rep])
        except Exception:
            tally.op(what, [traceback.format_exc(limit=-1)])
            traces.append(None)
            continue
        tally.op(what, problems)
        report.pop("trace")
        tally.output_digest.update(json.dumps(report, sort_keys=True).encode() + data)
        tally.trace_digest.update(data)
        tally.traces += 1
        tally.trace_bytes += len(data)
        tally.trace_events += events
        traces.append((path, events))
    if doc is not None:
        tally.trace_runs.append(span)

    for rep, trace in enumerate(traces):
        what = f"replay of {spec} rep {rep}"
        if trace is None:
            tally.op(what, ["no trace to replay"])
            continue
        path, events = trace
        first = timeline.mark()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main(["replay", str(path)])
        tally.replays.append((first, timeline.mark()))
        tally.replay_events += events
        tally.op(what, [] if status == 0 else [f"replay exited {status}: {err.getvalue()[-200:]}"])


def run_round(env: Env, workload: Workload, inputs: dict, index: int):
    """Run every operation once; returns the tally, the round's time stamps
    and its wall seconds, without the time spent folding spans."""
    tally = Tally()
    out = env.tmp / f"round{index}"
    # steps/s come from the library runs when the workload has any
    cli_engine = not workload.library_runs
    env.timeline.take()
    env.timeline.mark()
    for run in workload.library_runs:
        _library_op(env, run, inputs, tally)
        _fold_spans(env, tally)
    for i, spec in enumerate(workload.cli_runs):
        _cli_ops(env, spec, out / str(i), tally, cli_engine)
        _fold_spans(env, tally)
    env.timeline.mark()
    stamps, _ = env.timeline.take()
    shutil.rmtree(out, ignore_errors=True)
    return tally, stamps, stamps[-1] - stamps[0] - tally.fold_s
