"""Batch experiment runner and trace replay.

One process executes many runs; every output is a pure function of the
command line (seeds included), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .analysis import RunReport, check_memory_bound, check_time_bound
from .engine import (
    SAFETY_FACTOR,
    AdversarialStalling,
    Algorithm,
    JsonlTraceWriter,
    MutexPolicy,
    RoundRobin,
    SchedulerPolicy,
    SeededRandom,
    run,
)
# perfbench/spans.py times this binding by name, as it does the engine's
# helping_*_step aliases; nothing in this module calls it
from .engine import trace_record_line  # noqa: F401
from .graph import (
    GraphError,
    InitialPlacement,
    PortLabeledGraph,
    generate,
    graph_from_text,
    graph_to_text,
)

__all__ = ["run_experiment", "replay", "trace_header", "main"]

GRAPH_CHOICES = ("line", "ring", "complete", "tree", "grid", "gnm")
PLACEMENT_CHOICES = ("colocated", "random", "distinct")

# `--scheduler` names and trace-header kinds of the scheduler policies; a
# header holds the kind plus the policy's fields, in field order
_SCHEDULERS = {
    "round-robin": RoundRobin,
    "random": SeededRandom,
    "adversarial": AdversarialStalling,
}

CSV_COLUMNS = (
    "run_id", "algorithm", "n", "m", "k", "delta", "seed", "dispersed",
    "rounds_or_events", "max_moves", "max_memory_bits", "max_stack_depth",
    "mutex_contentions",
)

# CLI graph names to generator family names
_FAMILY = {name: name for name in GRAPH_CHOICES} | {"tree": "random_tree"}


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit status 2)."""


class _Divergence(Exception):
    """The first event at which a replay differs from its trace."""


def _parse_placement(text: str) -> tuple[str, int]:
    """`--placement` as (mode, colocation node)."""
    mode, colon, suffix = text.partition(":")
    if mode not in PLACEMENT_CHOICES or (colon and mode != "colocated"):
        raise ConfigError(f"unknown placement {text!r}")
    try:
        return mode, int(suffix) if colon else 0
    except ValueError:
        raise ConfigError(f"bad colocated node {suffix!r}") from None


def _check_args(args: argparse.Namespace) -> None:
    """Raise ConfigError for an invalid `run` command line."""
    mode, node = _parse_placement(args.placement)
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if not 1 <= args.k <= args.n:
        raise ConfigError(f"--k must satisfy 1 <= k <= n; got k={args.k}, n={args.n}")
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    if args.graph == "gnm" and args.m is None:
        raise ConfigError("--graph gnm requires --m")
    if args.graph != "gnm" and args.m is not None:
        raise ConfigError("--m is only meaningful with --graph gnm")
    if Algorithm(args.algorithm).is_sync and args.scheduler is not None:
        raise ConfigError(
            f"--scheduler applies to asynchronous algorithms, not {args.algorithm}"
        )
    if mode == "colocated" and not 0 <= node < args.n:
        raise ConfigError(f"colocated placement node {node} outside 0..{args.n - 1}")


def _make_placement(
    args: argparse.Namespace, graph: PortLabeledGraph, rep_seed: int
) -> InitialPlacement:
    mode, node = _parse_placement(args.placement)
    if mode == "colocated":
        return InitialPlacement((node,) * args.k)
    rng = random.Random(f"{rep_seed}/placement")
    if mode == "random":
        return InitialPlacement(tuple(rng.randrange(graph.node_count) for _ in range(args.k)))
    return InitialPlacement(tuple(rng.sample(range(graph.node_count), args.k)))


def _make_scheduler(
    algorithm: Algorithm, name: str | None, rep_seed: int
) -> SchedulerPolicy | None:
    if algorithm.is_sync:
        return None
    policy = _SCHEDULERS[name or "round-robin"]
    return policy(seed=rep_seed) if policy is SeededRandom else policy()


def _bounds_ok(report: RunReport) -> bool:
    depth = report.max_stack_depth
    return (
        report.dispersed
        and check_time_bound(report)
        and check_memory_bound(report)
        and (depth is None or depth < report.robot_count)
    )


def trace_header(
    run_id: int,
    seed: int,
    algorithm: Algorithm,
    graph: PortLabeledGraph,
    placement: InitialPlacement,
    mutex: MutexPolicy,
    scheduler: SchedulerPolicy | None,
) -> str:
    """First line of a trace file, as compact JSON: everything replay needs
    to re-execute."""
    if scheduler is not None:
        for kind, policy in _SCHEDULERS.items():
            if isinstance(scheduler, policy):
                break
        else:
            raise ValueError(f"unknown scheduler policy {scheduler!r}")
        scheduler = {"kind": kind, **asdict(scheduler)}
    header = {
        "type": "config",
        "run_id": run_id,
        "algorithm": algorithm.value,
        "graph": graph_to_text(graph),
        "placement": list(placement.robot_positions),
        "mutex": mutex.value,
        "scheduler": scheduler,
        "safety_factor": SAFETY_FACTOR,
        "seed": seed,
    }
    return json.dumps(header, separators=(",", ":"))


def _conforms(value, kind) -> bool:
    """Whether a JSON value fits a field type built from int, str, dict,
    None, unions and tuple[X, ...] (a JSON list)."""
    if isinstance(kind, UnionType):
        return any(_conforms(value, k) for k in get_args(kind))
    if get_origin(kind) is tuple:
        return isinstance(value, list) and all(_conforms(v, get_args(kind)[0]) for v in value)
    return type(value) is kind


def _field(record: dict, name: str, kind, default=None):
    """``record[name]`` checked against a field type; lists become tuples."""
    value = record.get(name, default)
    if not _conforms(value, kind):
        raise ConfigError(f"bad {name!r}: {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _run_arguments(line: str) -> dict:
    """The arguments of `run` that a trace's config record describes."""
    header = json.loads(line)
    if not isinstance(header, dict) or header.get("type") != "config":
        raise ConfigError("first line is not a config record")
    scheduler = _field(header, "scheduler", dict | None)
    if scheduler is not None:
        kind = _field(scheduler, "kind", str)
        if kind not in _SCHEDULERS:
            raise ConfigError(f"unknown scheduler kind {kind!r}")
        policy = _SCHEDULERS[kind]
        types = get_type_hints(policy)
        scheduler = policy(
            **{f.name: _field(scheduler, f.name, types[f.name], f.default) for f in fields(policy)}
        )
    safety_factor = _field(header, "safety_factor", int, SAFETY_FACTOR)
    if safety_factor != SAFETY_FACTOR:
        raise ConfigError(f"bad 'safety_factor': {safety_factor!r} (the cap uses {SAFETY_FACTOR})")
    return {
        "graph": graph_from_text(_field(header, "graph", str)),
        "placement": InitialPlacement(_field(header, "placement", tuple[int, ...])),
        "algorithm": Algorithm(_field(header, "algorithm", str)),
        "mutex_policy": MutexPolicy(_field(header, "mutex", str)),
        "scheduler_policy": scheduler,
    }


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def run_experiment(args: argparse.Namespace) -> int:
    """Execute every repetition of a parsed `run` command line; returns the
    process exit status.

    0: every run dispersed and passed every bound check.
    1: some run failed a check (a pointer to it goes to stderr).
    2: the configuration is invalid, or a report or trace cannot be written.
    """
    try:
        _check_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    algorithm = Algorithm(args.algorithm)
    mutex = MutexPolicy(args.mutex)
    reports: list[RunReport] = []
    failures: list[tuple[int, str | None]] = []
    if args.trace is not None:
        try:
            args.trace.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(args.trace, exc)
    if args.out is not None:
        # refuse an unwritable report before the first run; append mode
        # leaves an existing file as it is until the report replaces it
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            return _cannot_write(args.out, exc)

    for rep in range(args.reps):
        rep_seed = args.seed + rep
        try:
            graph = generate(_FAMILY[args.graph], args.n, args.m, seed=rep_seed)
        except GraphError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        placement = _make_placement(args, graph, rep_seed)
        scheduler = _make_scheduler(algorithm, args.scheduler, rep_seed)

        sink = None
        if args.trace is not None:
            path = args.trace / f"run_{rep:03d}.jsonl"
            try:
                sink = JsonlTraceWriter(path)
            except OSError as exc:
                return _cannot_write(path, exc)
            sink(trace_header(rep, rep_seed, algorithm, graph, placement, mutex, scheduler))
        try:
            report = run(
                graph, placement, algorithm,
                scheduler_policy=scheduler, mutex_policy=mutex, trace_sink=sink,
            )
        finally:
            if sink is not None:
                sink.close()
        if not _bounds_ok(report):
            failures.append((rep, report.trace_path))
        reports.append(report)

    dispersed = sum(r.dispersed for r in reports)
    depths = [r.max_stack_depth for r in reports if r.max_stack_depth is not None]
    summary = {
        "runs": len(reports),
        "dispersed_runs": dispersed,
        "dispersion_rate": dispersed / len(reports),
        "max_rounds_or_events": max(r.duration for r in reports),
        "max_moves": max(r.max_moves for r in reports),
        "max_memory_bits": max(r.max_memory_bits for r in reports),
        "max_stack_depth": max(depths, default=None),
        "mutex_contentions": sum(r.mutex_contentions for r in reports),
        "bounds_ok": not failures,
    }
    document = _render(args, reports, summary)
    if args.out is not None:
        try:
            args.out.write_text(document, encoding="utf-8", newline="\n")
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        sys.stdout.write(document)
    print(json.dumps({"summary": summary}, separators=(",", ":")), file=sys.stderr)

    if failures:
        rep, trace = failures[0]
        where = f" (trace: {trace})" if trace else ""
        print(f"error: run {rep} violated dispersion or a bound check{where}", file=sys.stderr)
        return 1
    return 0


def _render(args: argparse.Namespace, reports: list[RunReport], summary: dict) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rep, report in enumerate(reports):
            depth = report.max_stack_depth
            writer.writerow((
                rep, report.algorithm, report.node_count, report.edge_count,
                report.robot_count, report.max_degree, args.seed + rep,
                "true" if report.dispersed else "false", report.duration,
                report.max_moves, report.max_memory_bits,
                "" if depth is None else depth, report.mutex_contentions,
            ))
        return buf.getvalue()
    doc = {
        "summary": summary,
        "runs": [
            {"run_id": rep, "seed": args.seed + rep, **report.to_dict()}
            for rep, report in enumerate(reports)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _compare(event: int, line: str, replayed: str | None) -> None:
    """Raise _Divergence unless a trace line ('' past the end of the file)
    holds the replayed line (None past the end of the run)."""
    recorded = line.rstrip("\n") if line else None
    if recorded != replayed:
        raise _Divergence(
            f"divergence at event {event}:\n"
            f"  recorded: {'<end of trace>' if recorded is None else recorded}\n"
            f"  replayed: {'<end of run>' if replayed is None else replayed}"
        )


def replay(trace_path: str | Path) -> int:
    """Re-execute a recorded run, comparing each event with the trace as the
    run produces it, and stop at the first difference.

    0: identical; 1: divergence (first differing event reported);
    2: malformed trace.
    """
    try:
        trace = open(trace_path, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    with trace:
        events = 0

        def compare(line: str) -> None:
            nonlocal events
            _compare(events, trace.readline(), line)
            events += 1

        try:
            header = trace.readline()
            if not header:
                print("error: empty trace file", file=sys.stderr)
                return 2
            # the engine rejects a configuration it cannot run (placement off
            # the graph, a scheduler on a synchronous algorithm, weights not
            # one per robot, an unsatisfiable fairness bound) with a
            # ValueError before its first event
            run(**_run_arguments(header), trace_sink=compare)
            _compare(events, trace.readline(), None)
        except _Divergence as exc:
            print(exc, file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: malformed trace: {exc}", file=sys.stderr)
            return 2
    print(f"replay OK: {events} events identical")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="Deterministic mobile-robot dispersion experiments on "
        "anonymous port-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a batch of seeded experiments")
    runp.add_argument("--algorithm", required=True, choices=[a.value for a in Algorithm])
    runp.add_argument("--graph", required=True, choices=GRAPH_CHOICES)
    runp.add_argument("--n", type=int, required=True, help="node count")
    runp.add_argument("--m", type=int, default=None, help="edge count (gnm only)")
    runp.add_argument("--k", type=int, required=True, help="robot count (k <= n)")
    runp.add_argument(
        "--placement",
        default="colocated",
        help="colocated[:NODE] | random | distinct (default colocated at node 0)",
    )
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument(
        "--scheduler",
        default=None,
        choices=tuple(_SCHEDULERS),
        help="asynchronous algorithms only (default round-robin)",
    )
    runp.add_argument("--mutex", default="lowest-label", choices=[p.value for p in MutexPolicy])
    runp.add_argument("--reps", type=int, default=1)
    runp.add_argument("--out", type=Path, default=None, help="report file (default stdout)")
    runp.add_argument("--trace", type=Path, default=None, help="directory for JSONL traces")
    runp.add_argument("--format", default="json", choices=("json", "csv"))

    repp = sub.add_parser("replay", help="re-execute a trace and verify it")
    repp.add_argument("trace", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "replay":
        return replay(args.trace)
    return run_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
