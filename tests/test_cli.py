from __future__ import annotations

import csv
import io
import json

import pytest

from dispersim import cli
from dispersim.engine import Algorithm, MutexPolicy, run
from dispersim.graph import InitialPlacement, generate


def run_cli(*args):
    return cli.main(list(args))


BASE = [
    "run",
    "--algorithm", "independent-async",
    "--graph", "ring",
    "--n", "8",
    "--k", "5",
    "--placement", "random",
    "--seed", "1",
    "--scheduler", "round-robin",
    "--reps", "20",
]


def test_batch_run_disperses_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = run_cli(*BASE, "--out", str(out))
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["runs"] == 20
    assert doc["summary"]["dispersed_runs"] == 20
    assert doc["summary"]["dispersion_rate"] == 1.0
    assert doc["summary"]["bounds_ok"] is True
    assert len(doc["runs"]) == 20
    assert all(r["dispersed"] for r in doc["runs"])


def test_k_larger_than_n_is_rejected(capsys):
    status = run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "line",
        "--n", "5", "--k", "10",
    )
    assert status == 2
    assert "k" in capsys.readouterr().err


def test_scheduler_rejected_for_sync_algorithm(capsys):
    status = run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "line",
        "--n", "5", "--k", "3", "--scheduler", "random",
    )
    assert status == 2
    assert "scheduler" in capsys.readouterr().err


def test_gnm_requires_m(capsys):
    status = run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "gnm",
        "--n", "8", "--k", "3",
    )
    assert status == 2
    assert "--m" in capsys.readouterr().err


def test_same_command_twice_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    trace = tmp_path / "t"
    args = BASE[:-2] + ["--reps", "5", "--trace", str(trace)]
    assert run_cli(*args, "--out", str(out1)) == 0
    first_traces = {
        name: (trace / name).read_bytes()
        for name in ("run_000.jsonl", "run_004.jsonl")
    }
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    for name, blob in first_traces.items():
        assert (trace / name).read_bytes() == blob


def test_csv_output_columns_and_aggregates(tmp_path):
    out = tmp_path / "report.csv"
    status = run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "gnm",
        "--n", "9", "--m", "16", "--k", "6", "--placement", "distinct",
        "--seed", "3", "--reps", "8", "--format", "csv", "--out", str(out),
    )
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert list(rows[0].keys()) == list(cli.CSV_COLUMNS)
    assert len(rows) == 8
    assert all(r["dispersed"] == "true" for r in rows)
    assert all(r["algorithm"] == "helping-sync" for r in rows)
    assert all(r["max_stack_depth"] == "" for r in rows)  # helping family
    assert [int(r["run_id"]) for r in rows] == list(range(8))
    assert [int(r["seed"]) for r in rows] == list(range(3, 11))


def test_summary_matches_recomputation_from_runs(tmp_path):
    out = tmp_path / "report.json"
    run_cli(
        "run", "--algorithm", "independent-async", "--graph", "tree",
        "--n", "10", "--k", "7", "--placement", "random", "--seed", "5",
        "--scheduler", "adversarial", "--reps", "10", "--out", str(out),
    )
    doc = json.loads(out.read_text())
    runs = doc["runs"]
    summary = doc["summary"]
    assert summary["dispersed_runs"] == sum(1 for r in runs if r["dispersed"])
    assert summary["max_rounds_or_events"] == max(r["events_elapsed"] for r in runs)
    assert summary["max_memory_bits"] == max(
        max(rb["peak_memory_bits"] for rb in r["robots"]) for r in runs
    )
    assert summary["max_stack_depth"] == max(
        max(rb["peak_stack_depth"] for rb in r["robots"]) for r in runs
    )


def test_colocated_placement_with_node_suffix(tmp_path):
    out = tmp_path / "r.json"
    status = run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "line",
        "--n", "6", "--k", "3", "--placement", "colocated:5",
        "--out", str(out),
    )
    assert status == 0
    doc = json.loads(out.read_text())
    # all robots start at node 5; the first docks there
    assert 5 in doc["runs"][0]["final_positions"]


def test_bad_placement_is_rejected(capsys):
    assert run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "line",
        "--n", "6", "--k", "3", "--placement", "colocated:9",
    ) == 2
    assert run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "line",
        "--n", "6", "--k", "3", "--placement", "somewhere",
    ) == 2
    # an empty node is refused, not read as node 0
    assert run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "line",
        "--n", "6", "--k", "3", "--placement", "colocated:",
    ) == 2
    assert "bad colocated node ''" in capsys.readouterr().err


def test_stdout_output_when_no_out_file(capsys):
    status = run_cli(
        "run", "--algorithm", "helping-async", "--graph", "complete",
        "--n", "4", "--k", "4", "--seed", "2",
    )
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["runs"] == 1


@pytest.mark.parametrize("option", ["--out", "--trace"])
def test_unwritable_output_path_is_a_diagnostic(tmp_path, capsys, option):
    # --out names a directory, --trace a file: neither can be written
    target = tmp_path / "target"
    extra = []
    if option == "--out":
        target.mkdir()
        # a run that started would leave its trace here
        extra = ["--trace", str(tmp_path / "traces")]
    else:
        target.write_text("")
    assert run_cli(*BASE, *extra, option, str(target)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert "summary" not in err  # rejected before the first run
    assert not list(tmp_path.glob("traces/*"))


def test_replay_fresh_trace_is_identical(tmp_path, capsys):
    trace = tmp_path / "traces"
    run_cli(
        "run", "--algorithm", "independent-async", "--graph", "gnm",
        "--n", "10", "--m", "10", "--k", "6", "--placement", "random",
        "--seed", "7", "--scheduler", "random", "--reps", "2",
        "--trace", str(trace), "--out", str(tmp_path / "r.json"),
    )
    for name in ("run_000.jsonl", "run_001.jsonl"):
        assert run_cli("replay", str(trace / name)) == 0
        assert "replay OK" in capsys.readouterr().out


def test_replay_detects_tampered_event(tmp_path, capsys):
    trace = tmp_path / "traces"
    run_cli(
        "run", "--algorithm", "helping-sync", "--graph", "ring",
        "--n", "6", "--k", "4", "--seed", "9",
        "--trace", str(trace), "--out", str(tmp_path / "r.json"),
    )
    path = trace / "run_000.jsonl"
    lines = path.read_text().splitlines()
    idx = 3  # tamper one event record
    original = lines[idx]
    record = json.loads(original)
    record["node"] = record["node"] + 1
    lines[idx] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(path)) == 1
    err = capsys.readouterr().err
    assert f"divergence at event {idx - 1}" in err
    assert f"\n  recorded: {lines[idx]}\n" in err
    assert f"\n  replayed: {original}\n" in err


def test_replay_rejects_malformed_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"event"}\n')
    assert run_cli("replay", str(path)) == 2
    path.write_text("")
    assert run_cli("replay", str(path)) == 2
    assert run_cli("replay", str(tmp_path / "missing.jsonl")) == 2


def _traced_run(tmp_path, *args):
    trace = tmp_path / "traces"
    status = run_cli(*args, "--trace", str(trace), "--out", str(tmp_path / "r.json"))
    assert status == 0
    return trace / "run_000.jsonl"


ADVERSARIAL_RUN = (
    "run", "--algorithm", "independent-async", "--graph", "ring",
    "--n", "6", "--k", "3", "--seed", "4", "--scheduler", "adversarial",
)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda h: {**h, "placement": [0, 0, 99]}, id="placement-off-graph"),
        pytest.param(
            lambda h: {**h, "scheduler": {**h["scheduler"], "weights": 5}},
            id="weights-not-a-list",
        ),
        pytest.param(
            lambda h: {**h, "scheduler": {**h["scheduler"], "weights": [1, 2]}},
            id="weights-not-one-per-robot",
        ),
        pytest.param(lambda h: {**h, "safety_factor": "x"}, id="safety-factor-not-an-int"),
        pytest.param(lambda h: {**h, "safety_factor": 0}, id="safety-factor-zero"),
        pytest.param(lambda h: {**h, "safety_factor": -1}, id="safety-factor-negative"),
        pytest.param(lambda h: {**h, "safety_factor": 5}, id="safety-factor-not-the-cap"),
        pytest.param(
            lambda h: {**h, "algorithm": "independent-sync"}, id="scheduler-on-sync-algorithm"
        ),
        pytest.param(lambda h: [1, 2], id="not-a-record"),
        pytest.param(
            lambda h: {**h, "graph": h["graph"] + h["graph"].splitlines()[-1] + "\n"},
            id="graph-with-a-second-port-line",
        ),
        # refused from the edge count, before anything is built per node
        pytest.param(
            lambda h: {**h, "graph": "1000000000 0\n"}, id="graph-that-cannot-be-connected"
        ),
    ],
)
def test_replay_rejects_malformed_header(tmp_path, capsys, edit):
    path = _traced_run(tmp_path, *ADVERSARIAL_RUN)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["scheduler"]["kind"] == "adversarial"
    lines[0] = json.dumps(edit(json.loads(lines[0])))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("replay", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: malformed trace: ")


def test_trace_header_rejects_an_unknown_scheduler_like_the_engine():
    graph, placement, scheduler = generate("ring", 4), InitialPlacement((0, 0)), object()
    args = (Algorithm.INDEPENDENT_ASYNC, graph, placement, MutexPolicy.LOWEST_LABEL, scheduler)
    with pytest.raises(ValueError, match="unknown scheduler policy") as header_error:
        cli.trace_header(0, 0, *args)
    with pytest.raises(ValueError, match="unknown scheduler policy") as engine_error:
        run(graph, placement, args[0], scheduler, args[3])
    assert str(header_error.value) == str(engine_error.value)


@pytest.mark.parametrize("algorithm", ["helping-sync", "independent-async"])
@pytest.mark.parametrize("edit", ["drop-last-event", "repeat-last-event"])
def test_replay_detects_a_trace_of_the_wrong_length(tmp_path, capsys, algorithm, edit):
    path = _traced_run(
        tmp_path, "run", "--algorithm", algorithm, "--graph", "ring",
        "--n", "6", "--k", "4", "--seed", "9",
    )
    lines = path.read_text().splitlines()
    events = len(lines) - 1
    if edit == "drop-last-event":
        lines, expected = lines[:-1], (events - 1, "recorded: <end of trace>")
    else:
        lines, expected = lines + lines[-1:], (events, "replayed: <end of run>")
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("replay", str(path)) == 1
    err = capsys.readouterr().err
    assert f"divergence at event {expected[0]}:" in err
    assert expected[1] in err
