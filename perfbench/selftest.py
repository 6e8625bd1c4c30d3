"""Self-test of the benchmark: its checks reject tampered outputs, and every
workload runs once at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Exits 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import audit_trace, check_report, expected_edge_count, graph_facts
from run import END_TO_END, ROOT, ProgramMissing, import_dispersim, per_layer_units, run_workload
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(problems: list, what: str) -> None:
    expect(bool(problems), f"rejects {what}")


def test_report_checks(modules) -> None:
    graph = modules.graph.generate("random_tree", 10, seed=3, ports="random")
    facts = graph_facts(graph.ports, 10, expected_edge_count("random_tree", 10, None))
    starts = (0,) * 10
    reports = {
        "helping-sync": modules.engine.run_sync(graph, starts, "helping-sync"),
        "independent-async": modules.engine.run_async(
            graph, starts, "independent-async", modules.engine.SeededRandom(seed=1)),
    }
    for alg, report in reports.items():
        doc = report.to_dict()
        family, sync = alg.split("-")[0], alg.endswith("-sync")
        expect(check_report(doc, facts, starts, family, sync) == [], f"accepts a real {alg} report")

        bad = copy.deepcopy(doc)
        bad["final_positions"][1] = bad["final_positions"][0]
        rejects(check_report(bad, facts, starts, family, sync), f"{alg}: two robots on one node")
        bad = copy.deepcopy(doc)
        bad["final_modes"][2] = "explore"
        rejects(check_report(bad, facts, starts, family, sync), f"{alg}: an unsettled robot")
        bad = copy.deepcopy(doc)
        bound = 4 * facts.m - 2 * (facts.n - 1)
        bad["robots"][0]["settle_time"] = bound + 1
        bad["robots"][0]["active_iterations"] = bound + 2
        rejects(check_report(bad, facts, starts, family, sync), f"{alg}: a robot past the time bound")
        bad = copy.deepcopy(doc)
        bad["robots"][3]["peak_memory_bits"] += 10_000
        rejects(check_report(bad, facts, starts, family, sync), f"{alg}: memory above the bound")
        bad = copy.deepcopy(doc)
        far = max(range(10), key=lambda i: facts.dist_from(0)[doc["final_positions"][i]])
        bad["robots"][far]["moves"] = 0
        rejects(check_report(bad, facts, starts, family, sync), f"{alg}: fewer moves than the distance")
    bad = copy.deepcopy(reports["independent-async"].to_dict())
    bad["robots"][0]["peak_stack_depth"] = 10
    rejects(check_report(bad, facts, starts, "independent", False), "a stack deeper than k-1")

    tables = [list(t) for t in graph.ports]
    v = next(i for i, t in enumerate(tables) if len(t) >= 2)
    tables[v][0], tables[v][1] = tables[v][1], tables[v][0]
    rejects(graph_facts(tables, 10, 9).problems, "a broken port involution")
    rejects(graph_facts(graph.ports, 10, 10).problems, "an edge count off the family formula")
    cut = [list(t) for t in modules.graph.generate("line", 4).ports]
    cut[1], cut[2], cut[3] = [(0, 0)], [(3, 0)], [(2, 0)]
    rejects(graph_facts(cut, 4, 2).problems, "a disconnected graph")


def test_trace_audit(modules) -> None:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for alg in ("helping-sync", "helping-async"):
            argv = ["run", "--algorithm", alg, "--graph", "ring", "--n", "8", "--k", "8",
                    "--trace", str(tmp / alg), "--out", str(tmp / f"{alg}.json")]
            with contextlib.redirect_stderr(io.StringIO()):
                expect(modules.cli.main(argv) == 0, f"dispersim run {alg} succeeds")
            lines = (tmp / alg / "run_000.jsonl").read_text().splitlines()
            sync = alg.endswith("-sync")
            problems, events = audit_trace(lines, 8, sync)
            expect(problems == [] and events == len(lines) - 1, f"audit accepts a real {alg} trace")

            records = [json.loads(line) for line in lines[1:]]
            at = next(i for i, r in enumerate(records)
                      if r["mutex"] and len(r["mutex"]["contenders"]) > 1)

            def tampered(edit) -> list[str]:
                recs = copy.deepcopy(records)
                edit(recs)
                return [lines[0]] + [json.dumps(r) for r in recs]

            def drop_winner(recs):
                recs[at]["mutex"]["contenders"].remove(recs[at]["mutex"]["winner"])

            rejects(audit_trace(tampered(drop_winner), 8, sync)[0],
                    f"{alg}: a mutex winner missing from its contenders")
            rejects(audit_trace(tampered(lambda recs: recs.pop(len(recs) // 2)), 8, sync)[0],
                    f"{alg}: a gap in the event indices")
            dock = next(i for i, r in enumerate(records) if r["action"]["type"] == "dock")

            def redock(recs):
                recs.append(dict(recs[dock], event=len(recs)))

            rejects(audit_trace(tampered(redock), 8, sync)[0], f"{alg}: a robot docking twice")
            rejects(audit_trace(lines, 9, sync)[0], f"{alg}: fewer docks than robots")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "BENCHMARK.json lists the end-to-end metrics run.py prints")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units(),
           "BENCHMARK.json lists the per-layer metrics run.py prints")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs")
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_workload(name, 7, 0, traced, tiny=True)
            values = [m["value"] for m in result["metrics"].values()]
            fine = (result["correct"] and result["failed"] == 0 and result["attempted"] > 0
                    and (traced or all(v > 0 for v in values)))
            expect(fine, f"{name} tiny, {'traced' if traced else 'untraced'}: "
                         f"{result['attempted']} operations, {result['failed']} failed")


def test_missing_program() -> None:
    empty = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        import_dispersim(empty)
        expect(False, "refuses a checkout without src/dispersim")
    except ProgramMissing:
        expect(True, "refuses a checkout without src/dispersim")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def main() -> int:
    modules = import_dispersim(ROOT)
    test_report_checks(modules)
    test_trace_audit(modules)
    test_workloads()
    test_missing_program()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
