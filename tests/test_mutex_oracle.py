"""A trace-only oracle for mutex winners.

From a trace alone (the header's graph text and placement, then the events)
the oracle walks every robot through the port tables, keeps each node's
arrival counter, and checks every event's "mutex" value:
- it is null exactly at a node where a robot is docked;
- its contenders are the unsettled robots at the node;
- its winner is the policy's pick: the lowest label, or the minimum
  (arrival index, entry port, label).

Placement counts as arrival 0 through entry port -1, and a node's counter
then runs on from 1.  An asynchronous event applies at once; a parked
winner other than the acting robot settles within the event.  A synchronous
round is arbitrated against the round-start world and applied at its end:
docks first, then every move lands single-lane, in (entry port, label)
order, each taking its node's next arrival index.
"""

from __future__ import annotations

import json
import random

from dispersim import cli
from dispersim.engine import (
    AdversarialStalling,
    Algorithm,
    MutexPolicy,
    RoundRobin,
    SeededRandom,
    run,
)
from dispersim.graph import graph_from_text

from harness import random_connected_instance


def audit_mutex_winners(lines: list[str]) -> int:
    """Assert every "mutex" value of one trace; returns how many events
    carried an arbitration."""
    header = json.loads(lines[0])
    ports = graph_from_text(header["graph"]).ports
    sync = header["algorithm"].endswith("-sync")
    lowest_label = header["mutex"] == MutexPolicy.LOWEST_LABEL.value
    position = list(header["placement"])
    k = len(position)
    entry, arrival = [-1] * k, [0] * k
    counter = [1] * len(ports)
    settled = [False] * k
    docked: set[int] = set()
    # a synchronous round's docks (label, node) and landings (entry, label, dest)
    docks: list[tuple[int, int]] = []
    landings: list[tuple[int, int, int]] = []

    def dock(lab: int, node: int) -> None:
        settled[lab - 1] = True
        docked.add(node)

    def land(lab: int, dest: int, port: int) -> None:
        position[lab - 1], entry[lab - 1] = dest, port
        arrival[lab - 1] = counter[dest]
        counter[dest] += 1

    def end_round() -> None:
        for lab, node in docks:
            dock(lab, node)
        for port, lab, dest in sorted(landings):
            land(lab, dest, port)
        docks.clear()
        landings.clear()

    rnd = 0
    arbitrated = 0
    for line in lines[1:]:
        event = json.loads(line)
        if sync and event["round"] != rnd:
            end_round()
            rnd = event["round"]
        lab, node, mutex = event["robot"], event["node"], event["mutex"]
        assert not settled[lab - 1] and position[lab - 1] == node, line
        assert (mutex is None) == (node in docked), line
        if mutex is not None:
            contenders = [
                l for l in range(1, k + 1) if not settled[l - 1] and position[l - 1] == node
            ]
            assert mutex["contenders"] == contenders, line
            if lowest_label:
                pick = contenders[0]
            else:
                pick = min(contenders, key=lambda l: (arrival[l - 1], entry[l - 1], l))
            assert mutex["winner"] == pick, line
            arbitrated += 1
            if not sync and pick != lab:
                dock(pick, node)
        action = event["action"]
        if action["type"] == "dock":
            if sync:
                docks.append((lab, node))
            else:
                dock(lab, node)
        else:
            dest, port = ports[node][action["port"]]
            if sync:
                landings.append((port, lab, dest))
            else:
                land(lab, dest, port)
    end_round()
    assert all(settled)
    return arbitrated


def test_every_mutex_winner_is_the_policy_pick():
    rng = random.Random(2018)
    arbitrated = 0
    for i in range(200):
        graph, placement = random_connected_instance(rng)
        for algorithm in Algorithm:
            scheduler = None
            if not algorithm.is_sync:
                scheduler = (RoundRobin(), SeededRandom(seed=i), AdversarialStalling())[i % 3]
            for mutex in MutexPolicy:
                lines = [cli.trace_header(i, i, algorithm, graph, placement, mutex, scheduler)]
                run(graph, placement, algorithm, scheduler, mutex, trace_sink=lines.append)
                arbitrated += audit_mutex_winners(lines)
    assert arbitrated > 15_000
