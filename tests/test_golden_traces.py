"""Golden traces: SHA-256 digests of JSONL trace lines plus reports over a
fixed grid of runs.

Any change to a trace byte or a report field shows up here, so a refactor
that claims "same behaviour" must leave every digest as it is.  The grid
covers all four algorithms, both mutex policies, all three asynchronous
schedulers, colocated and random placements, and six graph families;
earliest-arrival colocated asynchronous runs settle parked mutex winners in
absentia, some of them before their own first iteration.

Print the current digests with ``PYTHONPATH=src python tests/test_golden_traces.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

from dispersim.engine import (
    AdversarialStalling,
    Algorithm,
    MutexPolicy,
    RoundRobin,
    SeededRandom,
    run,
)
from dispersim.graph import generate

# key -> (family, n, m, seed)
GRAPHS = {
    "line": ("line", 10, None, 11),
    "ring": ("ring", 10, None, 12),
    "complete": ("complete", 7, None, 13),
    "random_tree": ("random_tree", 12, None, 14),
    "grid": ("grid", 12, None, 15),
    "gnm": ("gnm", 10, 18, 16),
}

SCHEDULERS = (RoundRobin(), SeededRandom(seed=7), AdversarialStalling())

GOLDEN = {
    "line/colocated": "66d8ef01a936e0dac64231985273f6925db3493d905a24e2c161279a7dc519b1",
    "line/random": "9e98695a36082f386aade28a45e9a60f1f869bf9709bd52095a9ac7ba829ee6d",
    "ring/colocated": "05a711ad0ff235e5222a7faba0303888b866b729664c75453ac941ed468afda3",
    "ring/random": "fd38e29d347eaada0edced108c3714643e37f2c4fff78b7680f616748a522807",
    "complete/colocated": "f38befb3e3a403e7256afe638cdd245a52414c2f7b2db2e2df60edc16518e3c0",
    "complete/random": "644b77cbe981eb0329b4522b9e2e61e849340cc899a1685e7c7570d005370175",
    "random_tree/colocated": "e1b7e5933b530d7465131af2f5edc2150b3d027d03774b1c1245e08c2558f274",
    "random_tree/random": "9f9596afd901ed29935d898c5d7db4cdb5ed4538b3e17167fabaab56e3d20520",
    "grid/colocated": "a0bc8aab4365f0667e70737a32cfddd82344aa380487675842305bbf3220d4db",
    "grid/random": "1b8be23f2b2de38cb849422a9852dd53348ff8aeafed35860f4d1e2245d81ba9",
    "gnm/colocated": "a7420291cadb1ba81a7a0b9466f1b3cbc72f2b16f87cd4606c331d9f662e6395",
    "gnm/random": "8e1978926d170fb136b83d3cd9d155eeaa9fc553e92013a0dcdcfcfac8be4ffc",
}


def _placement(key: str, kind: str, n: int) -> tuple[int, ...]:
    if kind == "colocated":
        return (0,) * n
    rng = random.Random(f"{key}-placement")
    return tuple(rng.randrange(n) for _ in range(n // 2 + 1))


@lru_cache(maxsize=None)
def _runs(key: str, kind: str) -> tuple:
    family, n, m, seed = GRAPHS[key]
    graph = generate(family, n, m, seed=seed, ports="random")
    placement = _placement(key, kind, n)
    out = []
    for algorithm in Algorithm:
        for mutex in MutexPolicy:
            schedulers = (None,) if algorithm.is_sync else SCHEDULERS
            for scheduler in schedulers:
                lines: list[str] = []
                report = run(graph, placement, algorithm, scheduler, mutex, lines.append)
                out.append((algorithm, mutex, lines, report))
    return tuple(out)


def _digest(key: str, kind: str) -> str:
    h = hashlib.sha256()
    for _, _, lines, report in _runs(key, kind):
        for line in lines:
            h.update(line.encode())
            h.update(b"\n")
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _cases():
    return [(key, kind) for key in GRAPHS for kind in ("colocated", "random")]


def test_golden_digests_unchanged():
    actual = {f"{key}/{kind}": _digest(key, kind) for key, kind in _cases()}
    assert actual == GOLDEN


def test_grid_settles_winners_in_absentia():
    """The grid exercises in-absentia settles, including ones at round 0:
    an asynchronous event whose mutex winner is not the acting robot, where
    the winner had not acted before."""
    settles = at_round_zero = 0
    for key in GRAPHS:
        for algorithm, mutex, lines, report in _runs(key, "colocated"):
            if algorithm.is_sync or mutex is not MutexPolicy.EARLIEST_ARRIVAL:
                continue
            acted: set[int] = set()
            for record in map(json.loads, lines):
                winner = record["mutex"] and record["mutex"]["winner"]
                if winner and winner != record["robot"]:
                    settles += 1
                    at_round_zero += winner not in acted
                acted.add(record["robot"])
    assert settles > 0
    assert at_round_zero > 0


if __name__ == "__main__":
    for key, kind in _cases():
        print(f'    "{key}/{kind}": "{_digest(key, kind)}",')
