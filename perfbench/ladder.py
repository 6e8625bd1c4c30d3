"""One-off size ladder: robot steps per second at n = 100, 200, 400 with
k = n robots colocated on a random tree, for each algorithm.

    python3 perfbench/ladder.py

Prints one line per (n, algorithm). It is not part of the benchmark's
result; README.md quotes its figures.
"""

from __future__ import annotations

import time

from run import ROOT, import_dispersim

ALGORITHMS = ("helping-sync", "helping-async", "independent-sync", "independent-async")


def main() -> None:
    modules = import_dispersim(ROOT)
    engine = modules.engine
    for n in (100, 200, 400):
        graph = modules.graph.generate("random_tree", n, seed=1, ports="random")
        for alg in ALGORITHMS:
            t0 = time.perf_counter()
            if alg.endswith("-sync"):
                report = engine.run_sync(graph, (0,) * n, alg)
            else:
                report = engine.run_async(graph, (0,) * n, alg, engine.SeededRandom(seed=1))
            seconds = time.perf_counter() - t0
            steps = sum(r.active_iterations for r in report.robots)
            print(f"n={n:4d} {alg:18s} {seconds:8.2f} s {steps:8d} steps "
                  f"{steps / seconds:9.0f} steps/s dispersed={report.dispersed}")


if __name__ == "__main__":
    main()
