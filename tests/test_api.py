"""The library's public surface as its users see it: every name the
benchmark rebinds by attribute, and the README's library example."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from dispersim import cli, engine, graph

ROOT = Path(__file__).parents[1]


def load_benchmark_spans():
    """``perfbench/spans.py``, imported read-only and left out of
    ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_binding_resolves():
    spans = load_benchmark_spans()
    modules = {"graph": graph, "engine": engine, "cli": cli}
    pairs = [(owner, attr) for _, owner, attr in spans.BINDINGS]
    pairs += [("engine", name) for name in spans.Timeline.STEP_FUNCTIONS]
    pairs += [("engine", "run_sync"), ("engine", "run_async")]
    missing = []
    for owner, attr in pairs:
        module, _, cls = owner.partition(".")
        target = modules[module]
        if cls:
            # the benchmark rebinds a class attribute through the class's
            # own namespace, so an inherited one would not do
            target = getattr(target, cls, None)
            found = isinstance(target, type) and attr in vars(target)
        else:
            found = hasattr(target, attr)
        if not found:
            missing.append(f"{owner}.{attr}")
    assert missing == []
    assert isinstance(vars(graph.PortLabeledGraph)["max_degree"], property)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, "README.md", "exec"), {})
