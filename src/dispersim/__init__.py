"""Deterministic simulation of mobile-robot dispersion on anonymous
port-labeled graphs: three dispersion algorithms, synchronous and
asynchronous engines, and executable versions of their correctness,
time-bound, and space-bound claims."""

from .agents import (
    HelpingState,
    IndependentState,
    Mode,
    memory_bits_helping,
    memory_bits_independent,
)
from .algorithms import (
    LocalView,
    SimulationInvariantError,
    helping_step,
    independent_step,
    settled_service,
)
from .analysis import (
    RobotStats,
    RunReport,
    async_iteration_bound,
    check_dispersion,
    check_memory_bound,
    check_time_bound,
    lower_bound_fixture,
    single_robot_dfs_oracle,
    sync_round_bound,
)
from .engine import (
    AdversarialStalling,
    Algorithm,
    JsonlTraceWriter,
    MutexPolicy,
    RoundRobin,
    SchedulerPolicy,
    SeededRandom,
    run,
    run_async,
    run_sync,
)
from .graph import (
    GraphError,
    InitialPlacement,
    PortLabeledGraph,
    build_graph,
    generate,
    graph_from_text,
    graph_to_text,
    relabel_nodes,
)

__version__ = "0.1.0"
