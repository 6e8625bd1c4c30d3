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
    Action,
    Dock,
    DockedHandle,
    HelpRecord,
    LocalView,
    Move,
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
    Contender,
    JsonlTraceWriter,
    MutexPolicy,
    RoundRobin,
    SchedulerPolicy,
    SeededRandom,
    WorldState,
    arbitrate_mutex,
    apply_moves_single_lane,
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
    read_graph,
    relabel_nodes,
    write_graph,
)

__version__ = "0.1.0"
