"""Deterministic planning and simulation for LEO edge-AI constellations.

The package splits into geometry (constellation), in-orbit collectives
(collective), inter-orbit routing (interorbit), satellite-ground flow
scheduling (sgl_flow), microservice task graphs (msdag), placement solvers
(deployment), energy-minimal request routing (orchestration), federated
round simulation (simkernel), and scenario file handling (scenario). The
graph algorithms they share live in one module (graph).
"""

from .constellation import (
    EARTH_RADIUS_KM,
    LIGHT_SPEED_KM_S,
    ConstellationSpec,
    ContactWindow,
    GroundStation,
    Link,
    LinkConfig,
    LinkKind,
    SatelliteId,
    TopologySnapshot,
    WalkerConstellation,
    node_key,
    build_walker,
    contact_windows,
    snapshot,
)
from .collective import (
    CollectiveResult,
    Phase,
    RingSchedule,
    RingSpec,
    TransferStep,
    execute,
    plan_all_gather,
    plan_all_reduce,
)
from .interorbit import (
    PathSet,
    ShortestPaths,
    all_pairs_shortest,
    build_weighted_graph,
    parallel_transfer_time,
    select_disjoint_paths,
)
from .graph import Topology
from .sgl_flow import (
    DownlinkResult,
    DownlinkState,
    EpochFlow,
    FlowAssignment,
    max_flow,
    schedule_downlink,
)
from .msdag import (
    LatencyBreakdown,
    LatencyModel,
    Microservice,
    Router,
    ServiceDag,
    dag_latency,
    shared_modules,
    validate_dag,
)
from .deployment import (
    DeploymentInstance,
    DeploymentMdp,
    DeploymentPlan,
    LinearPolicy,
    SatelliteNode,
    TrainingReport,
    plan_from_policy,
    solve_exact,
    solve_greedy,
    train_policy_gradient,
)
from .orchestration import (
    EnergyModel,
    SteinerInstance,
    SteinerTree,
    build_augmented_graph,
    dst_exact,
    dst_heuristic,
    validate_tree,
)
from .simkernel import (
    ComputeModel,
    FederationConfig,
    RoundTrace,
    RunAggregate,
    SimulationSetup,
    WorkloadSpec,
    head_fraction,
    payload_bits,
    simulate_fine_tuning,
    simulate_round,
)
from .scenario import (
    Scenario,
    ScenarioError,
    parse_request,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)

__version__ = "0.1.0"
