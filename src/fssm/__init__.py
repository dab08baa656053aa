"""Flow-sensitive security analyses for federated cloud task nets.

Models are coloured task nets over a security lattice; the package checks
Bell-LaPadula flow rules, state invariants, SNNI noninterference, and
opacity on the reachability graph, and allocates workflow tasks to clouds
under validity and cost constraints.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityExceeded,
    CyclicGraph,
    DanglingReference,
    DepthTooSmall,
    DuplicateId,
    DuplicateLevel,
    EmptyTransition,
    FssmError,
    InitialContainmentViolation,
    InvalidAllocation,
    InvalidWorkflow,
    LimitExceeded,
    ModelSyntaxError,
    NoFeasibleAllocation,
    NotALattice,
    NotEnabled,
    OrderCycle,
    SchemaError,
    TooManyAllocations,
    UnknownLevel,
    UnknownTask,
    UnmappedTransition,
    UnresolvedReference,
)
from .lattice import SecurityLattice, build_lattice
from .model import (
    ArcIn,
    ArcOut,
    Cloud,
    DataToken,
    FssmNet,
    Marking,
    Place,
    TaskTransition,
    WILDCARD,
    build_net,
    marking_of,
    with_transitions,
    without_transitions,
)
from .statespace import (
    Binding,
    CompactStates,
    EdgeColumns,
    ExploreLimits,
    FlowRecord,
    GraphEdge,
    GraphStats,
    ReachabilityGraph,
    enabled_bindings,
    explore,
    fire,
    to_dot,
)
from .policy import (
    BlpConfig,
    PolicyReport,
    PredicateExpr,
    Violation,
    check_invariant,
    dynamic_blp_check,
    eval_predicate,
    parse_predicate,
    predicate_to_obj,
    replay_witness,
    state_flags,
    static_blp_check,
)
from .noninterference import (
    NIVerdict,
    ObsMap,
    Observer,
    check_snni,
    coarsen_obs,
    derive_obs,
    language_diff,
    obs_from_dict,
    project,
)
from .opacity import (
    OpacityVerdict,
    RunMonitor,
    SecretSpec,
    brute_force_opacity,
    build_observer,
    check_current_state_opacity,
    check_run_opacity,
)
from .allocation import (
    Allocation,
    CloudSpec,
    CostModel,
    Workflow,
    WorkflowEdge,
    WorkflowTask,
    allocation_cost,
    allocation_of,
    build_workflow,
    enumerate_valid,
    min_cost_allocation,
    synthesize_net,
    valid_clouds,
)
from .modelfile import ModelBundle, parse_model, serialize_model
