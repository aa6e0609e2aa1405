"""Round-accurate simulator of the (Quantum) Congested Clique and CONGEST
models, with clique and cycle detection built on nested distributed
quantum search, simulated at the cost-model level."""

from .graph import (
    CliqueSet,
    GenSpec,
    Graph,
    GraphFormatError,
    generate,
    load_graph,
    oracle_cliques,
    oracle_has_clique,
    oracle_has_cycle,
    oracle_has_extension,
    save_graph,
)
from .netsim import CongestNet, CostLedger, congest_step
from .qsearch import (
    NestedSearchPlan,
    QuantumCostParams,
    SearchLevel,
    SearchOutcome,
    grover_cost,
    nested_cost_predict,
    run_nested_search,
    run_search,
)
from .cliquelist import CliqueInventory, TupleAssignment, list_kp, tuple_assignment
from .cliquedetect import (
    DetectionPlan,
    detect_clique,
    detect_nested,
    detect_plus1,
    detect_triangle_quintic,
    extend_blackbox,
    extend_sparse,
    plan_strategy,
)
from .cycledetect import (
    ColorBfsConfig,
    EvenCycleParams,
    detect_even_cycle,
    detect_odd_cycle,
    forest_decomposition,
)

__version__ = "0.1.0"
