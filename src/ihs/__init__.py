"""Implicit hitting set solvers and feedback vertex set algorithms for random graphs."""

from .bfs_growth import (
    ConcentrationReport,
    FvsResult,
    LevelStats,
    check_concentration_bounds,
    concentration_depth,
    fvs_directed,
    grow_induced_bfs,
    prune_fvs,
    sample_acyclic_fraction,
)
from .generic import (
    SolveCertificate,
    SolverAbort,
    online_augment,
    solve_implicit_hitting_set,
)
from .graphs import (
    Digraph,
    Graph,
    GraphError,
    is_acyclic_directed,
    is_acyclic_undirected,
    shadow_undirected,
)
from .hitting import (
    HittingSet,
    SubsetFamily,
    exact_min_hitting_set,
)
from .instance_io import Instance, InstanceFormatError, read_instance, write_instance
from .models import ModelParams, PlantedInstance, gen_dnp, gen_gnp, gen_planted
from .oracles import (
    OracleContract,
    OracleProtocolError,
    OracleVerdict,
    bfs_cycle_oracle,
    cycles_of_length,
    explicit_family_oracle,
    shortest_cycle_oracle,
)
from .planted import (
    CycleBudgetExceeded,
    RecoveryReport,
    recover_planted_fvs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
