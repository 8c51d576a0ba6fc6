"""motlab: multimarginal optimal transport solvers, the tuple-minimization
reduction through transport value oracles, and verifiers for the hard-cost
constructions (clique tensors, pairwise costs, determinants, set functions,
ion systems, width-2 CNFs)."""

from .costs import (
    CostOracle,
    DenseCost,
    DeterminantCost,
    IonCost,
    LowRankCost,
    PairwiseCost,
    SetFunctionCost,
    TwoSatCost,
    build_clique_tensor,
    build_maxcut_cost,
    build_pairwise_from_graph,
    build_twosat_cost,
    is_submodular,
    is_supermodular,
)
from .graphs import CnfFormula, KPartiteGraph, UndirectedGraph, twosat_satisfying_assignment
from .minsolve import (
    MinResult,
    min_bruteforce,
    min_objective_gap,
    twosat_min_zero,
    weighted_objective,
)
from .motsolve import (
    MotSolution,
    SinkhornConfig,
    TransportLP,
    bernoulli_spec,
    chain_coupling,
    check_dual_feasibility,
    lovasz_extension,
    sinkhorn,
    solve_lp,
    solve_submodular,
    suggest_eta,
)
from .reduction import (
    ApproxMinResult,
    EnvelopePoint,
    MotOracle,
    envelope_value,
    lipschitz_bound,
    min_via_mot_approx,
    min_via_mot_exact,
    minimize_envelope_exact,
    purify,
)
from .tensors import (
    CapExceededError,
    CouplingTensor,
    DualPotentials,
    MarginalSpec,
    dense_cap,
    entropy,
    inner_product,
    is_coupling,
    marginal,
    round_to_polytope,
)

__version__ = "0.1.0"
