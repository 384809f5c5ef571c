"""Executable reductions and equilibrium checks for team min-max games.

The package turns a family of complexity reductions into runnable objects:
exact rational game containers, reduction gadgets with their structure
lemmas as audits, closed-form solvers (including one whose answer is
irrational), symmetric learning dynamics, and small brute-force oracles
that recompute every claimed quantity independently.
"""

from .analytic import (
    QuadSurd,
    induced_matrix,
    irrational_equilibrium,
    irrational_game,
    solve_2x2,
    team_value_curve,
    verify_irrational_equilibrium,
)
from .checks import (
    Certificate,
    MassBoundEntry,
    epsilon_ne_report,
    mass_bound_audit,
    ne_to_wsne,
    wsne_eps_exact,
    wsne_report,
)
from .cliques import (
    CLIQUE_UNIFORM,
    HALF_MIX,
    OTHER,
    TRIVIAL_LAST,
    Graph,
    NashGapReport,
    ParameterRegime,
    ProfileClassification,
    WsneOffender,
    WsneValueReport,
    classify_symmetric_profile,
    clique_uniform,
    graph_from_bordered_game,
    measure_nashgap,
    measure_wsne_value,
    nashgap_audit,
    nonsym_instance,
    payoff_from_graph,
    payoff_from_graph_delta,
    robust_unique_ne_game,
    strict_conditions_hold,
    unique_ne_game,
    wsne_value_audit,
)
from .dynamics import (
    ALGORITHMS,
    ALTERNATING_GDA,
    EXTRAGRADIENT,
    GDA,
    OMWU,
    OPTIMISTIC_GDA,
    SYMMETRIC_ALGORITHMS,
    DynamicsConfig,
    Trajectory,
    drift_witness_instance,
    min_gap,
    run,
    symmetry_drift,
)
from .errors import (
    BoundViolationError,
    CapExceededError,
    ConvergenceError,
    DegenerateGameError,
    DimensionError,
    FormatError,
    PreconditionError,
    UnsupportedDomainError,
)
from .gadgets import (
    GadgetStructureReport,
    Team3v3Instance,
    Team3v3Report,
    TeamGadgetInstance,
    canonical_team_ne,
    coupled_gadget,
    coupling_width,
    gadget_structure_audit,
    measure_gadget_structure,
    measure_team3v3,
    median_backmap,
    quadratic_gadget,
    shift_to_gadget_range,
    symmetric_backmap,
    team3v3_audit_and_backmap,
    team3v3_gadget,
    team_backmap,
    team_gadget,
)
from .games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
    decompose_symmetric_skew,
    deviation_payoffs,
    deviation_vectors,
    evaluate_utility,
    max_team_inconsistency,
    to_normal_form,
)
from .geometry import JointDomain, grid_size, project_joint, project_simplex, simplex_grid
from .minmax import (
    AntisymmetryReport,
    GapReport,
    QuadraticMinMaxProblem,
    antisymmetry_check,
    check_fone,
    f_value,
    gap_to_vi_bound,
    gda_gap,
    gda_map,
    gradient,
    safe_gap_to_vi_bound,
)
from .oracle import (
    RefineResult,
    SymmetricEquilibrium,
    cliques_of_size,
    exact_max_regret,
    grid_ne_search,
    local_ne_refine,
    max_clique,
    symmetric_support_enumeration,
)

__version__ = "0.1.0"
