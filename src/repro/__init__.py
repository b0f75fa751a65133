"""repro — reproduction of "Stochastic Neuromorphic Circuits for Solving MAXCUT".

The library implements, in pure NumPy/SciPy:

* the two neuromorphic circuits of the paper (:class:`repro.LIFGWCircuit` and
  :class:`repro.LIFTrevisanCircuit`),
* every substrate they rely on — stochastic device pools, LIF neuron
  populations, Oja/anti-Hebbian plasticity, a Burer-Monteiro SDP solver,
  spectral solvers, graph generators and the empirical-graph registry,
* the software baselines (Goemans-Williamson, Trevisan simple spectral,
  random cuts), and
* the experiment harness regenerating the paper's Figure 3, Figure 4 and
  Table I, plus the ablations its Discussion calls for,
* a capability-aware solver registry with a cross-method comparison arena
  (:mod:`repro.arena`) racing circuits against the classical baselines over
  named graph suites under a shared budget, and
* the **unified workload API** (:mod:`repro.workloads`, ``python -m repro
  run <workload>``): one declarative :class:`WorkloadSpec` + :class:`Session`
  runner behind every experiment, arena race, and engine solve, returning a
  uniform :class:`RunReport`, and
* the **problem compiler** (:mod:`repro.problems`, ``repro solve --problem``,
  ``repro run problems``): a QUBO/Ising/MAXDICUT/MAX2SAT IR lowered onto the
  MAXCUT solver stack by certified gadget reductions, with problem suites and
  problem-native solvers racing on the arena leaderboard.

Quickstart
----------
>>> import repro
>>> graph = repro.erdos_renyi(40, 0.3, seed=1)
>>> circuit = repro.LIFGWCircuit(graph, seed=1)
>>> result = circuit.sample_cuts(n_samples=200, seed=2)
>>> result.best_weight > 0
True
"""

from repro.graphs import (
    Graph,
    erdos_renyi,
    complete_graph,
    complete_bipartite,
    cycle_graph,
    load_empirical_graph,
    list_empirical_graphs,
)
from repro.cuts import (
    Cut,
    cut_weight,
    cut_weights_batch,
    random_cut,
    best_random_cut,
    exact_maxcut,
    exact_maxcut_value,
)
from repro.sdp import solve_maxcut_sdp, hyperplane_rounding, SDPResult
from repro.spectral import trevisan_simple_spectral, minimum_eigenvector
from repro.devices import (
    FairCoinPool,
    BiasedCoinPool,
    CorrelatedDevicePool,
    DriftingDevicePool,
    TelegraphNoisePool,
)
from repro.neurons import (
    LIFParameters,
    AntiHebbianMinorComponent,
    OjaPrincipalComponent,
)
from repro.circuits import (
    LIFGWCircuit,
    LIFTrevisanCircuit,
    LIFGWConfig,
    LIFTrevisanConfig,
)
from repro.engine import (
    BatchedSolverEngine,
    EarlyStopConfig,
    SolveRequest,
    SolveResult,
)
from repro.algorithms import (
    goemans_williamson,
    trevisan_spectral,
    random_baseline,
    SolverSpec,
    get_solver,
    get_spec,
    list_solvers,
    list_specs,
    register_solver,
)
from repro.arena import (
    ArenaEntry,
    ArenaResult,
    GraphSuite,
    build_suite,
    list_suites,
    register_suite,
)
from repro.workloads import (
    Budget,
    ExecutionPolicy,
    GraphSource,
    RunReport,
    Session,
    Workload,
    WorkloadSpec,
    get_workload,
    list_workloads,
    register_workload,
    run_workload,
)
from repro.ising import (
    IsingModel,
    maxcut_to_ising,
    simulated_annealing_maxcut,
    parallel_tempering,
)
from repro.problems import (
    Qubo,
    IsingProblem,
    MaxCutProblem,
    MaxDiCutProblem,
    MaxTwoSatProblem,
    ProblemSource,
    CompiledGraph,
    compile_to_maxcut,
    verify_certificate,
    qubo_to_ising,
    ising_to_qubo,
    list_problem_suites,
    register_problem_suite,
)
from repro.plotting import ascii_line_plot, render_curves

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graphs
    "Graph",
    "erdos_renyi",
    "complete_graph",
    "complete_bipartite",
    "cycle_graph",
    "load_empirical_graph",
    "list_empirical_graphs",
    # cuts
    "Cut",
    "cut_weight",
    "cut_weights_batch",
    "random_cut",
    "best_random_cut",
    "exact_maxcut",
    "exact_maxcut_value",
    # sdp / spectral
    "solve_maxcut_sdp",
    "hyperplane_rounding",
    "SDPResult",
    "trevisan_simple_spectral",
    "minimum_eigenvector",
    # devices
    "FairCoinPool",
    "BiasedCoinPool",
    "CorrelatedDevicePool",
    "DriftingDevicePool",
    "TelegraphNoisePool",
    # neurons
    "LIFParameters",
    "AntiHebbianMinorComponent",
    "OjaPrincipalComponent",
    # circuits
    "LIFGWCircuit",
    "LIFTrevisanCircuit",
    "LIFGWConfig",
    "LIFTrevisanConfig",
    # batched engine
    "BatchedSolverEngine",
    "EarlyStopConfig",
    "SolveRequest",
    "SolveResult",
    # algorithms
    "goemans_williamson",
    "trevisan_spectral",
    "random_baseline",
    "SolverSpec",
    "get_solver",
    "get_spec",
    "list_solvers",
    "list_specs",
    "register_solver",
    # solver arena
    "ArenaEntry",
    "ArenaResult",
    "GraphSuite",
    "build_suite",
    "list_suites",
    "register_suite",
    # unified workload API
    "Budget",
    "ExecutionPolicy",
    "GraphSource",
    "RunReport",
    "Session",
    "Workload",
    "WorkloadSpec",
    "get_workload",
    "list_workloads",
    "register_workload",
    "run_workload",
    # ising baselines
    "IsingModel",
    "maxcut_to_ising",
    "simulated_annealing_maxcut",
    "parallel_tempering",
    # plotting
    "ascii_line_plot",
    "render_curves",
]
