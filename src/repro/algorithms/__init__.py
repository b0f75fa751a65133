"""Classical (software) MAXCUT algorithms and constraint-satisfaction extensions.

These are the baselines the paper compares its circuits against:

* :func:`goemans_williamson` — the full GW pipeline (SDP + hyperplane
  rounding), the paper's "software solver" (green triangles in Figs. 3-4).
* :func:`trevisan_spectral` — the software simple-spectral Trevisan algorithm.
* :func:`random_baseline` — uniformly random cuts (red X's).

The Discussion section notes the LIF-GW circuit extends to MAXDICUT and
MAX2SAT through the corresponding Goemans-Williamson rounding schemes; those
extensions are implemented in :mod:`repro.algorithms.maxdicut` and
:mod:`repro.algorithms.max2sat`.

All MAXCUT methods — circuits and baselines — are registered in the
capability-aware registry (:mod:`repro.algorithms.registry`): look solvers up
with :func:`get_solver`, inspect capabilities and per-solver ``n_samples``
semantics with :func:`get_spec` / :func:`list_specs`, and add new methods
with :func:`register_solver`.  The registry is what the cross-method arena
(:mod:`repro.arena`) and the ``repro solve`` / ``repro run arena`` CLI build on.
"""

from repro.algorithms.goemans_williamson import GWResult, goemans_williamson
from repro.algorithms.trevisan import trevisan_spectral
from repro.algorithms.random_baseline import random_baseline
from repro.algorithms.maxdicut import DirectedGraph, maxdicut_gw, dicut_value
from repro.algorithms.max2sat import (
    Clause,
    Max2SatInstance,
    max2sat_gw,
    satisfied_clauses,
    random_max2sat_instance,
)
from repro.algorithms.registry import (
    SOLVER_SPECS,
    SOLVERS,
    SolverSpec,
    get_solver,
    get_spec,
    list_solvers,
    list_specs,
    register_solver,
)

__all__ = [
    "GWResult",
    "goemans_williamson",
    "trevisan_spectral",
    "random_baseline",
    "DirectedGraph",
    "maxdicut_gw",
    "dicut_value",
    "Clause",
    "Max2SatInstance",
    "max2sat_gw",
    "satisfied_clauses",
    "random_max2sat_instance",
    "SOLVERS",
    "SOLVER_SPECS",
    "SolverSpec",
    "get_solver",
    "get_spec",
    "list_solvers",
    "list_specs",
    "register_solver",
]
