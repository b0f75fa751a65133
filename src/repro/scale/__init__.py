"""Scale subsystem: CSR-native generators, sketched spectra, evolving graphs.

Everything the library needs to work far beyond the paper's small evaluation
instances without ever materialising a dense ``(n, n)`` matrix:

* :mod:`repro.scale.generators` — a vectorised scale-free family
  (Barabási–Albert, configuration model, Watts–Strogatz, stochastic
  Kronecker) built edge-list-first through
  :meth:`repro.graphs.graph.Graph.from_edge_arrays`, so a 100k-vertex
  instance generates in milliseconds and the dense ``adjacency()`` path is
  never invoked.
* :mod:`repro.scale.sketch` — a randomized subspace sketch of the sparse
  normalized adjacency's minimum eigenpair, the ``method="sketch"`` backend of
  :func:`repro.spectral.trevisan.minimum_eigenvector`, plus an
  ``O(m + n log n)`` sweep cut that replaces the dense batched sweep on
  large graphs.
* :mod:`repro.scale.stream` — evolving graphs: :class:`EdgeStream` batches
  of add/remove/reweight deltas, :class:`GraphVersion` snapshots with
  incremental canonical-array updates and stable fingerprints, and
  warm-started re-solves reusing the previous version's best cut.

The registered ``evolving`` workload (:mod:`repro.workloads.evolving`) and
the ``scale-small`` / ``scale-large`` arena suites are the front doors.
"""

from repro.scale.generators import (
    scale_barabasi_albert,
    scale_configuration_model,
    scale_watts_strogatz,
    stochastic_kronecker,
)
from repro.scale.sketch import (
    sketched_minimum_eigenpair,
    sweep_cut_from_scores,
)
from repro.scale.stream import (
    EdgeDelta,
    EdgeStream,
    GraphVersion,
    apply_deltas,
    sparse_greedy_improve,
    warm_resolve,
    warm_start_assignment,
)

__all__ = [
    "scale_barabasi_albert",
    "scale_configuration_model",
    "scale_watts_strogatz",
    "stochastic_kronecker",
    "sketched_minimum_eigenpair",
    "sweep_cut_from_scores",
    "EdgeDelta",
    "EdgeStream",
    "GraphVersion",
    "apply_deltas",
    "sparse_greedy_improve",
    "warm_resolve",
    "warm_start_assignment",
]
