"""Problem suites: named, seed-deterministic collections of problem instances.

The problem-side twin of :mod:`repro.arena.suite`: a
:class:`ProblemSuite` is a deterministic function from a root seed to a list
of :class:`~repro.problems.base.Problem` instances, and registering one also
registers a same-key :class:`~repro.arena.suite.GraphSuite` whose graphs are
the suite's instances *compiled* to MAXCUT — so ``qubo-small`` & friends sit
beside ``er-small`` in every surface that takes a suite key (the arena, the
``problems`` workload, ``repro run arena``), and the sharded executor rebuilds
identical compiled graphs on every shard.

Seeding follows the paired convention used everywhere else
(:func:`repro.utils.rng.paired_seed`): instance *j* of the suite tagged *t*
derives all of its randomness from
``SeedSequence(seed, spawn_key=(_SPAWN_NAMESPACE, t, j))``, with a namespace
constant (> the 10^6 micro-resolution probability keys of
:func:`repro.utils.rng.grid_cell_key`) so problem-suite streams can never
collide with graph-generator or trial streams of the same root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.algorithms.max2sat import random_max2sat_instance
from repro.algorithms.maxdicut import random_digraph
from repro.ising.model import IsingModel
from repro.problems.base import Problem
from repro.problems.compile import CompiledGraph, compile_to_maxcut
from repro.problems.ir import (
    IsingProblem,
    MaxDiCutProblem,
    MaxTwoSatProblem,
    Qubo,
)
from repro.utils.rng import RandomState, paired_seed, spawn_generators
from repro.utils.validation import ValidationError

__all__ = [
    "ProblemSuite",
    "PROBLEM_SUITES",
    "register_problem_suite",
    "get_problem_suite",
    "list_problem_suites",
    "build_problem_suite",
    "compiled_problem_graphs",
    "problem_seed",
    "random_problem",
]

#: Builder signature: root seed -> problems (same seed, same instances).
ProblemBuilder = Callable[[int], List[Problem]]

#: Leading spawn-key element namespacing problem-suite streams away from the
#: (graph_index, trial) and (n, p-key, j) keys used elsewhere (> 10^6, the
#: ceiling of grid_cell_key's probability component).
_SPAWN_NAMESPACE = 2_000_003

#: Suite tags (second spawn-key element), one per built-in problem family.
_SUITE_TAGS = {"qubo": 1, "ising": 2, "maxdicut": 3, "max2sat": 4}


def problem_seed(seed: Optional[int], tag: int, index: int) -> np.random.SeedSequence:
    """Paired seed for instance *index* of the problem family tagged *tag*."""
    return paired_seed(seed, _SPAWN_NAMESPACE, tag, index)


def _instance_rng(seed: int, kind: str, index: int) -> np.random.Generator:
    # First spawned child, matching the GraphSource generator convention.
    return spawn_generators(problem_seed(seed, _SUITE_TAGS[kind], index), 1)[0]


@dataclass(frozen=True)
class ProblemSuite:
    """A named, seed-deterministic collection of problem instances.

    Attributes
    ----------
    key:
        Registry key (shared with the compiled twin in the arena suite
        registry).
    description:
        One-line description for listings.
    kind:
        Problem class of every instance in the suite (homogeneous suites
        keep solver-capability routing trivial).
    builder:
        ``seed -> [Problem, ...]``; must be deterministic in the seed.
    """

    key: str
    description: str
    kind: str
    builder: ProblemBuilder

    def build(self, seed: int = 0) -> List[Problem]:
        """Materialise the suite's problem instances for *seed*."""
        problems = list(self.builder(int(seed)))
        if not problems:
            raise ValidationError(f"problem suite {self.key!r} built an empty list")
        for problem in problems:
            if problem.kind != self.kind:
                raise ValidationError(
                    f"problem suite {self.key!r} declares kind {self.kind!r} "
                    f"but built a {problem.kind!r} instance"
                )
        return problems


#: Suite-key → :class:`ProblemSuite` registry.
PROBLEM_SUITES: Dict[str, ProblemSuite] = {}


def compiled_problem_graphs(
    suite: Union[str, ProblemSuite], seed: int = 0
) -> List[CompiledGraph]:
    """Compile suite instances to MAXCUT graphs (named ``<key>-<j>-n<vars>``).

    The single compilation path shared by the registered graph-suite twin
    and :class:`repro.problems.source.ProblemSource`, so every surface that
    builds the suite gets byte-identical graphs for a given seed (the
    sharded-merge bit-identity contract).  Every compile is certified on
    seed-deterministic probe assignments.
    """
    if isinstance(suite, str):
        suite = get_problem_suite(suite)
    graphs = []
    for j, problem in enumerate(suite.build(seed)):
        graph, _ = compile_to_maxcut(
            problem,
            name=f"{suite.key}-{j}-n{problem.n_variables}",
            verify=True,
            seed=problem_seed(seed, _SUITE_TAGS.get(suite.kind, 0), j),
        )
        graphs.append(graph)
    return graphs


def register_problem_suite(
    suite: ProblemSuite, overwrite: bool = False
) -> ProblemSuite:
    """Register *suite* and its compiled graph-suite twin (collisions raise).

    The twin is a same-key :class:`repro.arena.suite.GraphSuite` building
    :func:`compiled_problem_graphs`, which is what lets problem suites ride
    every graph-suite surface (arena races, ``GraphSource.from_suite``,
    shard adapters) unchanged.
    """
    from repro.arena.suite import GraphSuite, register_suite

    if suite.key in PROBLEM_SUITES and not overwrite:
        raise ValidationError(
            f"problem suite {suite.key!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    PROBLEM_SUITES[suite.key] = suite
    register_suite(
        GraphSuite(
            key=suite.key,
            description=f"[{suite.kind}→maxcut] {suite.description}",
            builder=lambda seed, _suite=suite: compiled_problem_graphs(_suite, seed),
        ),
        overwrite=overwrite,
    )
    return suite


def list_problem_suites() -> List[str]:
    """All registered problem-suite keys, sorted."""
    return sorted(PROBLEM_SUITES.keys())


def get_problem_suite(key: str) -> ProblemSuite:
    """Look up a problem suite; unknown keys raise with the available list."""
    try:
        return PROBLEM_SUITES[key]
    except KeyError:
        raise ValidationError(
            f"unknown problem suite {key!r}; available: {list_problem_suites()}"
        ) from None


def build_problem_suite(key: str, seed: int = 0) -> List[Problem]:
    """Build the problem instances of suite *key* for *seed* (deterministic)."""
    return get_problem_suite(key).build(seed)


# ---------------------------------------------------------------------------
# Instance generators and built-in suites
# ---------------------------------------------------------------------------


def _random_qubo(n: int, rng: np.random.Generator) -> Qubo:
    # Dense Gaussian couplings with a negative-leaning diagonal, the classic
    # "random QUBO" benchmark shape (frustrated, non-trivial optimum).
    matrix = rng.normal(0.0, 1.0, size=(n, n))
    matrix[np.arange(n), np.arange(n)] = rng.normal(-0.5, 1.0, size=n)
    return Qubo(matrix=matrix)


def _random_ising(n: int, p: float, rng: np.random.Generator) -> IsingProblem:
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    edges = np.stack([iu[mask], ju[mask]], axis=1).astype(np.int64)
    couplings = rng.normal(0.0, 1.0, size=int(mask.sum()))
    fields = rng.normal(0.0, 0.5, size=n)
    return IsingProblem(IsingModel(
        n_spins=n, edges=edges, couplings=couplings, fields=fields, offset=0.0,
    ))


def random_problem(
    kind: str,
    seed: RandomState = 0,
    n_variables: Optional[int] = None,
    index: int = 0,
) -> Problem:
    """One seed-deterministic random instance of *kind* (CLI / bench default).

    Uses the same paired-seed derivation as the built-in suites, so
    ``random_problem(kind, seed, n, j)`` equals instance *j* of a suite that
    generated size-*n* instances of that family.
    """
    kind = {"dicut": "maxdicut", "2sat": "max2sat"}.get(kind, kind)
    if kind not in _SUITE_TAGS:
        raise ValidationError(
            f"unknown problem kind {kind!r}; known: {sorted(_SUITE_TAGS)} "
            f"(aliases: dicut, 2sat)"
        )
    if isinstance(seed, (int, np.integer)) or seed is None:
        rng = _instance_rng(0 if seed is None else int(seed), kind, index)
    else:
        rng = spawn_generators(seed, 1)[0]
    n = int(n_variables) if n_variables is not None else 16
    if kind == "qubo":
        return _random_qubo(n, rng)
    if kind == "ising":
        return _random_ising(n, 0.35, rng)
    if kind == "maxdicut":
        return MaxDiCutProblem(
            random_digraph(n, 0.25, seed=rng, weighted=True, name=f"digraph-{n}")
        )
    return MaxTwoSatProblem(
        random_max2sat_instance(n, 3 * n, seed=rng, weighted=True)
    )


def _build_qubo_small(seed: int) -> List[Problem]:
    return [
        _random_qubo(n, _instance_rng(seed, "qubo", j))
        for j, n in enumerate((12, 16, 20))
    ]


def _build_ising_small(seed: int) -> List[Problem]:
    return [
        _random_ising(n, 0.35, _instance_rng(seed, "ising", j))
        for j, n in enumerate((12, 16, 20))
    ]


def _build_dicut_small(seed: int) -> List[Problem]:
    problems: List[Problem] = []
    for j, n in enumerate((12, 16, 20)):
        rng = _instance_rng(seed, "maxdicut", j)
        problems.append(MaxDiCutProblem(random_digraph(
            n, 0.25, seed=rng, weighted=(j == 2), name=f"digraph-{n}",
        )))
    return problems


def _build_2sat_small(seed: int) -> List[Problem]:
    problems: List[Problem] = []
    for j, (n, m) in enumerate(((10, 30), (14, 42), (18, 54))):
        rng = _instance_rng(seed, "max2sat", j)
        problems.append(MaxTwoSatProblem(random_max2sat_instance(
            n, m, seed=rng, weighted=(j == 2),
        )))
    return problems


for _suite in (
    ProblemSuite("qubo-small", "3 random dense QUBO instances, n=12..20",
                 "qubo", _build_qubo_small),
    ProblemSuite("ising-small", "3 random field-carrying Ising instances, n=12..20",
                 "ising", _build_ising_small),
    ProblemSuite("dicut-small", "3 random digraphs, n=12..20 (one weighted)",
                 "maxdicut", _build_dicut_small),
    ProblemSuite("2sat-small", "3 random MAX2SAT instances, n=10..18 (one weighted)",
                 "max2sat", _build_2sat_small),
):
    register_problem_suite(_suite)
del _suite
