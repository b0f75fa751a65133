"""Trial-parallel device sampling for the batched solver engine.

:class:`BatchDeviceSampler` runs, for every trial, one fixed RNG chain —
``spawn_generators(trial_seed, 2)`` to split device and auxiliary
(plasticity) randomness, then one :meth:`repro.devices.base.DevicePool.sample`
call for the whole step block — so a trial consumes the same random numbers
whatever block it runs in, and ``circuit.sample_cuts(n_samples,
seed=trial_seed)`` (a one-trial solve) reproduces it exactly.

Trial seeds are derived from the request's root seed as
``SeedSequence(entropy=root, spawn_key=(i,))`` (the
:class:`repro.utils.rng.SeedStream` convention), so trial *i* is reproducible
independently of how many trials run or how they are blocked.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.devices.base import DevicePool
from repro.obs.trace import span
from repro.utils.rng import spawn_generators
from repro.utils.validation import ValidationError

__all__ = ["BatchDeviceSampler", "request_trial_seeds", "trial_seed_sequences"]


def trial_seed_sequences(
    seed: Union[None, int, np.random.SeedSequence],
    n_trials: int,
    start: int = 0,
) -> List[np.random.SeedSequence]:
    """Per-trial ``SeedSequence`` children of a root seed.

    ``None`` draws fresh root entropy once (trials remain mutually
    independent and the run is reproducible from the returned sequences, just
    not from the ``None``).  An integer or ``SeedSequence`` root yields the
    deterministic ``spawn_key=(i,)`` children shared with
    :class:`repro.utils.rng.SeedStream`.

    *start* shifts the trial indices: the returned sequences are the children
    for global trials ``start .. start + n_trials - 1``.  A run split into
    consecutive ``[start, stop)`` blocks therefore consumes exactly the seeds
    of the unsplit run — the property the sharded workload executor
    (:mod:`repro.distrib`) relies on.
    """
    if n_trials < 0:
        raise ValidationError(f"n_trials must be >= 0, got {n_trials}")
    if start < 0:
        raise ValidationError(f"start must be >= 0, got {start}")
    if isinstance(seed, np.random.SeedSequence):
        entropy, base_key = seed.entropy, tuple(seed.spawn_key)
    elif seed is None:
        entropy, base_key = np.random.SeedSequence().entropy, ()
    elif isinstance(seed, (int, np.integer)):
        entropy, base_key = int(seed), ()
    else:
        raise ValidationError(
            f"seed must be None, int, or SeedSequence; got {type(seed).__name__}"
        )
    return [
        np.random.SeedSequence(entropy=entropy, spawn_key=base_key + (i,))
        for i in range(start, start + n_trials)
    ]


def request_trial_seeds(request) -> List[np.random.SeedSequence]:
    """The exact per-trial seeds a :class:`~repro.engine.request.SolveRequest` runs with.

    Explicit ``trial_seeds`` verbatim, else the root-seed derivation
    (``SeedSequence(seed, spawn_key=(trial_offset + i,))``).
    """
    if request.trial_seeds is not None:
        return list(request.trial_seeds)
    return trial_seed_sequences(
        request.seed, request.n_trials, start=request.trial_offset
    )


class BatchDeviceSampler:
    """Draws per-trial device-state blocks with the circuits' seeding chain.

    Parameters
    ----------
    pool_builder:
        Callable ``(rng) -> DevicePool`` building one trial's device pool from
        that trial's device generator — typically the bound method
        ``circuit.build_device_pool``, so custom device-pool factories
        (ablations) are honoured.
    trial_seeds:
        One ``SeedSequence`` per trial (see :func:`trial_seed_sequences`).
    n_devices:
        Optional pool width, used only to shape the result of an empty
        trial block consistently with non-empty ones.
    """

    def __init__(
        self,
        pool_builder: Callable[[np.random.Generator], DevicePool],
        trial_seeds: Sequence[np.random.SeedSequence],
        n_devices: int = 0,
    ) -> None:
        self._pool_builder = pool_builder
        self._trial_seeds = list(trial_seeds)
        self._n_devices = int(n_devices)
        self._aux_generators: List[Optional[np.random.Generator]] = [
            None for _ in self._trial_seeds
        ]

    @property
    def n_trials(self) -> int:
        return len(self._trial_seeds)

    def aux_generator(self, trial: int) -> np.random.Generator:
        """The trial's second spawned generator (plasticity randomness).

        Only valid after :meth:`sample_block` has covered the trial — the
        generator is created by the same ``spawn_generators(seed, 2)`` call
        that seeds the device pool.
        """
        aux = self._aux_generators[trial]
        if aux is None:
            raise ValidationError(
                f"trial {trial} has not been sampled yet; call sample_block first"
            )
        return aux

    def sample_block(self, trials: Sequence[int], n_steps: int) -> np.ndarray:
        """Device states for a block of trials: ``(len(trials), n_steps, d)`` int8.

        Each trial's block comes from a freshly built pool seeded with that
        trial's own generator, in one vectorised ``pool.sample`` call.
        """
        if n_steps < 0:
            raise ValidationError(f"n_steps must be >= 0, got {n_steps}")
        with span("engine.sample", n_trials=len(trials), n_steps=n_steps):
            blocks = []
            for trial in trials:
                device_rng, aux_rng = spawn_generators(self._trial_seeds[trial], 2)
                self._aux_generators[trial] = aux_rng
                pool = self._pool_builder(device_rng)
                block = pool.sample(n_steps)
                blocks.append(block)
            if not blocks:
                return np.zeros((0, n_steps, self._n_devices), dtype=np.int8)
            return np.stack(blocks)
