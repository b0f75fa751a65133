"""Golden digests pinning the engine and ``sample_cuts`` bit for bit.

Every digest below was captured from the sequential per-trial LIF
integration that ``sample_cuts`` used to run, and checked there to equal the
batched engine's output.  The circuits now have one implementation of their
dynamics — the engine — so these pins (together with the block-size
invariance checks) are what keeps the arithmetic from drifting: a change
that alters any bit of a trajectory, a per-trial best or a learner row fails
here and must re-pin deliberately.  The LIF-GW digests whose SDP vectors
moved when the Burer-Monteiro solver took Barzilai-Borwein steps were
re-pinned then; the engine arithmetic under them did not change.

Scenarios cover both LIF-GW read-outs, LIF-TR with the default rule and with
learning-rate decay on unnormalised inputs, non-default device pools,
disconnected and edgeless graphs, and 1- and 5-trial batches.  All graphs
have unit weights, where cut weights are exact integers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit
from repro.devices.bernoulli import BiasedCoinPool
from repro.devices.telegraph import TelegraphNoisePool
from repro.engine import SolveRequest, solve
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.neurons.lif import LIFParameters

GW_CONFIG = LIFGWConfig(burn_in_steps=25, sample_interval=4)
#: A low threshold so neurons actually spike (and reset) between read-outs.
GW_SPIKE_CONFIG = LIFGWConfig(
    burn_in_steps=25, sample_interval=4, readout="spike",
    lif=LIFParameters(threshold=0.1),
)
TR_CONFIG = LIFTrevisanConfig(burn_in_steps=25, sample_interval=4)
TR_DECAY_RAW_CONFIG = LIFTrevisanConfig(
    burn_in_steps=25, sample_interval=4, learning_rate_decay=0.05,
    normalize_plasticity_inputs=False,
)


def _er40():
    return erdos_renyi(40, 0.25, seed=2024, name="er40")


def _disconnected():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)]
    return Graph(8, edges, name="disconnected8")


def _edgeless():
    return Graph(5, [], name="edgeless5")


def _telegraph(n_devices, rng):
    return TelegraphNoisePool(n_devices, switch_up=0.3, switch_down=0.2, seed=rng)


def _biased(n_devices, rng):
    return BiasedCoinPool(0.6, n_devices=n_devices, seed=rng)


#: name -> (circuit builder, n_samples, root seed)
SCENARIOS = {
    "gw_membrane": (lambda: LIFGWCircuit(_er40(), config=GW_CONFIG, seed=11), 12, 3),
    "gw_spike": (lambda: LIFGWCircuit(_er40(), config=GW_SPIKE_CONFIG, seed=11), 10, 77),
    "gw_default_config": (
        lambda: LIFGWCircuit(erdos_renyi(16, 0.4, seed=777, name="er16"), seed=2), 6, 8,
    ),
    "gw_telegraph_pool": (
        lambda: LIFGWCircuit(
            _er40(), config=GW_CONFIG, seed=11, device_pool_factory=_telegraph
        ), 10, 5,
    ),
    "tr_default": (lambda: LIFTrevisanCircuit(_er40(), config=TR_CONFIG), 10, 987654),
    "tr_decay_raw_inputs": (
        lambda: LIFTrevisanCircuit(_er40(), config=TR_DECAY_RAW_CONFIG), 10, 21,
    ),
    "tr_biased_pool": (
        lambda: LIFTrevisanCircuit(
            _er40(), config=TR_CONFIG, device_pool_factory=_biased
        ), 10, 4,
    ),
    "gw_disconnected": (
        lambda: LIFGWCircuit(_disconnected(), config=GW_CONFIG, seed=6), 8, 2,
    ),
    "tr_disconnected": (lambda: LIFTrevisanCircuit(_disconnected(), config=TR_CONFIG), 8, 2),
    "gw_edgeless": (lambda: LIFGWCircuit(_edgeless(), config=GW_CONFIG, seed=6), 5, 0),
    "tr_edgeless": (lambda: LIFTrevisanCircuit(_edgeless(), config=TR_CONFIG), 5, 0),
}

TRIAL_COUNTS = (1, 5)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:24]


def _solve_digest(result) -> str:
    return _digest(
        result.trajectories, result.trial_best_weights, result.trial_best_assignments
    )


def _sample_cuts_digest(result) -> str:
    arrays = [
        result.trajectories[0],
        result.best_cut.assignment,
        np.array([result.best_cut.weight, result.n_samples, result.n_steps]),
    ]
    if result.learner_weights is not None:
        arrays.append(result.learner_weights[0])
        arrays.append(np.array([result.metadata["n_plasticity_updates"]]))
    return _digest(*arrays)


def _sample_cuts_seeds(seed):
    """The seed forms ``sample_cuts`` accepts: SeedSequence, int, Generator."""
    return {
        "seedsequence": np.random.SeedSequence(seed, spawn_key=(0,)),
        "int": seed,
        "generator": np.random.default_rng(seed),
    }


#: (scenario, n_trials) -> digest of the engine's solve
SOLVE_GOLDENS = {
    ('gw_default_config', 1): '4eede5c9dc1b926cfd7dd2ef',
    ('gw_default_config', 5): 'c64a7bde541c44d153ab4250',
    ('gw_disconnected', 1): '1872b79afc1ae3cb4f68c135',
    ('gw_disconnected', 5): 'ccd6a35cf0cd22541b531b2e',
    ('gw_edgeless', 1): '6b1830fa2b4fc6a9bf7eb9c6',
    ('gw_edgeless', 5): '77bf5ffc32f8bdf60752902b',
    ('gw_membrane', 1): 'e2ac686e29eebe7b49b7f195',
    ('gw_membrane', 5): 'b7a829a3f4154e79ae2bfba1',
    ('gw_spike', 1): 'b3200de985fe03661bf9943d',
    ('gw_spike', 5): 'f021836a564b87b7775066dd',
    ('gw_telegraph_pool', 1): 'd76536f3a73907201608ceec',
    ('gw_telegraph_pool', 5): '8da591a0b8934d5a2d7f3f12',
    ('tr_biased_pool', 1): '8f24005d5e010f582d2e4d09',
    ('tr_biased_pool', 5): '947090050c9752cffe794dbd',
    ('tr_decay_raw_inputs', 1): 'b2a3a29cc8d3cb34cb93eeae',
    ('tr_decay_raw_inputs', 5): 'e2bba34f5c839fc4fdb85706',
    ('tr_default', 1): '481f8077eaac35dc1de194c6',
    ('tr_default', 5): 'c86d70c76aedfb772c5800c0',
    ('tr_disconnected', 1): '25a28bc413d297c35b9bff5e',
    ('tr_disconnected', 5): 'bf355c93e50f4e2039a93948',
    ('tr_edgeless', 1): '6ba14d7cbf4633db68dbb010',
    ('tr_edgeless', 5): '34a923d99966d0a41e83eaed',
}

#: (scenario, seed form) -> digest of ``circuit.sample_cuts``
SAMPLE_CUTS_GOLDENS = {
    ('gw_default_config', 'seedsequence'): 'db0ba0930a9fadd9ae820b08',
    ('gw_default_config', 'int'): 'fe5ab5ec75e736e46dfda5a5',
    ('gw_default_config', 'generator'): '93c243b042d9929f88370123',
    ('gw_disconnected', 'seedsequence'): 'ad8e0b719d536ef0dda709e7',
    ('gw_disconnected', 'int'): 'd8cf289dc5b1ddec12c6fae0',
    ('gw_disconnected', 'generator'): 'd69dc104a98fee820cfb2139',
    ('gw_edgeless', 'seedsequence'): 'd8b59ff3f6e9d2b1c651b9aa',
    ('gw_edgeless', 'int'): 'a8b22663a88e3a87df236765',
    ('gw_edgeless', 'generator'): '60af63e6d78c5b7e0c294483',
    ('gw_membrane', 'seedsequence'): 'a8b1cc063ece55d1f89c3cee',
    ('gw_membrane', 'int'): '0d1836535c672ef15a8b0433',
    ('gw_membrane', 'generator'): '43d73c7fd1be10f3dfb6ffc9',
    ('gw_spike', 'seedsequence'): '7d64f4cb6213294b145df3bd',
    ('gw_spike', 'int'): 'e36e05d22b13a83309adc5ae',
    ('gw_spike', 'generator'): '44b4ef74dbd7398193698c4c',
    ('gw_telegraph_pool', 'seedsequence'): '566145b0523af08eb49a809f',
    ('gw_telegraph_pool', 'int'): '24cf2d078ab63398d3adffc3',
    ('gw_telegraph_pool', 'generator'): 'f0a2c2c1a9c2b69c3ec43a71',
    ('tr_biased_pool', 'seedsequence'): '8ba1e7c5e18a7c068c4efcc5',
    ('tr_biased_pool', 'int'): '66561be3630f5f1b940ead98',
    ('tr_biased_pool', 'generator'): '183015722629494f83a60c60',
    ('tr_decay_raw_inputs', 'seedsequence'): 'ce5c00296d723f302c977e91',
    ('tr_decay_raw_inputs', 'int'): '1fa2af63c8b62ab59aef9977',
    ('tr_decay_raw_inputs', 'generator'): 'e4a6238b7d7a1e0f9245590f',
    ('tr_default', 'seedsequence'): '4c1d8a9079a68f67fdf7ea55',
    ('tr_default', 'int'): '6e4b20d23ad5084bc8b5565c',
    ('tr_default', 'generator'): '3ebd845b9b017de64b02a499',
    ('tr_disconnected', 'seedsequence'): 'e0c48ddab4ef12617a11c647',
    ('tr_disconnected', 'int'): '282af06fdc2ff36459d9449c',
    ('tr_disconnected', 'generator'): 'e2cc941103e65040b2a53e93',
    ('tr_edgeless', 'seedsequence'): 'd04276b0c4e0c028d3f1e50f',
    ('tr_edgeless', 'int'): 'ae42cb173b35a0505e0e8e5a',
    ('tr_edgeless', 'generator'): '179f9d754ffaba2eb3ccaf1b',
}


def _request(name, n_trials, **options):
    build, n_samples, seed = SCENARIOS[name]
    return SolveRequest(
        circuit=build(), n_trials=n_trials, n_samples=n_samples, seed=seed,
        backend="dense", **options,
    )


@pytest.mark.parametrize("n_trials", TRIAL_COUNTS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_solve_matches_golden(name, n_trials):
    assert _solve_digest(solve(_request(name, n_trials))) == SOLVE_GOLDENS[name, n_trials]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_solve_is_invariant_to_block_size(name):
    """One trial per block (``max_block_bytes=1``) changes no bit."""
    batched = solve(_request(name, 5))
    one_at_a_time = solve(_request(name, 5, max_block_bytes=1))
    assert one_at_a_time.metadata["n_blocks"] == 5
    assert np.array_equal(batched.trajectories, one_at_a_time.trajectories)
    assert np.array_equal(batched.trial_best_weights, one_at_a_time.trial_best_weights)
    assert np.array_equal(
        batched.trial_best_assignments, one_at_a_time.trial_best_assignments
    )


@pytest.mark.parametrize("form", ["seedsequence", "int", "generator"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sample_cuts_matches_golden(name, form):
    build, n_samples, seed = SCENARIOS[name]
    result = build().sample_cuts(n_samples, seed=_sample_cuts_seeds(seed)[form])
    assert _sample_cuts_digest(result) == SAMPLE_CUTS_GOLDENS[name, form]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sample_cuts_is_trial_zero_of_a_solve(name):
    build, n_samples, seed = SCENARIOS[name]
    circuit = build()
    direct = circuit.sample_cuts(n_samples, seed=np.random.SeedSequence(seed, spawn_key=(0,)))
    batch = solve(SolveRequest(circuit=circuit, n_trials=3, n_samples=n_samples, seed=seed))
    assert np.array_equal(direct.trajectories[0], batch.trajectories[0])
    assert direct.best_weight == batch.trial_best_weights[0]
    assert np.array_equal(direct.best_cut.assignment, batch.trial_best_assignments[0])
