"""Cut machinery: cut representation, weight evaluation, baselines, exact solver."""

from repro.cuts.cut import (
    Cut,
    cut_weight,
    cut_weights_batch,
    spins_from_bits,
    bits_from_spins,
)
from repro.cuts.random_cut import random_cut, random_cuts_batch, best_random_cut
from repro.cuts.local_search import greedy_improve, local_search_maxcut
from repro.cuts.exact import exact_maxcut, exact_maxcut_value

__all__ = [
    "Cut",
    "cut_weight",
    "cut_weights_batch",
    "spins_from_bits",
    "bits_from_spins",
    "random_cut",
    "random_cuts_batch",
    "best_random_cut",
    "greedy_improve",
    "local_search_maxcut",
    "exact_maxcut",
    "exact_maxcut_value",
]
