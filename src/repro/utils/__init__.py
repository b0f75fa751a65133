"""Shared utilities: RNG stream management, validation, timing, logging.

These helpers are deliberately dependency-light so every other subpackage can
import them without creating circular imports.
"""

from repro.utils.rng import (
    RandomState,
    SeedStream,
    as_generator,
    as_seed_sequence,
    spawn_generators,
)
from repro.utils.validation import (
    ValidationError,
    check_probability,
    check_positive,
    check_non_negative,
    check_square_matrix,
    check_symmetric,
    check_vector_length,
    check_spin_vector,
)
from repro.utils.timers import Timer, timed
from repro.utils.logging import get_logger

__all__ = [
    "RandomState",
    "SeedStream",
    "as_generator",
    "as_seed_sequence",
    "spawn_generators",
    "ValidationError",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_square_matrix",
    "check_symmetric",
    "check_vector_length",
    "check_spin_vector",
    "Timer",
    "timed",
    "get_logger",
]
