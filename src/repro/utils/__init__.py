"""Shared utilities: seeded randomness, validation, serialization, tables.

These helpers are intentionally small and dependency-free so that every other
subpackage can rely on them without import cycles.
"""

from repro.utils.rng import RngFactory, spawn_rng
from repro.utils.serialization import load_json, save_json, to_jsonable
from repro.utils.tables import render_table
from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability_vector,
)

__all__ = [
    "RngFactory",
    "spawn_rng",
    "to_jsonable",
    "save_json",
    "load_json",
    "render_table",
    "check_positive",
    "check_nonnegative",
    "check_probability_vector",
    "check_in_range",
]
