"""Multiplier ideals of central hyperplane arrangements.

Compute intersection lattices, building sets, multiplier-ideal
presentations, log canonical thresholds and jumping numbers, all in exact
rational arithmetic, and read the ideals' Hilbert functions, membership
and building-set independence degree by degree from each presented
power's truncated expansion in its flat's coordinates.

The package namespace holds the names the README's library example uses;
everything else is imported from its submodule (``arrideals.lattice``,
``arrideals.building``, ``arrideals.graded``, ``arrideals.multiplier``).
"""

from .arrangement import braid
from .lattice import compute_lattice
from .multiplier import hilbert_function, lct, presentation

__all__ = [
    "braid",
    "compute_lattice",
    "presentation",
    "lct",
    "hilbert_function",
]

__version__ = "0.1.0"
