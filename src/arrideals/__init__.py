"""Multiplier ideals of central hyperplane arrangements.

Compute intersection lattices, building sets, multiplier-ideal
presentations, log canonical thresholds and jumping numbers, all in exact
rational arithmetic, and certify the ideal identities degree by degree
with an independent graded-linear-algebra engine.

The package namespace holds the names the README's library example uses;
everything else is imported from its submodule (``arrideals.lattice``,
``arrideals.building``, ``arrideals.graded``, ``arrideals.multiplier``).
"""

from .arrangement import braid
from .building import minimal_building_set
from .graded import hilbert
from .lattice import compute_lattice
from .multiplier import lct, presentation, presentation_ideal

__all__ = [
    "braid",
    "compute_lattice",
    "minimal_building_set",
    "presentation",
    "presentation_ideal",
    "lct",
    "hilbert",
]

__version__ = "0.1.0"
