"""Multiplier ideals of central arrangements, via building sets.

For a building set G, the multiplier ideal of the arrangement ideal at
parameter λ ≥ 0 is the intersection over W ∈ G of I_W to the power
floor(λ·s(W)) − r(W) + 1, where r is the codimension of the flat and s the
total multiplicity of the hyperplanes containing it.  Terms whose exponent
drops to zero or below contribute the unit ideal and are omitted.  All λ
arithmetic is exact rational so floors at the jumps themselves are never
corrupted.

The numerical shadow of the underlying resolution is the table of
(discrepancy, vanishing order) = (r(W) − 1, s(W)) per building-set flat.
The log canonical threshold is min r(W)/s(W) over the minimal building set
(the smallest λ at which some exponent reaches one), and candidate
jumping numbers are the rationals m/s(W) where some floor increments.

Each exponent is a right-continuous step function of λ stepping only at
candidates, so the ideal is constant from one candidate to the next and is
the unit ideal below the first.  Jumps are verified in one ascending pass
comparing each candidate's ideal with the previous one, up to a degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .arrangement import Arrangement
from .building import BuildingSet, minimal_building_set
from .graded import GradedIdeal, Polynomial, intersect_powers, power_contains
from .lattice import Flat, IntersectionLattice


@dataclass(frozen=True)
class MultiplierIdealPresentation:
    """A multiplier ideal written as an intersection of flat-ideal powers."""

    lam: Fraction
    ambient_dim: int
    terms: tuple[tuple[Flat, int], ...]

    @property
    def is_unit(self) -> bool:
        return not self.terms


class ResolutionRow(NamedTuple):
    flat: Flat
    discrepancy: int
    vanishing_order: int


def _exponent(lam: Fraction, flat: Flat) -> int:
    scaled = lam * flat.mult
    return scaled.numerator // scaled.denominator - flat.rank + 1


def presentation(lat: IntersectionLattice, building: BuildingSet,
                 lam) -> MultiplierIdealPresentation:
    """Terms (W, floor(λ·s(W)) − r(W) + 1) over the building set, positive only."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    terms = []
    for W in building.flats:
        e = _exponent(lam, W)
        if e >= 1:
            terms.append((W, e))
    return MultiplierIdealPresentation(lam, lat.arrangement.dim, tuple(terms))


def presentation_ideal(pres: MultiplierIdealPresentation, bound: int) -> GradedIdeal:
    """Degreewise realization of the intersected ideal, up to ``bound``."""
    return intersect_powers(pres.terms, pres.ambient_dim, bound)


DEGREE_CAP = 10


def uncapped_degree_bound(*presentations: MultiplierIdealPresentation) -> int:
    """2 plus the largest exponent total among the presentations."""
    return 2 + max((sum(e for _, e in p.terms) for p in presentations), default=0)


def lct(lat: IntersectionLattice) -> Fraction:
    """Log canonical threshold: min r(W)/s(W) over the minimal building set.

    This is the smallest λ at which some exponent floor(λ·s) − r + 1
    reaches 1, i.e. the first λ with a non-unit multiplier ideal.
    """
    gmin = minimal_building_set(lat)
    return min(Fraction(W.rank, W.mult) for W in gmin.flats)


def support(lat: IntersectionLattice, lam) -> list[Flat]:
    """Minimal-building-set flats with λ ≥ r(W)/s(W), canonical order."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    gmin = minimal_building_set(lat)
    return [W for W in gmin.flats if lam >= Fraction(W.rank, W.mult)]


def jump_candidates(lat: IntersectionLattice, lam_max) -> list[Fraction]:
    """All m/s(W) with W in the minimal building set, r(W) ≤ m, up to lam_max.

    Exponents in the presentation change only at these values, so every
    jumping number is among them.
    """
    lam_max = Fraction(lam_max)
    if lam_max <= 0:
        raise ValueError(f"lambda bound must be > 0, got {lam_max}")
    gmin = minimal_building_set(lat)
    out = set()
    for W in gmin.flats:
        top = (lam_max * W.mult).numerator // (lam_max * W.mult).denominator
        for m in range(W.rank, top + 1):
            out.add(Fraction(m, W.mult))
    return sorted(out)


def verify_jumps(lat: IntersectionLattice, lam_max,
                 bound: int) -> list[tuple[Fraction, bool]]:
    """Each candidate up to ``lam_max`` and whether the ideal shrinks there.

    One ascending pass (see the module docstring) realizes each ideal once.
    A False answer certifies nothing beyond degree ``bound``.
    """
    if bound < 1:
        raise ValueError(f"degree bound must be >= 1, got {bound}")
    candidates = jump_candidates(lat, lam_max)
    if not candidates:
        return []
    gmin = minimal_building_set(lat)
    before = presentation_ideal(presentation(lat, gmin, 0), bound)
    out = []
    for c in candidates:
        at = presentation_ideal(presentation(lat, gmin, c), bound)
        out.append((c, at.piece_rows != before.piece_rows))
        before = at
    return out


def membership(arr: Arrangement, pres: MultiplierIdealPresentation,
               poly: Polynomial) -> bool:
    """Whether the polynomial lies in the presented ideal.

    The intersection is homogeneous, so each homogeneous component is
    tested against the inverse system of every term's power.
    """
    if poly.nvars != arr.dim or pres.ambient_dim != arr.dim:
        raise ValueError(
            f"variable count mismatch: polynomial has {poly.nvars}, "
            f"arrangement has {arr.dim}"
        )
    if poly.is_zero or pres.is_unit:
        return True
    return all(power_contains(W, e, poly) for W, e in pres.terms)


def resolution_table(lat: IntersectionLattice,
                     building: BuildingSet) -> tuple[ResolutionRow, ...]:
    """Discrepancy r(W)−1 and vanishing order s(W) for each building-set flat."""
    return tuple(ResolutionRow(W, W.rank - 1, W.mult) for W in building.flats)
