"""Crosstalk vs numerical-aperture tradeoff for focused addressing beams.

The design question: a tightly focused beam addressing one site of a chain
leaks intensity onto the neighbors. Tighter focus (smaller diameter) buys
exponentially less crosstalk but demands a larger collection NA from the
final lens, which is capped by trap geometry. All formulas use the Gaussian
1/e^2 intensity radius w0 = diameter/2.

Crosstalk here is a pointwise intensity ratio: the beam intensity at the
nearest neighbor position normalized to the peak, exp(-2*d^2/w0^2) -- not an
integrated overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from ._atomic import _count, _nonnegative, _positive
from .beamlab import far_field_divergence_rad

__all__ = list(_EXPORTS["design_tradeoff"])


@dataclass(frozen=True)
class DesignConstraints:
    """Fixed system parameters for a tradeoff study."""

    wavelength_um: float = 0.355
    neighbor_distance_um: float = 5.0
    na_cap: float = 0.24

    def __post_init__(self):
        _positive("wavelength", self.wavelength_um)
        _positive("neighbor distance", self.neighbor_distance_um)
        if not 0 < self.na_cap < 2:
            raise ValueError(f"NA cap must be in (0, 2), got {self.na_cap!r}")


@dataclass(frozen=True)
class DesignPoint:
    beam_diameter_um: float
    required_na: float
    crosstalk: float


def crosstalk(beam_diameter_um: float, neighbor_distance_um: float) -> float:
    """Relative intensity at a neighbor d away from a beam of the given diameter.

    I(d)/I(0) = exp(-2*d^2/w0^2) with w0 = diameter/2.
    """
    _positive("beam diameter", beam_diameter_um)
    _nonnegative("neighbor distance", neighbor_distance_um)
    w0 = beam_diameter_um / 2.0
    try:
        return math.exp(-2.0 * neighbor_distance_um**2 / w0**2)
    except ZeroDivisionError:  # w0**2 underflows to 0
        raise ValueError(
            f"beam diameter {beam_diameter_um!r} um is too small to compute with") from None


def required_na(beam_diameter_um: float, wavelength_um: float = 0.355) -> float:
    """Numerical aperture needed to focus to the given 1/e^2 diameter.

    NA = 2*sin(lambda/(pi*w0)) with w0 = diameter/2. Diameters so small that
    the divergence half-angle lambda/(pi*w0) reaches pi/2 are outside the
    paraxial-Gaussian domain and raise ValueError.
    """
    _positive("beam diameter", beam_diameter_um)
    _positive("wavelength", wavelength_um)
    theta = far_field_divergence_rad(wavelength_um, beam_diameter_um / 2.0)
    if theta >= math.pi / 2:
        raise ValueError(
            f"diameter {beam_diameter_um} um is below the focusing limit "
            f"for wavelength {wavelength_um} um (divergence {theta:.3f} rad)"
        )
    return 2.0 * math.sin(theta)


def min_diameter_for_na(na_cap: float, wavelength_um: float = 0.355) -> float:
    """Smallest focusable 1/e^2 diameter under an NA cap (inverse of required_na)."""
    if not 0 < na_cap < 2:
        raise ValueError(f"NA cap must be in (0, 2), got {na_cap!r}")
    _positive("wavelength", wavelength_um)
    return 2.0 * wavelength_um / (math.pi * math.asin(na_cap / 2.0))


def tradeoff_curve(
    constraints: DesignConstraints,
    diameter_range_um: tuple[float, float],
    samples: int,
) -> list[DesignPoint]:
    """Sample the (diameter, required NA, crosstalk) tradeoff over a linear grid.

    The feasibility-boundary diameter min_diameter_for_na(na_cap) is inserted
    as an extra point when it falls inside the requested range. Points are
    returned sorted by diameter; crosstalk is strictly increasing along the
    curve and required NA strictly decreasing.
    """
    lo, hi = diameter_range_um
    if not (0 < lo < hi and math.isfinite(hi)):
        raise ValueError(
            f"diameter range must satisfy 0 < min < max < inf, got {diameter_range_um!r}")
    _count("samples", samples, least=2)
    step = (hi - lo) / (samples - 1)
    diameters = [lo + i * step for i in range(samples)]
    boundary = min_diameter_for_na(constraints.na_cap, constraints.wavelength_um)
    if lo < boundary < hi and all(abs(d - boundary) > 1e-12 for d in diameters):
        diameters.append(boundary)
        diameters.sort()
    return [
        DesignPoint(
            beam_diameter_um=d,
            required_na=required_na(d, constraints.wavelength_um),
            crosstalk=crosstalk(d, constraints.neighbor_distance_um),
        )
        for d in diameters
    ]
