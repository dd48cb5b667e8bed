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
import numbers
from dataclasses import dataclass

__all__ = [
    "DesignConstraints",
    "DesignPoint",
    "crosstalk",
    "required_na",
    "min_diameter_for_na",
    "tradeoff_curve",
    "clipping_fraction",
]


@dataclass(frozen=True)
class DesignConstraints:
    """Fixed system parameters for a tradeoff study."""

    wavelength_um: float = 0.355
    neighbor_distance_um: float = 5.0
    na_cap: float = 0.24

    def __post_init__(self):
        if not (math.isfinite(self.wavelength_um) and self.wavelength_um > 0):
            raise ValueError(f"wavelength must be positive, got {self.wavelength_um!r}")
        if not (math.isfinite(self.neighbor_distance_um) and self.neighbor_distance_um > 0):
            raise ValueError(
                f"neighbor distance must be positive, got {self.neighbor_distance_um!r}"
            )
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
    if not (math.isfinite(beam_diameter_um) and beam_diameter_um > 0):
        raise ValueError(f"beam diameter must be positive, got {beam_diameter_um!r}")
    if not (math.isfinite(neighbor_distance_um) and neighbor_distance_um >= 0):
        raise ValueError(
            f"neighbor distance must be finite and >= 0, got {neighbor_distance_um!r}")
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
    if not (math.isfinite(beam_diameter_um) and beam_diameter_um > 0):
        raise ValueError(f"beam diameter must be positive, got {beam_diameter_um!r}")
    if not (math.isfinite(wavelength_um) and wavelength_um > 0):
        raise ValueError(f"wavelength must be positive, got {wavelength_um!r}")
    w0 = beam_diameter_um / 2.0
    theta = wavelength_um / (math.pi * w0)
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
    if not (math.isfinite(wavelength_um) and wavelength_um > 0):
        raise ValueError(f"wavelength must be positive, got {wavelength_um!r}")
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
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")
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


def clipping_fraction(spot_radius_um: float, clearance_um: float) -> float:
    """Fraction of Gaussian beam power clipped by a half-plane at distance h.

    For a beam of 1/e^2 radius w at an aperture whose edge clears the beam
    center by h: P_clip/P_total = erfc(sqrt(2)*h/w)/2.
    """
    if not (math.isfinite(spot_radius_um) and spot_radius_um > 0):
        raise ValueError(f"spot radius must be positive, got {spot_radius_um!r}")
    if not (math.isfinite(clearance_um) and clearance_um >= 0):
        raise ValueError(f"clearance must be finite and >= 0, got {clearance_um!r}")
    return 0.5 * math.erfc(math.sqrt(2.0) * clearance_um / spot_radius_um)
