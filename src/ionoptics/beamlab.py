"""Gaussian beam propagation through ABCD ray-transfer matrices.

Conventions
-----------
* Distances along the optical axis are in mm, transverse beam sizes in um,
  wavelengths in um.
* "Diameter" anywhere in this package means twice the 1/e^2 intensity
  radius w.
* A GaussianBeam is one transverse axis. Astigmatism lives in
  ``system_model``, which gives each axis ("axial" along the beam array,
  "radial" across it) its own matrix chain and propagates one beam per axis.
* The complex beam parameter at a reference plane z = 0 is
  q = (z - z_waist) + i*z_R with z_R = pi*w0^2/lambda, and an element with
  ray matrix [[a, b], [c, d]] maps it to q' = (a*q + b)/(c*q + d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import _EXPORTS
from ._atomic import _positive

__all__ = list(_EXPORTS["beamlab"])

#: |det - 1| tolerance for ray matrices (same-index input/output media).
DET_TOL = 1e-9

#: Default wavelength of the design half and the CLI, um (355 nm).
_WAVELENGTH_UM = 0.355


class SingularityError(ArithmeticError):
    """An ABCD transform or imaging solve has no finite solution."""


# === Ray-transfer matrices ==================================================


@dataclass(frozen=True, slots=True)
class RayMatrix:
    """2x2 ray-transfer matrix [[a, b], [c, d]], unit determinant."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"matrix entry {name} is not finite")
        if abs(self.det - 1.0) > DET_TOL:
            raise ValueError(f"ray matrix determinant {self.det!r} is not 1")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "RayMatrix") -> "RayMatrix":
        """Matrix product self @ other (other acts first)."""
        return RayMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

    def transform_q(self, q: complex) -> complex:
        """Map a complex beam parameter, q' = (a*q + b)/(c*q + d)."""
        den = self.c * q + self.d
        if den == 0:
            raise SingularityError("ABCD transform denominator vanished")
        return (self.a * q + self.b) / den


IDENTITY = RayMatrix(1.0, 0.0, 0.0, 1.0)


def free_space(distance_mm: float) -> RayMatrix:
    """Propagation over a gap: [[1, d], [0, 1]]. Negative d is a virtual gap."""
    if not math.isfinite(distance_mm):
        raise ValueError(f"gap length must be finite, got {distance_mm!r}")
    return RayMatrix(1.0, distance_mm, 0.0, 1.0)


def thin_lens(focal_length_mm: float) -> RayMatrix:
    """Ideal thin lens: [[1, 0], [-1/f, 1]]. f = +/-inf degenerates to a flat optic."""
    if math.isnan(focal_length_mm) or focal_length_mm == 0:
        raise ValueError(f"focal length must be nonzero, got {focal_length_mm!r}")
    if math.isinf(focal_length_mm):
        return IDENTITY
    return RayMatrix(1.0, 0.0, -1.0 / focal_length_mm, 1.0)


def compose(elements: Iterable[RayMatrix]) -> RayMatrix:
    """Compose elements in propagation order (the first element acts first)."""
    total = None
    for m in elements:
        total = m if total is None else m @ total
    if total is None:
        raise ValueError("cannot compose an empty element sequence")
    return total


# === Gaussian beams =========================================================


@dataclass(frozen=True, slots=True)
class GaussianBeam:
    """One transverse axis of a Gaussian beam at a reference plane: waist
    radius (um) and waist position (mm, relative to that plane)."""

    wavelength_um: float
    waist_radius_um: float
    waist_position_mm: float = 0.0

    def __post_init__(self):
        _positive("wavelength", self.wavelength_um)
        _positive("waist radius", self.waist_radius_um)
        if not math.isfinite(self.waist_position_mm):
            raise ValueError("waist position must be finite")


def rayleigh_range_mm(wavelength_um: float, waist_radius_um: float) -> float:
    """z_R = pi*w0^2/lambda, converted to mm."""
    return math.pi * waist_radius_um**2 / wavelength_um * 1e-3


def far_field_divergence_rad(wavelength_um: float, waist_radius_um: float) -> float:
    """Half-angle divergence lambda/(pi*w0)."""
    return wavelength_um / (math.pi * waist_radius_um)


def propagate(beam: GaussianBeam, m: RayMatrix) -> GaussianBeam:
    """Propagate a beam through a ray matrix.

    The returned beam is referenced to the output plane of ``m``: its waist
    radius and waist position are extracted from the transformed q parameter.

    Parameters
    ----------
    beam : GaussianBeam
        Input beam, referenced to the input plane of ``m``.
    m : RayMatrix
        Composed ray matrix (first element acts first).

    Raises ValueError, naming the waist radius and the wavelength, when
    floats cannot carry the beam: its Rayleigh range overflows or
    underflows, or the output beam's waist or its radius at the output
    plane is not finite and positive. A ray matrix has unit determinant,
    so the exact Im q' = Im q / |c*q + d|^2 is positive; a computed one
    that is not has underflowed.
    """
    # q(z=0) = (0 - z_waist) + i*z_R
    try:
        z_r = rayleigh_range_mm(beam.wavelength_um, beam.waist_radius_um)
    except OverflowError:  # the waist squared
        z_r = math.inf
    if not 0 < z_r < math.inf:
        raise ValueError(f"Rayleigh range of {_named(beam)} is beyond the float range")
    q = m.transform_q(complex(-beam.waist_position_mm, z_r))
    w0_sq = beam.wavelength_um * q.imag * 1e3 / math.pi
    # the output plane's offset from the waist in Rayleigh ranges; a beam
    # whose u^2 there overflows is refused
    u = q.real / q.imag if w0_sq > 0 else math.inf
    if 0 < w0_sq < math.inf and u * u < math.inf:
        return GaussianBeam(beam.wavelength_um, waist_radius_um=math.sqrt(w0_sq),
                            waist_position_mm=-q.real)
    raise ValueError(f"beam of {_named(beam)} leaves the float range when propagated")


def _named(beam: GaussianBeam) -> str:
    return f"waist radius {beam.waist_radius_um!r} um at wavelength {beam.wavelength_um!r} um"


def spot_radius_um(beam: GaussianBeam, z_mm: float = 0.0) -> float:
    """1/e^2 intensity radius w(z) at distance z from the reference plane.

    w(z) = w0*sqrt(1 + u^2) with u = (z - z_waist)/z_R
    """
    z_r = rayleigh_range_mm(beam.wavelength_um, beam.waist_radius_um)
    u = (z_mm - beam.waist_position_mm) / z_r
    u_sq = u * u
    if u_sq == math.inf:  # |u| > ~1.3e154, where sqrt(1 + u^2) is |u| to the last bit
        return beam.waist_radius_um * abs(u)
    return beam.waist_radius_um * math.sqrt(1.0 + u_sq)
