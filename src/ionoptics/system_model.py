"""Multi-stage telescope modeling: prescriptions, imaging, and array mapping.

A prescription is an ordered chain of thin lenses and gaps between a source
plane (the deflector output, where the beam array originates) and an image
plane (the target sites). Cylindrical lenses are expressed by tagging an
element with the axis it acts on; an element tagged "both" is spherical.

Imaging works per axis: the image plane for an axis is the plane where the
b entry of the composed source-to-image ray matrix vanishes; that entry is
linear in the trailing gap, so the gap has a closed form. An anamorphic
train generally focuses the two axes at slightly different planes; reports
carry that astigmatic offset explicitly rather than hiding it, and per-axis
spot diameters come from full Gaussian propagation, never from the
magnification shortcut.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Literal

from . import _EXPORTS
from ._atomic import _count, _is_finite_number, _positive, _read_json
from .beamlab import (
    _WAVELENGTH_UM,
    GaussianBeam,
    RayMatrix,
    SingularityError,
    compose,
    free_space,
    spot_radius_um,
    thin_lens,
    propagate,
)

__all__ = list(_EXPORTS["system_model"])

Axis = Literal["axial", "radial"]
AXES: tuple[Axis, Axis] = ("axial", "radial")
ElementAxis = Literal["axial", "radial", "both"]
_ELEMENT_KINDS = ("lens", "gap")
_ELEMENT_AXES = ("axial", "radial", "both")

#: A measured pitch agrees with the model within this many measurement errors.
_PITCH_K = 3.0


class PrescriptionError(ValueError):
    """A prescription file or structure violates the schema."""


@dataclass(frozen=True, slots=True)
class PrescriptionElement:
    kind: Literal["lens", "gap"]
    value_mm: float
    axis: ElementAxis = "both"

    def applies_to(self, axis: Axis) -> bool:
        if self.axis == "both" or self.axis == axis:
            return True
        if self.axis not in _ELEMENT_AXES:
            raise ValueError(f"element axis must be one of {_ELEMENT_AXES}, got {self.axis!r}")
        return False

    def matrix(self) -> RayMatrix:
        if self.kind == "lens":
            return thin_lens(self.value_mm)
        if self.kind == "gap":
            return free_space(self.value_mm)
        raise ValueError(f"element kind must be one of {_ELEMENT_KINDS}, got {self.kind!r}")


@dataclass(frozen=True, slots=True)
class OpticalPrescription:
    name: str
    elements: tuple[PrescriptionElement, ...]
    source_label: str = "source"
    image_label: str = "image"

    def __post_init__(self):
        for axis in AXES:
            if not any(e.kind == "lens" and e.applies_to(axis) for e in self.elements):
                raise PrescriptionError(f"prescription {self.name!r} has no lens on the {axis} axis")

    def matrix(self, axis: Axis) -> RayMatrix:
        """Composed source-to-last-element matrix for one axis."""
        if axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
        return compose(e.matrix() for e in self.elements if e.applies_to(axis))


@dataclass(frozen=True, slots=True)
class BeamArraySpec:
    """Beam array at the source plane: round beams on a uniform pitch."""

    source_diameter_um: float
    source_pitch_um: float
    channel_count: int

    def __post_init__(self):
        _positive("source diameter", self.source_diameter_um)
        _positive("source pitch", self.source_pitch_um)
        _count("channel count", self.channel_count)


@dataclass(frozen=True, slots=True)
class AxisImage:
    magnification: float  # |a| at this axis's image plane
    inverted: bool
    image_distance_mm: float  # trailing gap from the last element
    diameter_um: float  # Gaussian spot diameter at this axis's image plane
    waist_offset_mm: float  # waist position relative to that plane


@dataclass(frozen=True, slots=True)
class ImagePlaneReport:
    prescription_name: str
    wavelength_um: float
    axial: AxisImage
    radial: AxisImage
    pitch_um: float
    centers_um: tuple[float, ...]
    astigmatic_offset_mm: float  # axial image distance minus radial
    radial_diameter_at_axial_plane_um: float
    notes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class DiscrepancyReport:
    predicted_um: float
    measured_um: float
    measured_err_um: float
    absolute_um: float  # measured - predicted
    relative: float  # (measured - predicted)/predicted
    n_sigma: float  # |absolute| / measured_err
    k: float
    within: bool  # |absolute| <= k * measured_err


# === Prescription files =====================================================


def _element_from_dict(raw: dict, path: str) -> PrescriptionElement:
    if not isinstance(raw, dict):
        raise PrescriptionError(f"{path}: expected an object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in _ELEMENT_KINDS:
        raise PrescriptionError(f"{path}.kind: expected one of {_ELEMENT_KINDS}, got {kind!r}")
    value = raw.get("value_mm")
    if not _is_finite_number(value):
        raise PrescriptionError(f"{path}.value_mm: expected a finite number, got {value!r}")
    if kind == "lens" and value == 0:
        raise PrescriptionError(f"{path}.value_mm: lens focal length must be nonzero")
    if kind == "gap" and value < 0:
        raise PrescriptionError(f"{path}.value_mm: gap length must be >= 0")
    axis = raw.get("axis", "both")
    if axis not in _ELEMENT_AXES:
        raise PrescriptionError(f"{path}.axis: expected one of {_ELEMENT_AXES}, got {axis!r}")
    unknown = set(raw) - {"kind", "value_mm", "axis"}
    if unknown:
        raise PrescriptionError(f"{path}.{sorted(unknown)[0]}: unknown field")
    return PrescriptionElement(kind=kind, value_mm=float(value), axis=axis)


def _prescription_from_dict(raw: dict) -> OpticalPrescription:
    if not isinstance(raw, dict):
        raise PrescriptionError(f"$: expected a JSON object, got {type(raw).__name__}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise PrescriptionError(f"name: expected a non-empty string, got {name!r}")
    elements = raw.get("elements")
    if not isinstance(elements, list) or not elements:
        raise PrescriptionError("elements: expected a non-empty array")
    parsed = tuple(
        _element_from_dict(e, f"elements[{i}]") for i, e in enumerate(elements)
    )
    unknown = set(raw) - {"name", "source_plane", "image_plane", "elements"}
    if unknown:
        raise PrescriptionError(f"{sorted(unknown)[0]}: unknown field")
    source = raw.get("source_plane", "source")
    image = raw.get("image_plane", "image")
    for field, value in (("source_plane", source), ("image_plane", image)):
        if not isinstance(value, str):
            raise PrescriptionError(f"{field}: expected a string, got {value!r}")
    return OpticalPrescription(
        name=name, elements=parsed, source_label=source, image_label=image
    )


def load_prescription(path: str | Path) -> OpticalPrescription:
    """Load a prescription JSON file; schema errors name the offending field."""
    return _prescription_from_dict(_read_json(path, PrescriptionError))


def reference_prescription() -> OpticalPrescription:
    """The packaged three-stage 105x/21x demagnifying train."""
    ref = resources.files("ionoptics.data").joinpath("reference_prescription.json")
    return _prescription_from_dict(json.loads(ref.read_text()))


# === Imaging solves =========================================================


def _image_plane(prescription: OpticalPrescription, axis: Axis) -> tuple[RayMatrix, float]:
    """One axis's train up to its image plane, and the trailing gap t that
    places that plane behind the last element; the train is composed once.

    With M the composed train, free_space(t) @ M has b entry b + t*d,
    which vanishes at t = -b/d.
    """
    m = prescription.matrix(axis)
    t = -m.b / m.d if m.d != 0 else math.inf
    if not math.isfinite(t):
        raise SingularityError(
            f"prescription {prescription.name!r} has no finite {axis} image plane"
        )
    if abs(t) > 1e9:
        raise SingularityError(
            f"prescription {prescription.name!r}: no {axis} image plane within 1e9 mm"
        )
    return free_space(t) @ m, t


def image_distance_mm(prescription: OpticalPrescription, axis: Axis) -> float:
    """Trailing gap placing the image plane for one axis."""
    return _image_plane(prescription, axis)[1]


def _axis_image(m: RayMatrix, t: float, source: GaussianBeam) -> AxisImage:
    """The image of ``source`` through ``m``, one axis's train up to its
    image plane ``t`` mm behind the last element."""
    out = propagate(source, m)
    return AxisImage(
        magnification=abs(m.a),
        inverted=m.a < 0,
        image_distance_mm=t,
        diameter_um=2.0 * spot_radius_um(out, 0.0),
        waist_offset_mm=out.waist_position_mm,
    )


def image_array(
    prescription: OpticalPrescription,
    array: BeamArraySpec,
    wavelength_um: float = _WAVELENGTH_UM,
) -> ImagePlaneReport:
    """Map a source-plane beam array to the image plane.

    Pitch and channel centers map through the axial-axis conjugate (the
    array spreads along the axial direction); per-axis diameters come from
    Gaussian propagation to each axis's own image plane, and the astigmatic
    offset between the two planes is reported with the radial spot size
    re-evaluated at the axial plane so any waist-plane mismatch is visible.
    """
    # the source beams are round: one beam serves both axes
    source = GaussianBeam(wavelength_um, array.source_diameter_um / 2.0)
    # each axis's image plane is solved once
    m_ax, t_ax = _image_plane(prescription, "axial")
    m_rad, t_rad = _image_plane(prescription, "radial")
    axial = _axis_image(m_ax, t_ax, source)
    radial = _axis_image(m_rad, t_rad, source)

    pitch = array.source_pitch_um * axial.magnification
    n = array.channel_count
    centers = tuple(pitch * (i - (n - 1) / 2.0) for i in range(n))

    offset = t_ax - t_rad
    radial_at_axial = propagate(source, free_space(offset) @ m_rad)
    radial_dia_at_axial = 2.0 * spot_radius_um(radial_at_axial, 0.0)

    notes = []
    if abs(offset) > 1e-6:
        notes.append(
            f"axial and radial image planes differ by {offset:.6g} mm; radial "
            f"diameter is quoted at the radial plane ({radial.diameter_um:.4g} um) "
            f"and grows to {radial_dia_at_axial:.4g} um at the axial plane"
        )
    return ImagePlaneReport(
        prescription_name=prescription.name,
        wavelength_um=wavelength_um,
        axial=axial,
        radial=radial,
        pitch_um=pitch,
        centers_um=centers,
        astigmatic_offset_mm=offset,
        radial_diameter_at_axial_plane_um=radial_dia_at_axial,
        notes=tuple(notes),
    )


def compare_measured_pitch(
    report: ImagePlaneReport,
    measured_pitch_um: float,
    measured_err_um: float,
) -> DiscrepancyReport:
    """Compare a measured pitch against the model prediction.

    ``within`` is True when |measured - predicted| <= _PITCH_K * measured_err.
    """
    _positive("measured pitch", measured_pitch_um)
    _positive("measurement error", measured_err_um)
    predicted = report.pitch_um
    absolute = measured_pitch_um - predicted
    return DiscrepancyReport(
        predicted_um=predicted,
        measured_um=measured_pitch_um,
        measured_err_um=measured_err_um,
        absolute_um=absolute,
        relative=absolute / predicted,
        n_sigma=abs(absolute) / measured_err_um,
        k=_PITCH_K,
        within=abs(absolute) <= _PITCH_K * measured_err_um,
    )
