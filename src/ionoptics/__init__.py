"""Individual-addressing optics toolkit.

Gaussian-beam propagation through paraxial lens trains, the crosstalk /
numerical-aperture design tradeoff, two-level Rabi dynamics under a
Gaussian addressing envelope, scan fitting, and synthetic scan data,
with a CLI tying the pieces together.

Each public name is listed once, in ``_EXPORTS`` below, and each
submodule reads its ``__all__`` from its row there. A name is imported
from its submodule on first use (PEP 562), so ``import ionoptics`` loads
no submodule and the design half (beamlab, design_tradeoff, system_model)
runs without loading numpy.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it provides; each submodule's ``__all__``.
_EXPORTS = {
    "beamlab": (
        "RayMatrix", "IDENTITY", "SingularityError",
        "free_space", "thin_lens", "compose",
        "GaussianBeam", "propagate", "spot_radius_um",
        "rayleigh_range_mm", "far_field_divergence_rad",
    ),
    "design_tradeoff": (
        "DesignConstraints", "DesignPoint", "crosstalk", "required_na",
        "min_diameter_for_na", "tradeoff_curve",
    ),
    "rabi_model": (
        "BeamProfileParams", "SpamModel", "p_excited",
        "apply_spam", "crosstalk_rabi_bound", "intensity_crosstalk_ratio",
    ),
    "system_model": (
        "Axis", "AXES", "PrescriptionError", "PrescriptionElement", "OpticalPrescription",
        "BeamArraySpec", "AxisImage", "ImagePlaneReport", "DiscrepancyReport",
        "load_prescription", "reference_prescription",
        "image_distance_mm", "image_array", "compare_measured_pitch",
    ),
    "scan_fit": (
        "ScanDataset", "ScanFormatError", "DegenerateDataError",
        "FitConvergenceError", "FreqProfile", "FreqProfilePoint", "BeamFitResult",
        "PairReport", "fit_model", "fit_model_jacobian", "fit_beam", "fit_freq_profile",
        "d4sigma", "pair_analysis", "read_scan_csv", "write_scan_csv",
        "write_fit_report", "read_fit_report", "write_freq_profile_csv",
        "fit_report_dict",
    ),
    "synth_scan": ("SynthConfig", "generate", "position_jitter", "default_scan_grid"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    # Unknown names raise AttributeError, so ``from ionoptics import
    # scan_fit`` falls back to importing the submodule.
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
