"""The shared input rules: every positive, non-negative and count check, by
its public entry point, with its exact message."""

import math

import numpy as np
import pytest

from ionoptics.beamlab import GaussianBeam
from ionoptics.design_tradeoff import (
    DesignConstraints, crosstalk, min_diameter_for_na, required_na, tradeoff_curve,
)
from ionoptics.rabi_model import (
    BeamProfileParams, SpamModel, crosstalk_rabi_bound, intensity_crosstalk_ratio,
)
from ionoptics.scan_fit import BeamFitResult, ScanDataset, fit_beam, pair_analysis
from ionoptics.synth_scan import SynthConfig, default_scan_grid, position_jitter
from ionoptics.system_model import (
    BeamArraySpec, compare_measured_pitch, image_array, reference_prescription,
)

BEAM = BeamProfileParams(omega0=2.0 * math.pi * 1910.0, center_um=0.0, width_um=1.86)


def _scan():
    return ScanDataset([0.0], [0.0], [0.5], [100])


def _fit():
    return BeamFitResult(
        params=BEAM, covariance=np.eye(3), residual_rms=1.0, freq_profile=(),
        n_iterations=1, converged=True, spam=SpamModel(), spam_errors=(0.0, 0.0))


def _report():
    return image_array(reference_prescription(), BeamArraySpec(200.0, 450.0, 10))


# (call, message): each raises ValueError with exactly that message
CASES = {
    # beamlab
    "GaussianBeam-wavelength": (lambda: GaussianBeam(0.0, 1.0),
                                "wavelength must be positive, got 0.0"),
    "GaussianBeam-waist-radius": (lambda: GaussianBeam(0.355, -1.0),
                                  "waist radius must be positive, got -1.0"),
    # design_tradeoff
    "DesignConstraints-wavelength": (lambda: DesignConstraints(wavelength_um=math.nan),
                                     "wavelength must be positive, got nan"),
    "DesignConstraints-neighbor-distance": (lambda: DesignConstraints(neighbor_distance_um=0.0),
                                            "neighbor distance must be positive, got 0.0"),
    "crosstalk-diameter": (lambda: crosstalk(math.inf, 5.0),
                           "beam diameter must be positive, got inf"),
    "crosstalk-neighbor-distance": (lambda: crosstalk(1.9, -1.0),
                                    "neighbor distance must be finite and >= 0, got -1.0"),
    "required_na-diameter": (lambda: required_na(-1.9),
                             "beam diameter must be positive, got -1.9"),
    "required_na-wavelength": (lambda: required_na(1.9, 0.0),
                               "wavelength must be positive, got 0.0"),
    "min_diameter_for_na-wavelength": (lambda: min_diameter_for_na(0.24, -0.355),
                                       "wavelength must be positive, got -0.355"),
    "tradeoff_curve-samples": (lambda: tradeoff_curve(DesignConstraints(), (1.0, 3.0), 1),
                               "samples must be an integer >= 2, got 1"),
    "tradeoff_curve-samples-float": (lambda: tradeoff_curve(DesignConstraints(), (1.0, 3.0), 2.0),
                                     "samples must be an integer >= 2, got 2.0"),
    # rabi_model
    "BeamProfileParams-omega0": (lambda: BeamProfileParams(0.0, 0.0, 1.0),
                                 "omega0 must be positive, got 0.0"),
    "BeamProfileParams-width": (lambda: BeamProfileParams(1.0, 0.0, math.inf),
                                "width must be positive, got inf"),
    "crosstalk_rabi_bound-window": (lambda: crosstalk_rabi_bound(0.0, 0.01),
                                    "observation window must be positive, got 0.0"),
    "intensity_crosstalk_ratio-peak": (lambda: intensity_crosstalk_ratio(1.0, -1.0),
                                       "peak Rabi frequency must be positive, got -1.0"),
    "intensity_crosstalk_ratio-bound": (lambda: intensity_crosstalk_ratio(math.nan, 1.0),
                                        "bound must be finite and >= 0, got nan"),
    # system_model
    "BeamArraySpec-diameter": (lambda: BeamArraySpec(0.0, 450.0, 10),
                               "source diameter must be positive, got 0.0"),
    "BeamArraySpec-pitch": (lambda: BeamArraySpec(200.0, math.nan, 10),
                            "source pitch must be positive, got nan"),
    "BeamArraySpec-channels": (lambda: BeamArraySpec(200.0, 450.0, 0),
                               "channel count must be an integer >= 1, got 0"),
    "BeamArraySpec-channels-bool": (lambda: BeamArraySpec(200.0, 450.0, True),
                                    "channel count must be an integer >= 1, got True"),
    "compare_measured_pitch-pitch": (lambda: compare_measured_pitch(_report(), -4.4, 0.05),
                                     "measured pitch must be positive, got -4.4"),
    "compare_measured_pitch-error": (lambda: compare_measured_pitch(_report(), 4.4, 0.0),
                                     "measurement error must be positive, got 0.0"),
    # synth_scan
    "SynthConfig-shots": (lambda: SynthConfig(BEAM, (0.0, 1.0), (0.0, 1e-4), shots=2.0),
                          "shots must be an integer >= 1, got 2.0"),
    "position_jitter-resolution": (lambda: position_jitter(_scan(), -0.1),
                                   "resolution_um must be finite and >= 0, got -0.1"),
    "default_scan_grid-positions": (lambda: default_scan_grid(BEAM, 1, 21),
                                    "grid positions must be an integer >= 2, got 1"),
    "default_scan_grid-durations": (lambda: default_scan_grid(BEAM, 61, 2.0),
                                    "grid durations must be an integer >= 2, got 2.0"),
    "default_scan_grid-span": (
        lambda: default_scan_grid((BEAM, BeamProfileParams(1.0, 2e5, 1.0))),
        "the beams span 200009 um: a default grid at steps of w0/10 = 0.1 um "
        "would need more than 2^20 positions"),
    # scan_fit
    "fit_beam-max_iterations": (lambda: fit_beam(_scan(), max_iterations=0),
                                "max_iterations must be an integer >= 1, got 0"),
    "pair_analysis-window": (lambda: pair_analysis(_fit(), _fit(), observation_window_s=0.0),
                             "observation window must be positive, got 0.0"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_rejected_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
