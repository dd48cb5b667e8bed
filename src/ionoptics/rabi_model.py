"""Two-level resonant Rabi dynamics under a Gaussian addressing beam.

An ion at transverse position x inside a beam centered at x_c sees a local
Rabi frequency

    Omega(x) = Omega0 * exp(-2*(x - x_c)^2 / w0^2)

and, driven on resonance for a time t, is excited with probability
sin^2(Omega(x)*t/2). The width parameter w0 is the e-folding parameter of
the exp(-2 u^2/w0^2) envelope exactly as fitted in practice; the second
moment (D4sigma) of this profile is 2*w0. Because the two-photon drive's
Rabi frequency is proportional to laser intensity, ratios of Rabi
frequencies are intensity ratios directly (not square roots).

State preparation and measurement (SPAM) errors map ideal probabilities
affinely: a dark ion reads bright with probability eps_prep and a bright ion
reads dark with probability eps_meas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BeamProfileParams",
    "SpamModel",
    "local_rabi",
    "p_excited",
    "apply_spam",
    "crosstalk_rabi_bound",
    "intensity_crosstalk_ratio",
]


@dataclass(frozen=True)
class BeamProfileParams:
    """Ground-truth or fitted beam parameters.

    omega0 : peak Rabi frequency at the beam center, rad/s
    center_um : beam center x_c, um
    width_um : envelope width parameter w0, um
    """

    omega0: float
    center_um: float
    width_um: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ValueError(f"omega0 must be positive, got {self.omega0!r}")
        if not math.isfinite(self.center_um):
            raise ValueError("center must be finite")
        if not (math.isfinite(self.width_um) and self.width_um > 0):
            raise ValueError(f"width must be positive, got {self.width_um!r}")


@dataclass(frozen=True)
class SpamModel:
    """Asymmetric SPAM error rates.

    eps_prep : probability that an undriven (dark) ion is read bright; sets
        the floor of measured probabilities.
    eps_meas : probability that a fully excited ion is read dark; sets the
        ceiling at 1 - eps_meas.
    """

    eps_prep: float = 0.01
    eps_meas: float = 0.01

    def __post_init__(self):
        for name in ("eps_prep", "eps_meas"):
            v = getattr(self, name)
            if not (0 <= v < 0.5):
                raise ValueError(f"{name} must be in [0, 0.5), got {v!r}")


def local_rabi(params: BeamProfileParams, x_um):
    """Local Rabi frequency Omega(x) = Omega0*exp(-2*(x-x_c)^2/w0^2), rad/s."""
    x = np.asarray(x_um, dtype=float)
    u = (x - params.center_um) / params.width_um
    return params.omega0 * np.exp(-2.0 * u * u)


def p_excited(params: BeamProfileParams, x_um, t_s):
    """Excitation probability sin^2(Omega(x)*t/2) for on-resonance drive.

    Accepts scalars or broadcastable arrays for position (um) and duration (s).
    Each element is the same float whichever way it is evaluated: the square
    is a product, because numpy squares a scalar with libm ``pow``, which can
    round differently from the array path's multiply.
    """
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0):
        raise ValueError("pulse durations must be >= 0")
    s = np.sin(local_rabi(params, x_um) * t / 2.0)
    return s * s


def apply_spam(p_ideal, spam: SpamModel):
    """Measured probability: eps_prep + (1 - eps_prep - eps_meas) * p_ideal."""
    p = np.asarray(p_ideal, dtype=float)
    return spam.eps_prep + (1.0 - spam.eps_prep - spam.eps_meas) * p


def crosstalk_rabi_bound(observation_window_s: float, detection_floor: float) -> float:
    """Largest Rabi frequency hiding below a detection floor for a whole window.

    The largest Omega with max over t in [0, T] of sin^2(Omega*t/2) <= floor,
    i.e. Omega = (2/T)*arcsin(sqrt(floor)). The arcsin keeps Omega*T/2 <=
    pi/2, so the first oscillation maximum stays inside the window. Returns
    rad/s.
    """
    if not (math.isfinite(observation_window_s) and observation_window_s > 0):
        raise ValueError(f"observation window must be positive, got {observation_window_s!r}")
    if not 0 < detection_floor < 1:
        raise ValueError(f"detection floor must be in (0, 1), got {detection_floor!r}")
    return 2.0 / observation_window_s * math.asin(math.sqrt(detection_floor))


def intensity_crosstalk_ratio(omega_bound: float, omega_peak: float) -> float:
    """Intensity crosstalk ratio from two Rabi frequencies (Omega ∝ I, so linear)."""
    if not (math.isfinite(omega_peak) and omega_peak > 0):
        raise ValueError(f"peak Rabi frequency must be positive, got {omega_peak!r}")
    if not (math.isfinite(omega_bound) and omega_bound >= 0):
        raise ValueError(f"bound must be finite and >= 0, got {omega_bound!r}")
    return omega_bound / omega_peak
