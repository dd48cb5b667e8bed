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
reads dark with probability eps_meas, so it reads bright with probability
eps_prep + kappa*sin^2(...), kappa = 1 - eps_prep - eps_meas. One kernel,
``_excitation``, evaluates that model for synthesis and the fit alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._atomic import _nonnegative, _positive

__all__ = list(_EXPORTS["rabi_model"])


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
        _positive("omega0", self.omega0)
        if not math.isfinite(self.center_um):
            raise ValueError("center must be finite")
        _positive("width", self.width_um)


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

    @property
    def kappa(self) -> float:
        """Contrast 1 - eps_prep - eps_meas: the span of measured probabilities."""
        return 1.0 - self.eps_prep - self.eps_meas


def local_rabi(params: BeamProfileParams, x_um):
    """Local Rabi frequency Omega(x) = Omega0*exp(-2*(x-x_c)^2/w0^2), rad/s."""
    x = np.asarray(x_um, dtype=float)
    u = (x - params.center_um) / params.width_um
    return params.omega0 * np.exp(-2.0 * u * u)


def _excitation(vec, x, t):
    """Model eps_prep + kappa*sin^2(theta), theta = Omega(x)*t/2, at vec =
    (omega0, center, width, eps_prep, kappa), and ``fill_jacobian(out)``,
    which writes the five partials into out[0] ... out[4] from the model's
    own exponential, phase and sin^2. sin^2 is a product: numpy squares a
    scalar with libm ``pow``, which can round unlike the array multiply.
    """
    om, xc, w0, eps_prep, kappa = vec
    dx = x - xc
    u = dx / w0
    g = np.exp(-2.0 * u * u)
    theta = 0.5 * om * t * g
    s = np.sin(theta)
    sin_sq = s * s

    def fill_jacobian(out: np.ndarray) -> None:
        s2 = np.sin(2.0 * theta)
        s2 *= kappa
        np.multiply(s2 * (0.5 * t), g, out=out[0, ...])
        s2 *= theta
        s2 *= 4.0
        np.divide(s2 * dx, w0**2, out=out[1, ...])
        np.divide(s2 * (dx * dx), w0**3, out=out[2, ...])
        out[3, ...] = 1.0
        out[4, ...] = sin_sq

    return eps_prep + kappa * sin_sq, fill_jacobian


def p_excited(params: BeamProfileParams, x_um, t_s):
    """Excitation probability sin^2(Omega(x)*t/2) for on-resonance drive:
    ``_excitation`` at SPAM (0, 1), for broadcastable position (um) and
    duration (s)."""
    x, t = np.asarray(x_um, dtype=float), np.asarray(t_s, dtype=float)
    if np.any(t < 0):
        raise ValueError("pulse durations must be >= 0")
    return _excitation((params.omega0, params.center_um, params.width_um, 0.0, 1.0), x, t)[0]


def apply_spam(p_ideal, spam: SpamModel):
    """Measured probability: eps_prep + kappa * p_ideal."""
    p = np.asarray(p_ideal, dtype=float)
    return spam.eps_prep + spam.kappa * p


def crosstalk_rabi_bound(observation_window_s: float, detection_floor: float) -> float:
    """Largest Rabi frequency hiding below a detection floor for a whole window.

    The largest Omega with max over t in [0, T] of sin^2(Omega*t/2) <= floor,
    i.e. Omega = (2/T)*arcsin(sqrt(floor)). The arcsin keeps Omega*T/2 <=
    pi/2, so the first oscillation maximum stays inside the window. Returns
    rad/s.
    """
    _positive("observation window", observation_window_s)
    if not 0 < detection_floor < 1:
        raise ValueError(f"detection floor must be in (0, 1), got {detection_floor!r}")
    return 2.0 / observation_window_s * math.asin(math.sqrt(detection_floor))


def intensity_crosstalk_ratio(omega_bound: float, omega_peak: float) -> float:
    """Intensity crosstalk ratio from two Rabi frequencies (Omega ∝ I, so linear)."""
    _positive("peak Rabi frequency", omega_peak)
    _nonnegative("bound", omega_bound)
    return omega_bound / omega_peak
