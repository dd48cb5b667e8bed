"""Synthetic scans with binomial shot noise.

Ground-truth beam parameters plus a position/duration grid produce the
same CSV-shaped datasets the fitter consumes, so the full analysis chain
can be exercised end to end with known answers.

Randomness is counter-based, and this module keys every stream: each is
one vector draw from a fresh ``Philox(key=[seed, tag])``. Beam k's scan
counts, in position-major record order, are a ``binomial`` draw with tag
``k << 60``; its off-beam trace (``synth --emit-traces``) one with tag
``(k << 60) | 1``; ``position_jitter``'s offsets for stream s (``synth``
passes the beam index) a ``uniform`` draw with tag ``2^63 | s``. So a
record's draw depends on the seed, its stream and that stream's whole
grid; a rerun of one config is identical, and no two streams share a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _EXPORTS
from ._atomic import _count, _nonnegative
from .rabi_model import BeamProfileParams, SpamModel, apply_spam, p_excited
from .scan_fit import ScanDataset

__all__ = list(_EXPORTS["synth_scan"])

#: High bit of a jitter stream's key ``_JITTER_TAG | stream``: it sets the
#: jitter apart from every beam's key ``k << 60``.
_JITTER_TAG = 1 << 63

_BEAM_LABELS = ("A", "B")

#: Most positions, and most durations, a grid may hold: ``SynthConfig``
#: refuses a larger grid before any draw, ``default_scan_grid`` before it
#: builds one.
_GRID_LIMIT = 1 << 20


def _point_rng(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_word(name: str, value, bits: int) -> None:
    if isinstance(value, bool) or not (isinstance(value, int) and 0 <= value < 1 << bits):
        raise ValueError(f"{name} must be an integer in [0, 2^{bits})")


def _check_seed(rng_seed) -> None:
    _check_word("rng_seed", rng_seed, 64)


def _strictly_increasing(values: tuple[float, ...], name: str) -> None:
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a synthetic dataset; one or two ground-truth beams."""

    truth: tuple[BeamProfileParams, ...]
    positions_um: tuple[float, ...]
    durations_s: tuple[float, ...]
    shots: int = 200
    spam: SpamModel = field(default_factory=SpamModel)
    rng_seed: int = 0
    analytic: bool = False  # exact probabilities, no shot noise

    def __post_init__(self):
        truth = self.truth
        if isinstance(truth, BeamProfileParams):
            truth = (truth,)
        truth = tuple(truth)
        if not 1 <= len(truth) <= 2:
            raise ValueError(f"truth must hold 1 or 2 beams, got {len(truth)}")
        for beam in truth:
            if not isinstance(beam, BeamProfileParams):
                raise TypeError(f"truth entries must be BeamProfileParams, got {type(beam).__name__}")
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "positions_um", tuple(float(v) for v in self.positions_um))
        object.__setattr__(self, "durations_s", tuple(float(v) for v in self.durations_s))
        _strictly_increasing(self.positions_um, "positions_um")
        _strictly_increasing(self.durations_s, "durations_s")
        if self.durations_s[0] < 0:
            raise ValueError("durations_s must be >= 0")
        # before generate runs the model on a grid past the limit
        longest = max(len(self.positions_um), len(self.durations_s))
        if not self.analytic and longest > _GRID_LIMIT:
            raise ValueError("a grid may hold at most 2^20 positions and 2^20 durations")
        _count("shots", self.shots)
        _check_seed(self.rng_seed)


def _draw(config: SynthConfig, k: int, beam: BeamProfileParams, positions_um, tag: int):
    """Beam k's records over ``positions_um`` and the config's durations."""
    positions, durations = np.array(positions_um), np.array(config.durations_s)
    p = apply_spam(p_excited(beam, positions[:, None], durations), config.spam).ravel()
    if config.analytic:
        p1 = np.clip(p, 0.0, 1.0)
    else:
        p1 = _point_rng(config.rng_seed, tag).binomial(config.shots, p) / config.shots
    return ScanDataset(np.repeat(positions, durations.size), np.tile(durations, positions.size),
                       p1, np.full(p.size, config.shots), beam_label=_BEAM_LABELS[k])


def generate(config: SynthConfig) -> list[ScanDataset]:
    """One dataset per ground-truth beam (labels A, B), same grid for all.

    Each record's p1 is the SPAM-adjusted model probability; with
    ``analytic`` it is stored exactly, otherwise it is a binomial draw of
    ``shots`` shots divided by the shot count.
    """
    return [_draw(config, k, beam, config.positions_um, k << 60)
            for k, beam in enumerate(config.truth)]


def _off_beam_traces(config: SynthConfig) -> list[ScanDataset]:
    """Each of two beams driven alone, recorded at the other's center.

    Trace k is beam k's response at the other beam's center over the
    config's durations, drawn as ``generate`` draws a scan but keyed
    ``[seed, (k << 60) | 1]``, so no trace shares a scan's or a jitter's
    stream.
    """
    if len(config.truth) != 2:
        raise ValueError(f"off-beam traces need two beams, got {len(config.truth)}")
    pairs = (config.truth, config.truth[::-1])
    return [_draw(config, k, beam, (other.center_um,), (k << 60) | 1)
            for k, (beam, other) in enumerate(pairs)]


def position_jitter(
    data: ScanDataset, resolution_um: float, rng_seed: int = 0, stream: int = 0,
) -> ScanDataset:
    """Blur the *recorded* positions by uniform noise of one resolution step.

    Models a stage readout of finite resolution: each record's position is
    shifted by an independent uniform draw in [-resolution/2, +resolution/2]
    while the measured p1 stays tied to the true position. The offsets are
    one draw, in record order, from the stream keyed ``[seed, 2^63 |
    stream]``, so a given (seed, stream, dataset length) always jitters the
    same way; ``ionoptics synth`` passes the beam index as ``stream``, so
    two beams' scans get independent offsets. A resolution of 0 returns
    ``data`` itself.
    """
    _nonnegative("resolution_um", resolution_um)
    _check_seed(rng_seed)
    _check_word("stream", stream, 63)
    if resolution_um == 0:
        return data
    half = 0.5 * resolution_um
    offsets = _point_rng(rng_seed, _JITTER_TAG | stream).uniform(-half, half, len(data))
    x, t, p, shots = data.arrays()
    return ScanDataset(x + offsets, t, p, shots, beam_label=data.beam_label)


def default_scan_grid(
    truth: BeamProfileParams | Sequence[BeamProfileParams],
    n_positions: int = 61,
    n_durations: int = 21,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Grid covering every beam: centers +- 3 w0, three slow-beam periods.

    61 positions over a single beam's 6 w0 span step at w0/10; durations
    run from zero through three full oscillation periods of the slowest
    beam. For two beams the position span widens to cover both envelopes
    (the count grows to keep the step at the narrowest w0/10 if needed).
    Raises ValueError, before any grid is built, when either count asked
    for, or the position count that step needs, would pass 2^20, the most
    positions or durations a grid may hold.
    """
    beams = (truth,) if isinstance(truth, BeamProfileParams) else tuple(truth)
    if not beams:
        raise ValueError("need at least one beam")
    _count("grid positions", n_positions, least=2)
    _count("grid durations", n_durations, least=2)
    if max(n_positions, n_durations) > _GRID_LIMIT:
        raise ValueError("a grid may hold at most 2^20 positions and 2^20 durations")
    lo = min(b.center_um - 3.0 * b.width_um for b in beams)
    hi = max(b.center_um + 3.0 * b.width_um for b in beams)
    step_cap = min(b.width_um for b in beams) / 10.0
    steps = (hi - lo) / step_cap
    if not steps <= _GRID_LIMIT - 1:  # inf when the span overflows
        raise ValueError(f"the beams span {hi - lo:g} um: a default grid at steps of "
                         f"w0/10 = {step_cap:g} um would need more than 2^20 positions")
    n_pos = max(n_positions, int(math.ceil(steps)) + 1)
    positions = tuple(float(v) for v in np.linspace(lo, hi, n_pos))
    t_max = 3.0 * 2.0 * math.pi / min(b.omega0 for b in beams)
    durations = tuple(float(v) for v in np.linspace(0.0, t_max, n_durations))
    return positions, durations
