"""Synthetic scan datasets with binomial shot noise.

Ground-truth beam parameters plus a position/duration grid produce the
same CSV-shaped datasets the fitter consumes, so the full analysis chain
can be exercised end to end with known answers.

Randomness is counter-based (Philox keyed per record), not sequential:
the draw for record (beam k, position i, duration j) depends only on the
seed and those indices, so datasets are reproducible regardless of
generation order and beams never share draws. Every record gets exactly
the stream of a fresh ``Philox(key=[seed, tag])`` without the cost of
building one: one Philox bit generator is re-keyed before each record by
assigning it a state dict, built once, that holds only plain ints (counter
and output buffer zeroed, the tag written into its key list in place).
The state setter reads every element it is given, and a plain int is far
cheaper for it to read than an element of a numpy array. A grid's tags are
range-checked and built once, as one list, before any draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rabi_model import BeamProfileParams, SpamModel, apply_spam, p_excited
from .scan_fit import ScanDataset

__all__ = ["SynthConfig", "generate", "position_jitter", "default_scan_grid"]

#: High bit tags the jitter stream so it never collides with record draws.
_JITTER_TAG = 1 << 63

_BEAM_LABELS = ("A", "B")


def _point_rng(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keyed_rngs(seed: int, tags: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each tag, one generator in exactly the state of ``_point_rng(seed, tag)``.

    The same generator is re-keyed and yielded every time: draw from it
    before advancing the iterator.
    """
    rng = _point_rng(seed, 0)
    bit_generator = rng.bit_generator
    key = [seed, 0]
    # The state of a fresh Philox: counter 0, empty output buffer.
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for tag in tags:
        key[1] = tag
        bit_generator.state = fresh
        yield rng


def _record_tags(beam: int, n_pos: int, n_dur: int) -> list[int]:
    """Tags of one beam's records in position-major order: ``beam << 40 | i << 20 | j``."""
    if not (n_pos <= 1 << 20 and n_dur <= 1 << 20):
        raise ValueError("grid too large for the record keying scheme "
                         "(more than 2^20 positions or durations)")
    return [(beam << 40) | (i << 20) | j for i in range(n_pos) for j in range(n_dur)]


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
        if (isinstance(self.shots, bool) or not isinstance(self.shots, numbers.Integral)
                or self.shots < 1):
            raise ValueError(f"shots must be an integer >= 1, got {self.shots!r}")
        if not (isinstance(self.rng_seed, int) and 0 <= self.rng_seed < 1 << 64):
            raise ValueError("rng_seed must be an integer in [0, 2^64)")


def generate(config: SynthConfig) -> list[ScanDataset]:
    """One dataset per ground-truth beam (labels A, B), same grid for all.

    Each record's p1 is the SPAM-adjusted model probability; with
    ``analytic`` it is stored exactly, otherwise it is a binomial draw of
    ``shots`` shots divided by the shot count.
    """
    positions, durations = np.array(config.positions_um), np.array(config.durations_s)
    n_pos, n_dur = positions.size, durations.size
    shots = config.shots
    datasets = []
    for k, beam in enumerate(config.truth):
        p = apply_spam(p_excited(beam, positions[:, None], durations), config.spam).ravel()
        if config.analytic:
            p1 = np.clip(p, 0.0, 1.0)
        else:
            tags = _record_tags(k, n_pos, n_dur)
            counts = [rng.binomial(shots, pk)
                      for rng, pk in zip(_keyed_rngs(config.rng_seed, tags), p.tolist())]
            p1 = np.array(counts, dtype=np.int64) / shots
        datasets.append(ScanDataset(
            np.repeat(positions, n_dur), np.tile(durations, n_pos), p1,
            np.full(p.size, shots), beam_label=_BEAM_LABELS[k],
        ))
    return datasets


def position_jitter(data: ScanDataset, resolution_um: float, rng_seed: int = 0) -> ScanDataset:
    """Blur the *recorded* positions by uniform noise of one resolution step.

    Models a stage readout of finite resolution: each record's position is
    shifted by an independent uniform draw in [-resolution/2, +resolution/2]
    while the measured p1 stays tied to the true position. Draws are keyed
    by record index, so a given (seed, dataset shape) always jitters the
    same way.
    """
    if resolution_um < 0 or not math.isfinite(resolution_um):
        raise ValueError(f"resolution_um must be finite and >= 0, got {resolution_um}")
    if resolution_um == 0:
        return replace(data, position_resolution_um=0.0)
    half = 0.5 * resolution_um
    tags = (_JITTER_TAG | idx for idx in range(len(data)))
    offsets = np.fromiter((rng.uniform(-half, half) for rng in _keyed_rngs(rng_seed, tags)),
                          dtype=float, count=len(data))
    x, t, p, shots = data.arrays()
    return ScanDataset(x + offsets, t, p, shots, beam_label=data.beam_label,
                       position_resolution_um=resolution_um)


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
    """
    beams = (truth,) if isinstance(truth, BeamProfileParams) else tuple(truth)
    if not beams:
        raise ValueError("need at least one beam")
    if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (n_positions, n_durations)):
        raise ValueError(f"need integer counts of at least 2 positions and 2 durations, "
                         f"got {n_positions!r} and {n_durations!r}")
    lo = min(b.center_um - 3.0 * b.width_um for b in beams)
    hi = max(b.center_um + 3.0 * b.width_um for b in beams)
    step_cap = min(b.width_um for b in beams) / 10.0
    n_pos = max(n_positions, int(math.ceil((hi - lo) / step_cap)) + 1)
    positions = tuple(float(v) for v in np.linspace(lo, hi, n_pos))
    t_max = 3.0 * 2.0 * math.pi / min(b.omega0 for b in beams)
    durations = tuple(float(v) for v in np.linspace(0.0, t_max, n_durations))
    return positions, durations
