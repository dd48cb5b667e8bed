"""Nonlinear least-squares analysis of position/duration scan data.

A scan dataset is a grid of records (position x, pulse duration t, measured
excitation probability p1, shot count), stored as four validated numpy
columns. The global fit extracts the beam parameters (Omega0, x_c, w0) of
the sin^2((Omega0*t/2)*exp(-2(x-x_c)^2/w0^2)) model together with the SPAM
errors, as eps_prep and the contrast kappa = 1 - eps_prep - eps_meas of
eps_prep + kappa*sin^2(...), by shot-weighted least squares with a
hand-rolled damped Gauss-Newton (Levenberg-Marquardt) loop and the analytic
Jacobian, both from ``rabi_model._excitation``, the kernel synthesis uses
too. A single matrix product over the stacked Jacobian and residual gives
the normal equations; a trial point is valid exactly when its beam and SPAM
construct as ``BeamProfileParams`` and ``SpamModel``. Per-position 1D fits
give the Rabi-frequency profile Omega(x), from which a D4sigma width is
computed; positions that share a duration sequence start from one grid
search done as two matrix products and are refined together in one batch,
with results identical to refining them one at a time. Pairs of fits yield
beam separations and crosstalk bounds.

Record weighting is binomial: weight = shots/(m(1-m) + q) with a variance
floor q = 1/(4*shots) so records at m in {0, 1} stay finite. The global fit
takes m from the model at its starting point, the per-position profile from
the measured p1. With the SPAM fitted and those weights, the residual RMS
of a well-specified fit sits near 1, which is the shot-noise floor used to
trigger multi-start recovery.

File formats (see docs/file_formats.md): scans travel as CSV with header
``position_um,duration_us,p1,shots``; fit results as JSON (frequencies in
Hz, lengths in um) plus a frequency-profile CSV.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from . import _EXPORTS
from ._atomic import _count, _is_finite_number, _positive, _read_json, _write_atomic, _write_json
from .rabi_model import (
    BeamProfileParams, SpamModel, _excitation, apply_spam, crosstalk_rabi_bound,
    intensity_crosstalk_ratio, p_excited,
)

__all__ = list(_EXPORTS["scan_fit"])

TWO_PI = 2.0 * math.pi

#: Convergence thresholds for the damped Gauss-Newton loop.
STEP_TOL = 1e-10
GRAD_TOL = 1e-12

#: Weighted residual RMS above this multiple of the shot-noise floor (1.0)
#: triggers multi-start recovery.
RESTART_RMS = 2.0


class ScanFormatError(ValueError):
    """A scan CSV violates the schema; the message carries the line number."""


class DegenerateDataError(ValueError):
    """The dataset cannot constrain the fit (rank-deficient design)."""


class FitConvergenceError(RuntimeError):
    """No optimizer run converged. Carries the best-so-far result."""

    def __init__(self, message: str, result: "BeamFitResult"):
        super().__init__(message)
        self.result = result


# === Datasets ===============================================================


#: Column names of a dataset, in record order, and the domain of each.
_COLUMNS = ("position_um", "duration_s", "p1", "shots")
_DOMAINS = ("must be finite", "must be finite and >= 0", "must be in [0, 1]", "must be >= 1")


def _first_out_of_domain(x, t, p, shots) -> tuple[int, int] | None:
    """(record, column) of the first value outside its column's domain, or None.

    Records are checked in order and, within a record, columns in the
    order of ``_COLUMNS``; the rule is unit-free, so it applies to
    durations in seconds and in microseconds alike.
    """
    bad = np.stack([
        ~np.isfinite(x),
        ~(np.isfinite(t) & (t >= 0)),
        ~((p >= 0) & (p <= 1)),  # NaN fails both comparisons
        shots < 1,
    ])
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size == 0:
        return None
    return int(rows[0]), int(np.argmax(bad[:, rows[0]]))


@dataclass(frozen=True, eq=False)
class ScanDataset:
    """A scan as four validated, read-only columns of equal length.

    ``position_um`` and ``duration_s`` (seconds) and ``p1`` are float64,
    ``shots`` is int64; the constructor copies what it is given. A
    dataset is immutable: derive a variant by building a new one from
    another's columns.
    """

    position_um: np.ndarray
    duration_s: np.ndarray
    p1: np.ndarray
    shots: np.ndarray
    beam_label: str = ""

    def __post_init__(self):
        shots = np.asarray(self.shots)
        if shots.size and shots.dtype.kind not in "iu":
            raise ValueError(f"shots must be integers, got dtype {shots.dtype}")
        columns = (
            np.array(self.position_um, dtype=float),
            np.array(self.duration_s, dtype=float),
            np.array(self.p1, dtype=float),
            shots.astype(np.int64),
        )
        if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
            raise ValueError("columns must be 1-D and of equal length")
        if columns[0].size == 0:
            raise ValueError("dataset has no records")
        bad = _first_out_of_domain(*columns)
        if bad is not None:
            i, k = bad
            raise ValueError(
                f"record {i}: {_COLUMNS[k]} {_DOMAINS[k]}, got {columns[k][i].item()!r}")
        for name, column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(positions um, durations s, p1, shots): the dataset's read-only columns."""
        return self.position_um, self.duration_s, self.p1, self.shots

    def __len__(self) -> int:
        return self.position_um.size

    def __eq__(self, other):
        if not isinstance(other, ScanDataset):
            return NotImplemented
        return (self.beam_label == other.beam_label
                and all(np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays())))

    @cached_property
    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts): the stable argsort of ``position_um``, and where
        each distinct position's run of records begins in that order.

        The grid check, the amplitude profile and the frequency profile all
        group records into positions by this, and by nothing else.
        """
        order = np.argsort(self.position_um, kind="stable")
        starts = np.flatnonzero(np.diff(self.position_um[order], prepend=-math.inf))
        order.flags.writeable = starts.flags.writeable = False
        return order, starts

    @cached_property
    def _amplitude(self) -> tuple[np.ndarray, np.ndarray]:
        # shared by the grid check and the initial guess of one fit
        return _amplitude_profile(self)


# np.unique and np.median import numpy.ma (15-19 ms) on first use; these
# sort-based forms keep it out of the fit and pair steps.
def _n_distinct(values: np.ndarray) -> int:
    """Number of distinct values, as ``np.unique(values).size``."""
    s = np.sort(values)
    return int(s.size > 0) + int(np.count_nonzero(s[1:] != s[:-1]))


def _median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence, as ``float(np.median(values))``."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _require_fit_grid(data: ScanDataset) -> None:
    n_t, n_x = _n_distinct(data.duration_s), data._positions[1].size
    if n_t == 1:
        raise DegenerateDataError("all durations equal; the fit is rank-deficient")
    if n_x < 4:
        raise DegenerateDataError(f"need >= 4 distinct positions, got {n_x}")
    if n_t < 4:
        raise DegenerateDataError(f"need >= 4 distinct durations, got {n_t}")
    if len(data) < 12:
        raise DegenerateDataError(f"need >= 12 records, got {len(data)}")
    data._amplitude  # raises before any per-position work on a flat scan


# === Scan CSV I/O ===========================================================

_CSV_FIELDS = ("position_um", "duration_us", "p1", "shots")


def read_scan_csv(path: str | Path) -> ScanDataset:
    """Read a scan CSV (header ``position_um,duration_us,p1,shots``).

    Rejects malformed rows, NaN values, and out-of-domain fields with the
    offending line number in the message; the first offending line is
    reported, whether its fault is the format, a value's range, a field
    longer than the csv module's limit or a byte the file's encoding
    cannot decode. Lines count CSV records, as ``csv.reader`` reads them.
    One leading byte-order mark is dropped. The beam label defaults to the
    file stem.
    """
    path = Path(path)
    # Undecodable bytes become lone surrogates, which no number parses.
    with path.open(newline="", errors="surrogateescape") as fh:
        # a spreadsheet's UTF-8 byte-order mark is not part of the header
        text = fh.read().removeprefix("\ufeff")
    columns = _scan_columns(text)
    if columns is None:
        _raise_first_bad_line(text, fh.encoding)
    x, t_us, p, shots = columns
    return ScanDataset(x, t_us * 1e-6, p, shots, beam_label=path.stem)


def _scan_columns(text: str) -> tuple[np.ndarray, ...] | None:
    """The four columns of a scan CSV's text, or None if any line is at fault.

    One parse into a flat list of fields, so no record's list outlives its
    record, then one conversion per column, by the ``float`` and ``int``
    the record-by-record walk uses.
    """
    records = csv.reader(io.StringIO(text, newline=""))
    fields: list[str] = []
    widths = set()
    try:
        header = next(records, None)
        for row in records:
            fields.extend(row)
            widths.add(len(row))
        if (header is None or [h.strip() for h in header] != list(_CSV_FIELDS)
                or not widths <= {0, 4} or not fields):
            return None
        n = len(fields) // 4
        columns = (*(np.fromiter(map(float, fields[k::4]), float, n) for k in range(3)),
                   np.fromiter(map(int, fields[3::4]), np.int64, n))
    except (ValueError, OverflowError, csv.Error):  # OverflowError: shots beyond int64
        return None
    return None if _first_out_of_domain(*columns) is not None else columns


#: The lone surrogates that ``errors="surrogateescape"`` reads bytes 0x80-0xff
#: as; a pattern string, compiled on first use, so a clean read never pays for it.
_UNDECODABLE = "[\udc80-\udcff]"


def _raise_first_bad_line(text: str, encoding: str) -> NoReturn:
    """Raise the ScanFormatError naming the first offending line of a scan CSV.

    A record-by-record walk of the text, run only once ``_scan_columns``
    has found a fault. Each line is checked in full, its format and then
    its values' ranges, before the next line is read.
    """
    records = csv.reader(io.StringIO(text, newline=""))
    for lineno in itertools.count(1):
        try:
            row = next(records, None)
            if row is None:
                break
            undecodable = re.search(_UNDECODABLE, ",".join(row))
            if undecodable:
                byte = ord(undecodable.group()) - 0xDC00
                raise ValueError(f"byte 0x{byte:02x} is not valid {encoding}")
            if lineno == 1:
                if [h.strip() for h in row] != list(_CSV_FIELDS):
                    raise ValueError(
                        f"expected header {','.join(_CSV_FIELDS)}, got {','.join(row)}")
                continue
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            values = (float(row[0]), float(row[1]), float(row[2]), int(row[3]))
            if not -(1 << 63) <= values[3] < 1 << 63:
                raise ValueError(f"shots {row[3]} does not fit a 64-bit integer")
        except (ValueError, csv.Error) as exc:
            raise ScanFormatError(f"line {lineno}: {exc}") from exc
        bad = _first_out_of_domain(*(np.array([v]) for v in values))
        if bad is not None:
            k = bad[1]
            raise ScanFormatError(
                f"line {lineno}: {_CSV_FIELDS[k]} {_DOMAINS[k]}, got {values[k]!r}")
    if lineno == 1:
        raise ScanFormatError("line 1: file is empty, expected header " + ",".join(_CSV_FIELDS))
    # every line is well-formed, so the fault _scan_columns found is this
    raise ScanFormatError("line 2: no data rows")


def write_scan_csv(data: ScanDataset, path: str | Path) -> None:
    x, t, p, shots = data.arrays()
    lines = [",".join(_CSV_FIELDS)]
    lines += [f"{xi:.10g},{ti:.10g},{pi:.10g},{ni}"
              for xi, ti, pi, ni in zip(x.tolist(), (t * 1e6).tolist(), p.tolist(), shots.tolist())]
    _write_atomic(path, "\n".join(lines) + "\n")


# === Model evaluation =======================================================


def _param_vector(params: BeamProfileParams, spam: SpamModel) -> tuple[float, ...]:
    """(omega0, center, width, eps_prep, kappa): the parameters of ``_excitation``."""
    return (params.omega0, params.center_um, params.width_um, spam.eps_prep, spam.kappa)


def fit_model(params: BeamProfileParams, spam: SpamModel, x_um, t_s) -> np.ndarray:
    """SPAM-adjusted model probability at each (x, t)."""
    x, t = np.asarray(x_um, dtype=float), np.asarray(t_s, dtype=float)
    return _excitation(_param_vector(params, spam), x, t)[0]


def fit_model_jacobian(params: BeamProfileParams, spam: SpamModel, x_um, t_s) -> np.ndarray:
    """Analytic partials of fit_model w.r.t. (omega0, center, width), shape (n, 3)."""
    x, t = np.broadcast_arrays(np.asarray(x_um, dtype=float), np.asarray(t_s, dtype=float))
    _, fill_jacobian = _excitation(_param_vector(params, spam), x, t)
    jac = np.empty((5, *x.shape))
    fill_jacobian(jac)
    return np.ascontiguousarray(np.moveaxis(jac[:3], 0, -1))


def _binomial_weights(p: np.ndarray, shots: np.ndarray) -> np.ndarray:
    return shots / (p * (1.0 - p) + 1.0 / (4.0 * shots))


# === Damped Gauss-Newton core ===============================================


@dataclass
class _LMRun:
    params: np.ndarray
    cov: np.ndarray
    rms: float
    n_iter: int
    converged: bool


def _levenberg_marquardt(residual, p0: np.ndarray, is_valid, max_iterations: int) -> _LMRun:
    """Minimize ||r(p)||^2 with Marquardt damping and Nielsen's mu update.

    The scheme of Madsen, Nielsen & Tingleff, *Methods for Non-Linear Least
    Squares Problems* (DTU, 2004), section 3.2. ``residual(p)`` returns r
    and a ``fill_jacobian(out)``, as ``rabi_model._excitation`` does. A
    trial point costs one residual; the Jacobian is built only at the start
    point and at accepted trials. There its k rows and r are stacked into one
    (k + 1, n) array, so that a single matrix product gives both J^T J and
    J^T r; k is the length of ``p0``.

    The damping mu * diag(J^T J) scales with each parameter's own
    curvature, so mu is dimensionless and starts at 1e-3. A start of
    1e-3 * max(diag(J^T J)), which suits damping by mu * I, would grow with
    the record weights: on a scan with SPAM 0 the first step is then so
    small that the loop stops on the step tolerance without moving.
    """
    p = np.asarray(p0, dtype=float)
    k = p.size
    r, fill_jacobian = residual(p)
    aug = np.empty((k + 1, r.size))

    def normal_equations(r, fill_jacobian):
        fill_jacobian(aug[:k])
        aug[k] = r
        products = aug[:k] @ aug.T  # GEMM; jac.T @ jac would be a far slower SYRK
        return products[:, :k], products[:, k]

    cost = float(r @ r)
    jtj, g = normal_equations(r, fill_jacobian)
    d = np.diag(jtj)
    mu = 1e-3
    nu = 2.0
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iterations + 1):
        if float(np.max(np.abs(g))) < GRAD_TOL:
            converged = True
            break
        damped = jtj.copy()
        damped.flat[::k + 1] += mu * d  # jtj + mu * diag(d)
        try:
            step = np.linalg.solve(damped, -g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(f"normal equations singular: {exc}") from exc
        # hypot scales its sum of squares, so neither side under- or overflows
        if math.hypot(*step) < STEP_TOL * math.hypot(*p):
            # The damped system cannot move the parameters meaningfully;
            # checking before the trial also catches the stall where every
            # step is rejected at the residual noise floor.
            converged = True
            break
        trial = p + step
        if is_valid(trial):
            r_trial, fill_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            predicted = float(step @ (mu * d * step - g))
            rho = (cost - cost_trial) / predicted if predicted > 0 else -1.0
        else:
            rho = -1.0
        if rho > 0:
            p, r, cost = trial, r_trial, cost_trial
            jtj, g = normal_equations(r, fill_trial)
            d = np.diag(jtj)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
            if mu > 1e200:
                break
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"normal equations singular at optimum: {exc}") from exc
    cov = 0.5 * (cov + cov.T)
    rms = math.sqrt(cost / r.size)
    return _LMRun(params=p, cov=cov, rms=rms, n_iter=n_iter, converged=converged)


# === Initialization =========================================================


def _amplitude_profile(data: ScanDataset) -> tuple[np.ndarray, np.ndarray]:
    """Distinct positions (sorted) and the max-min oscillation amplitude at each.

    Shot noise puts a pedestal under the profile; it is subtracted.
    """
    order, starts = data._positions
    xs, ps = data.position_um[order], data.p1[order]
    amp = np.maximum.reduceat(ps, starts) - np.minimum.reduceat(ps, starts)
    amp = amp - amp.min()
    if float(amp.sum()) <= 0:
        raise DegenerateDataError("no oscillation amplitude at any position")
    return xs[starts], amp


def _log_profile_refinement(x_sel, omegas, amp_sel, x_lo, x_hi):
    """Quadratic fit of ln Omega(x) over the bright region, or None.

    The local oscillation frequency keeps the exact Gaussian shape, so
    ln Omega is a parabola in x whose coefficients give all three
    parameters at once.
    """
    if x_sel.size < 4:
        return None
    sw = np.sqrt(amp_sel)
    design = np.stack([np.ones_like(x_sel), x_sel, x_sel * x_sel], axis=1)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], np.log(omegas) * sw, rcond=None)
    a, b, c = (float(v) for v in coef)
    if not np.isfinite(coef).all() or c >= 0:
        return None
    w0 = math.sqrt(-2.0 / c)
    xc = -b / (2.0 * c)
    omega0 = math.exp(a - b * b / (4.0 * c))
    om_hi = float(omegas.max())
    # reject extrapolations the scanned data cannot support
    if not x_lo - w0 <= xc <= x_hi + w0:
        return None
    if not 0.5 * om_hi <= omega0 <= 2.0 * om_hi:
        return None
    if not 1e-6 <= w0 <= 2.0 * (x_hi - x_lo):
        return None
    return omega0, xc, w0


def initial_guess(data: ScanDataset, profile: Sequence[FreqProfilePoint]) -> BeamProfileParams:
    """Deterministic, derivative-free starting point for fit_beam.

    When the bright region of the frequency profile supports it, a
    quadratic fit of its ln Omega(x) gives all three parameters; it does
    not suffer the saturation bias of the amplitude profile. Otherwise
    x_c is the profile's Omega-weighted mean and w0 twice its standard
    deviation (half its D4sigma), and Omega0 is the profile point nearest
    x_c (that trace oscillates at essentially Omega0). Raises
    DegenerateDataError when the moments cannot be taken or that point
    has no frequency.
    """
    if not profile:
        raise DegenerateDataError("frequency profile has no points")
    xs, amp = data._amplitude
    px = np.array([pt.position_um for pt in profile])
    omegas = np.array([pt.omega for pt in profile])
    amp_p = amp[np.searchsorted(xs, px)]
    bright = (amp_p >= 0.25 * amp.max()) & (omegas > 0)
    refined = _log_profile_refinement(
        px[bright], omegas[bright], amp_p[bright], float(xs[0]), float(xs[-1])
    )
    if refined is not None:
        omega0, xc, w0 = refined
        return BeamProfileParams(omega0=omega0, center_um=xc, width_um=w0)
    try:
        xc, var = _profile_moments(profile)
    except ValueError as exc:
        raise DegenerateDataError(f"no starting point: {exc}") from exc
    if not var > 0:
        raise DegenerateDataError("no starting point: the frequency profile has no width")
    omega0 = float(omegas[int(np.argmin(np.abs(px - xc)))])
    if not omega0 > 0:
        raise DegenerateDataError(
            f"no starting point: no oscillation next to the profile's mean, {xc:.4g} um")
    return BeamProfileParams(omega0=omega0, center_um=xc, width_um=2.0 * math.sqrt(var))


#: Deterministic multi-start perturbation signs for (omega0, center, width).
_RESTART_SIGNS = ((1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, -1), (1, 1, -1))


def _perturbed_starts(guess: BeamProfileParams):
    for s_om, s_xc, s_w in _RESTART_SIGNS:
        yield BeamProfileParams(
            omega0=guess.omega0 * (1.0 + 0.2 * s_om),
            center_um=guess.center_um + 0.2 * s_xc * guess.width_um,
            width_um=guess.width_um * (1.0 + 0.2 * s_w),
        )


def _spam_seed(data: ScanDataset) -> SpamModel:
    """SPAM for the frequency profile and the initial guess: eps_prep is the
    shot-weighted mean p1 of the t = 0 records (an undriven ion reads bright
    with probability eps_prep), or 0.01 when the scan has none; eps_meas is
    0.01.
    """
    _, t, p, shots = data.arrays()
    dark = t == 0
    if not dark.any():
        return SpamModel()
    n = shots[dark].astype(float)
    eps_prep = float(p[dark] @ n) / float(n.sum())
    try:
        return SpamModel(eps_prep=eps_prep)
    except ValueError as exc:
        raise DegenerateDataError(f"the t = 0 records do not give a SPAM error: {exc}") from exc


def _spam_at(data: ScanDataset, beam: BeamProfileParams, fallback: SpamModel) -> SpamModel:
    """Least-squares SPAM of the scan with the beam held at ``beam``.

    The model eps_prep + kappa*sin^2(theta) is linear in the two SPAM
    parameters, so this is a 2 x 2 linear solve, each record weighted by
    its shots. Returns ``fallback`` when the solution is no SpamModel.
    """
    x, t, p, shots = data.arrays()
    design = np.stack([np.ones_like(x), p_excited(beam, x, t)])
    weighted = design * shots
    try:
        eps_prep, kappa = np.linalg.solve(weighted @ design.T, weighted @ p)
        return SpamModel(eps_prep=float(eps_prep), eps_meas=float(1.0 - eps_prep - kappa))
    except (np.linalg.LinAlgError, ValueError):
        return fallback


# === Global fit =============================================================


#: Runs whose residual RMS is within this relative distance of the lowest
#: are tied; the earliest of them is reported.
RMS_TIE = 1e-12


def _best_run(runs: Sequence[_LMRun]) -> _LMRun:
    """The earliest converged run tied for the lowest RMS (any run if none converged).

    Starts that reach one optimum can differ in the last bits of their RMS;
    taking the first of the tied runs keeps rounding from choosing the
    reported run.
    """
    pool = [run for run in runs if run.converged] or list(runs)
    lowest = min(run.rms for run in pool)
    return next(run for run in pool if run.rms <= lowest * (1.0 + RMS_TIE))


@dataclass(frozen=True)
class FreqProfilePoint:
    position_um: float
    omega: float  # rad/s
    omega_err: float  # rad/s; inf when unconstrained
    baseline: bool  # uncertainty >= value: indistinguishable from no drive


@dataclass(frozen=True)
class BeamFitResult:
    params: BeamProfileParams
    covariance: np.ndarray  # 3x3, order (omega0 rad/s, center um, width um)
    residual_rms: float  # weighted, per record; ~1 at the shot-noise floor
    freq_profile: tuple[FreqProfilePoint, ...]
    n_iterations: int
    converged: bool
    spam: SpamModel  # fitted SPAM errors
    spam_errors: tuple[float, float]  # 1-sigma (eps_prep, eps_meas)
    beam_label: str = ""
    multi_start_used: bool = False

    @property
    def d4sigma_um(self) -> float | None:
        """D4sigma of ``freq_profile``, or None where ``d4sigma`` has none."""
        try:
            return d4sigma(self.freq_profile)
        except ValueError:
            return None

    def param_errors(self) -> np.ndarray:
        """1-sigma uncertainties (omega0 rad/s, center um, width um)."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def fit_beam(data: ScanDataset, max_iterations: int = 200) -> BeamFitResult:
    """Fit the beam model and the SPAM errors to a scan dataset.

    Five parameters are fitted: Omega0, x_c, w0, eps_prep and kappa = 1 -
    eps_prep - eps_meas, starting from the scan alone. The frequency
    profile and the initial beam guess use eps_prep from the shot-weighted
    mean p1 of the t = 0 records (0.01 when the scan has none) and
    eps_meas = 0.01. The LM then starts from that beam guess and the
    least-squares SPAM at it (that seed SPAM when the solve gives none in
    [0, 0.5)), and every run weights the records by the binomial variance
    of the model at this start. A step is rejected unless its beam
    constructs as a BeamProfileParams and its SPAM as a SpamModel.

    If the weighted residual RMS of the first run stays above twice the
    shot-noise floor, or the run fails to converge, five deterministically
    perturbed beam starts are tried. The earliest converged run tied for
    the lowest RMS is kept.

    Raises FitConvergenceError (carrying the best-so-far result) when no
    run converges, DegenerateDataError when the grid cannot constrain
    the parameters, the t = 0 records read bright half the time or more,
    or the frequency profile gives no starting point, and ValueError
    unless max_iterations is an integer >= 1.
    """
    _count("max_iterations", max_iterations)
    _require_fit_grid(data)
    x, t, p, shots = data.arrays()
    seed = _spam_seed(data)
    profile = fit_freq_profile(data, seed)
    guess = initial_guess(data, profile)
    start_spam = _spam_at(data, guess, seed)
    start = np.array(_param_vector(guess, start_spam))
    sqrt_w = np.sqrt(_binomial_weights(_excitation(start, x, t)[0], shots))

    def residual(vec: np.ndarray):
        model, fill_model = _excitation(vec, x, t)

        def fill_jacobian(out: np.ndarray) -> None:
            fill_model(out)
            out *= sqrt_w

        return sqrt_w * (model - p), fill_jacobian

    def is_valid(vec: np.ndarray) -> bool:
        try:
            BeamProfileParams(*vec[:3])
            SpamModel(vec[3], 1.0 - vec[3] - vec[4])
        except ValueError:
            return False
        return True

    first = _levenberg_marquardt(residual, start, is_valid, max_iterations)
    runs = [first]
    multi_start = not (first.converged and first.rms <= RESTART_RMS)
    if multi_start:
        for beam in _perturbed_starts(guess):
            runs.append(_levenberg_marquardt(
                residual, np.array(_param_vector(beam, start_spam)), is_valid, max_iterations))
    best = _best_run(runs)  # a converged run whenever one exists

    eps_prep, kappa = (float(v) for v in best.params[3:])
    cov = best.cov
    result = BeamFitResult(
        params=BeamProfileParams(*best.params[:3]),
        covariance=cov[:3, :3].copy(),
        residual_rms=best.rms,
        freq_profile=profile,
        n_iterations=best.n_iter,
        converged=best.converged,
        spam=SpamModel(eps_prep=eps_prep, eps_meas=1.0 - eps_prep - kappa),
        # var(eps_meas) = var(eps_prep) + var(kappa) + 2 cov(eps_prep, kappa)
        spam_errors=(math.sqrt(max(cov[3, 3], 0.0)),
                     math.sqrt(max(cov[3, 3] + cov[4, 4] + 2.0 * cov[3, 4], 0.0))),
        beam_label=data.beam_label,
        multi_start_used=multi_start,
    )
    if not best.converged:
        raise FitConvergenceError(
            f"no optimizer run converged within {max_iterations} iterations "
            f"(best residual RMS {best.rms:.3g})",
            result,
        )
    return result


# === Per-position frequency profile =========================================


def _omega_grid_table(t: np.ndarray, spam: SpamModel) -> tuple[np.ndarray, np.ndarray]:
    """Search grid of 512 omegas up to the Nyquist limit of ``t`` (>= 4
    distinct durations), and the model at every (grid omega, duration)."""
    spacing = np.diff(np.sort(t))
    omega_max = math.pi / float(spacing[spacing > 0].min())
    grid = np.linspace(0.0, omega_max, 512)
    return grid, apply_spam(np.sin(0.5 * np.outer(grid, t)) ** 2, spam)


#: Fractions 1/2, 1/4, ... 1/2^19 of a Gauss-Newton step, tried in this
#: order once the full step is rejected.
_HALVINGS = np.ldexp(1.0, -np.arange(1, 20))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i of two (n, D) arrays.

    A stacked 1 x D by D x 1 matmul rounds each row exactly as the 1-D
    ``a[i] @ b[i]`` does; einsum and ``(a * b).sum(axis=1)`` do not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _fit_omegas(
    t: np.ndarray, p: np.ndarray, shots: np.ndarray, spam: SpamModel,
) -> tuple[np.ndarray, np.ndarray]:
    """1D weighted least-squares fits of eps0 + kappa*sin^2(omega*t/2).

    Each row of ``p`` and ``shots`` (shape (P, D)) is a trace over the
    duration sequence ``t`` (shape (D,)). A row starts at the best omega of
    a 512-point grid up to the Nyquist limit of ``t``: with the grid model
    m (512, D) and the weights w, the weighted SSE sum_j w (m - p)^2 of
    every (row, grid omega) is w @ (m*m).T - 2 (w*p) @ m.T plus the row
    constant sum_j w p^2, which cannot move a row's argmin, so the search is
    two (P, D) x (D, 512) matrix products. The row is then refined by at
    most 60 Gauss-Newton steps. A step is tried at full length, then halved
    up to 19 times until it lowers the cost; the row stops when its jtj is
    <= 0, no trial lowers the cost, or the accepted step is below 1e-12 of
    max(omega, 1). The rows still iterating are refined together, and every
    row comes out bit for bit as it would when fitted alone.

    Returns (omega, sigma_omega) per row; sigma is inf where the trace
    carries no frequency information (flat trace, omega pinned at zero).
    """
    grid, model = _omega_grid_table(t, spam)
    w = _binomial_weights(p, shots)

    def weighted_sse(omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # w @ r^2 of trace rows[i] at omegas[i]
        r = apply_spam(np.sin((0.5 * omegas)[:, None] * t) ** 2, spam) - p[rows]
        return _rowdot(w[rows], r * r)

    # weighted SSE of every (row, grid omega) less the row constant
    sse = w @ (model * model).T
    sse -= (2.0 * w * p) @ model.T
    omega = grid[np.argmin(sse, axis=1)]

    active = np.arange(p.shape[0])
    for _ in range(60):
        theta = (0.5 * omega[active])[:, None] * t
        jac = spam.kappa * np.sin(2.0 * theta) * 0.5 * t
        jtj = _rowdot(w[active], jac * jac)
        live = ~(jtj <= 0)
        active, theta, jac, jtj = active[live], theta[live], jac[live], jtj[live]
        if active.size == 0:
            break
        om, w_a = omega[active], w[active]
        r = apply_spam(np.sin(theta) ** 2, spam) - p[active]
        step = -_rowdot(w_a, jac * r) / jtj
        cost = _rowdot(w_a, r * r)
        trial = om + step
        scale = np.ones(active.size)
        accepted = (trial >= 0) & (weighted_sse(trial, active) < cost)
        rejected = np.flatnonzero(~accepted)
        if rejected.size:
            # only the rejected rows try the shorter steps
            trials = om[rejected, None] + _HALVINGS * step[rejected, None]
            costs = weighted_sse(trials.ravel(), np.repeat(active[rejected], _HALVINGS.size))
            ok = (trials >= 0) & (costs.reshape(trials.shape) < cost[rejected, None])
            took = ok.any(axis=1)
            first = np.argmax(ok[took], axis=1)
            trial[rejected[took]] = trials[took, first]
            scale[rejected[took]] = _HALVINGS[first]
            accepted[rejected[took]] = True
        omega[active[accepted]] = trial[accepted]
        small = np.abs(scale * step) < 1e-12 * np.maximum(trial, 1.0)
        active = active[accepted & ~small]

    theta = (0.5 * omega)[:, None] * t
    jac = spam.kappa * np.sin(2.0 * theta) * 0.5 * t
    jtj = _rowdot(w, jac * jac)
    sigma = np.full(omega.size, math.inf)
    informative = ~(jtj <= 0)
    sigma[informative] = 1.0 / np.sqrt(jtj[informative])
    return omega, sigma


def fit_freq_profile(
    data: ScanDataset, spam: SpamModel = SpamModel()
) -> tuple[FreqProfilePoint, ...]:
    """Per-position Rabi frequencies from 1D fits, one per position.

    Positions with fewer than 4 distinct durations are skipped with a
    warning. A point whose uncertainty reaches its value is flagged as
    baseline (no resolvable oscillation). Positions that carry the same
    duration sequence (same values in the same record order) share one
    grid-search table and are refined together in one batch; the results
    are identical to refining each position by itself.
    """
    x, t, p, shots = data.arrays()
    order, starts = data._positions
    xs, ts, ps, ns = x[order], t[order], p[order], shots[order].astype(float)
    stops = np.append(starts[1:], xs.size)
    sequences: dict[bytes, list[int]] = {}
    for i, (lo, hi) in enumerate(zip(starts.tolist(), stops.tolist())):
        sequences.setdefault(ts[lo:hi].tobytes(), []).append(i)

    n_distinct = np.empty(starts.size, dtype=int)
    omega = np.empty(starts.size)
    sigma = np.empty(starts.size)
    for members in sequences.values():
        lo, hi = starts[members[0]], stops[members[0]]
        n_distinct[members] = _n_distinct(ts[lo:hi])
        if n_distinct[members[0]] >= 4:
            rows = starts[members][:, None] + np.arange(hi - lo)
            omega[members], sigma[members] = _fit_omegas(ts[lo:hi], ps[rows], ns[rows], spam)

    points = []
    for pos, n, om, sig in zip(xs[starts].tolist(), n_distinct.tolist(),
                               omega.tolist(), sigma.tolist()):
        if n < 4:
            warnings.warn(
                f"position {pos:g} um has only {n} distinct "
                "durations; skipped in frequency profile",
                stacklevel=2,
            )
            continue
        points.append(FreqProfilePoint(position_um=pos, omega=om, omega_err=sig,
                                       baseline=sig >= om))
    return tuple(points)


# === Second-moment width ====================================================


def _profile_moments(profile: Sequence[FreqProfilePoint]) -> tuple[float, float]:
    """(mean, variance) of a frequency profile's positions, weighted as
    ``d4sigma`` says; raises ValueError when no weight is positive."""
    points = list(profile)
    xs = np.array([pt.position_um for pt in points])
    w = np.array([pt.omega for pt in points], dtype=float)
    floor_vals = [pt.omega for pt in points if pt.baseline]
    if floor_vals:
        w = np.clip(w - _median(floor_vals), 0.0, None)
    total = float(w.sum())
    if total <= 0:
        raise ValueError("all profile weights are zero")
    mean = float(w @ xs) / total
    return mean, float(w @ (xs - mean) ** 2) / total


def d4sigma(profile: Sequence[FreqProfilePoint]) -> float:
    """4-sigma second-moment width of a frequency profile, in um.

    Weights are the fitted Rabi frequencies (Omega is proportional to
    intensity), less the median Omega of the baseline-flagged points, with
    negative weights clamped to zero: second moments diverge under a
    constant background (ISO 11146 subtracts it too). Raises ValueError
    with fewer than 3 non-baseline points or no positive weight.
    """
    live = [pt for pt in profile if not pt.baseline]
    if len(live) < 3:
        raise ValueError(f"need >= 3 non-baseline profile points, got {len(live)}")
    return 4.0 * math.sqrt(_profile_moments(profile)[1])


# === Pair analysis ==========================================================


#: Fitted centers within this many combined sigma of each other are ambiguous.
_AMBIGUITY_K = 3.0


@dataclass(frozen=True)
class PairReport:
    beam_a: str
    beam_b: str
    center_a_um: float
    center_b_um: float
    separation_um: float
    separation_err_um: float
    ambiguous: bool  # centers overlap within _AMBIGUITY_K * separation_err
    observation_window_s: float
    detection_floor: float
    rabi_bound_hz: float  # largest Rabi frequency hiding below the floor over the window
    crosstalk_bound_a: float  # intensity ratio bound, beam A's peak
    crosstalk_bound_b: float
    off_beam_oscillation_a: bool | None  # None: no trace supplied
    off_beam_oscillation_b: bool | None
    notes: tuple[str, ...]


def _trace_oscillates(trace: ScanDataset, spam: SpamModel) -> bool:
    n_x = trace._positions[1].size
    if n_x != 1:
        raise DegenerateDataError(
            f"off-beam trace {trace.beam_label!r} must be recorded at one position, got {n_x}")
    _, t, p, shots = trace.arrays()
    if _n_distinct(t) < 4:
        raise DegenerateDataError(
            f"off-beam trace {trace.beam_label!r} needs >= 4 distinct durations"
        )
    omega, sigma = _fit_omegas(t, p[None, :], shots[None, :].astype(float), spam)
    return bool(sigma[0] < omega[0])


def pair_analysis(
    a: BeamFitResult,
    b: BeamFitResult,
    traces_at_centers: tuple[ScanDataset | None, ScanDataset | None] = (None, None),
    observation_window_s: float = 2.5e-3,
    detection_floor: float = 0.01,
) -> PairReport:
    """Separation and crosstalk bounds for a pair of individually fitted beams.

    ``traces_at_centers`` holds, per beam, the response measured at the
    *neighbor's* center while that beam was driven (beam A's off-beam trace
    is recorded at beam B's center and vice versa). Each supplied trace is
    tested for resolvable oscillation, with the SPAM fitted to its driven
    beam's scan; absent oscillation the crosstalk at
    the neighbor is bounded by the largest Rabi frequency that stays under
    ``detection_floor`` for the whole observation window, expressed as an
    intensity ratio against the driven beam's peak. The window is
    ``observation_window_s``, cut to the last duration of the shortest
    supplied trace: a trace shows nothing about times it did not record.
    Centers within ``_AMBIGUITY_K`` combined sigma are ambiguous. Raises
    ValueError unless ``observation_window_s`` is finite and positive.
    """
    _positive("observation window", observation_window_s)
    if not (a.converged and b.converged):
        raise ValueError("pair analysis requires two converged fits")
    sep = abs(b.params.center_um - a.params.center_um)
    var = float(a.covariance[1, 1] + b.covariance[1, 1])
    sep_err = math.sqrt(max(var, 0.0))
    notes = []
    ambiguous = sep <= _AMBIGUITY_K * sep_err
    if ambiguous:
        notes.append(
            f"beam centers are not resolved: separation {sep:.4g} um is within "
            f"{_AMBIGUITY_K:g} sigma ({_AMBIGUITY_K * sep_err:.4g} um)"
        )
        warnings.warn(notes[-1], stacklevel=2)

    window = observation_window_s
    detected: list[bool | None] = []
    for result, trace in zip((a, b), traces_at_centers):
        if trace is None:
            detected.append(None)
            continue
        seen = _trace_oscillates(trace, result.spam)
        detected.append(seen)
        if seen:
            notes.append(
                f"off-beam trace {trace.beam_label or result.beam_label!r} shows "
                "resolvable oscillation; the crosstalk bound does not apply"
            )
        window = min(window, float(trace.arrays()[1].max()))
    if window < observation_window_s:
        notes.append(
            f"observation window cut from {observation_window_s:.4g} s to {window:.4g} s, "
            "the last duration the traces cover"
        )
    bound = crosstalk_rabi_bound(window, detection_floor)
    return PairReport(
        beam_a=a.beam_label or "A",
        beam_b=b.beam_label or "B",
        center_a_um=a.params.center_um,
        center_b_um=b.params.center_um,
        separation_um=sep,
        separation_err_um=sep_err,
        ambiguous=ambiguous,
        observation_window_s=window,
        detection_floor=detection_floor,
        rabi_bound_hz=bound / TWO_PI,
        crosstalk_bound_a=intensity_crosstalk_ratio(bound, a.params.omega0),
        crosstalk_bound_b=intensity_crosstalk_ratio(bound, b.params.omega0),
        off_beam_oscillation_a=detected[0],
        off_beam_oscillation_b=detected[1],
        notes=tuple(notes),
    )


# === Reports ================================================================


#: Version of the fit report layout; read_fit_report accepts only this one.
FIT_REPORT_SCHEMA = 4


def fit_report_dict(result: BeamFitResult) -> dict:
    """JSON-ready fit report; frequencies in Hz, lengths in um."""
    scale = np.diag([1.0 / TWO_PI, 1.0, 1.0])
    cov_hz = scale @ result.covariance @ scale
    return {
        "schema_version": FIT_REPORT_SCHEMA,
        "beam_label": result.beam_label,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "multi_start_used": result.multi_start_used,
        "params": {
            "peak_rabi_hz": result.params.omega0 / TWO_PI,
            "center_um": result.params.center_um,
            "width_um": result.params.width_um,
        },
        "covariance_order": ["peak_rabi_hz", "center_um", "width_um"],
        "covariance": cov_hz.tolist(),
        "spam": {
            "eps_prep": result.spam.eps_prep,
            "eps_prep_err": result.spam_errors[0],
            "eps_meas": result.spam.eps_meas,
            "eps_meas_err": result.spam_errors[1],
        },
        "residual_rms": result.residual_rms,
        "gaussian_diameter_um": 2.0 * result.params.width_um,
        "d4sigma_um": result.d4sigma_um,
        "n_profile_points": len(result.freq_profile),
        "n_baseline_points": sum(pt.baseline for pt in result.freq_profile),
    }


def write_fit_report(result: BeamFitResult, path: str | Path) -> None:
    _write_json(path, fit_report_dict(result))


def read_fit_report(path: str | Path) -> tuple[BeamProfileParams, np.ndarray, dict]:
    """Reconstruct (params, covariance in rad/s & um, raw dict) from a report.

    Raises ScanFormatError where ``_read_fit_report`` does.
    """
    result, raw = _read_fit_report(path)
    return result.params, result.covariance, raw


def _read_fit_report(path: str | Path) -> tuple[BeamFitResult, dict]:
    """(fit result, raw dict) of a report; the result has no frequency profile.

    Each value keeps its JSON type, save ``residual_rms`` and the two SPAM
    errors, which become floats. Raises ScanFormatError unless the report
    has the current ``schema_version``, a JSON boolean ``converged``, a
    string ``beam_label``, an integer ``n_iterations``, a 3x3
    ``covariance``, and a finite JSON number (not a boolean or a string)
    for ``residual_rms`` and for each ``params``, ``spam`` and covariance
    entry.
    """
    raw = _read_json(path, ScanFormatError)
    version = raw.get("schema_version") if isinstance(raw, dict) else None
    if version != FIT_REPORT_SCHEMA:
        raise ScanFormatError(
            f"{path}: fit report schema_version must be {FIT_REPORT_SCHEMA}, got {version!r}")
    if not isinstance(raw.get("converged"), bool):
        raise ScanFormatError(
            f"{path}: converged must be true or false, got {raw.get('converged')!r}")
    label, n_iter = raw.get("beam_label"), raw.get("n_iterations")
    if not isinstance(label, str):
        raise ScanFormatError(f"{path}: beam_label must be a string, got {label!r}")
    if isinstance(n_iter, bool) or not isinstance(n_iter, int):
        raise ScanFormatError(f"{path}: n_iterations must be an integer, got {n_iter!r}")

    def number(name, value):
        if not _is_finite_number(value):
            raise ScanFormatError(f"{path}: {name} must be a finite number, got {value!r}")
        return value

    rms = number("residual_rms", raw.get("residual_rms"))
    try:
        fitted, spam, cov = raw["params"], raw["spam"], raw["covariance"]
        hz, center, width = (number(f"params.{key}", fitted[key])
                             for key in ("peak_rabi_hz", "center_um", "width_um"))
        eps_prep, eps_meas, prep_err, meas_err = (
            number(f"spam.{key}", spam[key])
            for key in ("eps_prep", "eps_meas", "eps_prep_err", "eps_meas_err"))
        cov_hz = np.array([[number(f"covariance[{i}][{j}]", entry) for j, entry in enumerate(row)]
                           for i, row in enumerate(cov)], dtype=float)
        params = BeamProfileParams(omega0=hz * TWO_PI, center_um=center, width_um=width)
        spam_model = SpamModel(eps_prep=eps_prep, eps_meas=eps_meas)
    except ScanFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScanFormatError(f"{path}: not a fit report ({exc!r})") from exc
    if cov_hz.shape != (3, 3):
        raise ScanFormatError(f"{path}: covariance must be 3x3, got {cov_hz.shape}")
    scale = np.diag([TWO_PI, 1.0, 1.0])
    return BeamFitResult(
        params=params, covariance=scale @ cov_hz @ scale, residual_rms=float(rms),
        freq_profile=(), n_iterations=n_iter, converged=raw["converged"], spam=spam_model,
        spam_errors=(float(prep_err), float(meas_err)), beam_label=label), raw


def write_freq_profile_csv(profile: Sequence[FreqProfilePoint], path: str | Path) -> None:
    lines = ["position_um,rabi_hz,rabi_err_hz,baseline"]
    for pt in profile:
        lines.append(
            f"{pt.position_um:.10g},{pt.omega / TWO_PI:.10g},"
            f"{pt.omega_err / TWO_PI:.10g},{int(pt.baseline)}"
        )
    _write_atomic(path, "\n".join(lines) + "\n")
