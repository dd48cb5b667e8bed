"""Scan fitting: CSV I/O, the optimizer, profiles, widths, pair reports."""

import codecs
import csv
import functools
import io
import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionoptics import scan_fit
from ionoptics.cli import main
from ionoptics.rabi_model import (
    BeamProfileParams, SpamModel, _excitation, apply_spam, p_excited,
)
from ionoptics.scan_fit import (
    BeamFitResult,
    DegenerateDataError,
    FitConvergenceError,
    FreqProfile,
    FreqProfilePoint,
    ScanDataset,
    ScanFormatError,
    d4sigma,
    fit_beam,
    fit_freq_profile,
    fit_model,
    fit_model_jacobian,
    initial_guess,
    pair_analysis,
    read_fit_report,
    read_scan_csv,
    write_fit_report,
    write_freq_profile_csv,
    write_scan_csv,
)
from ionoptics.scan_fit import (
    _best_run,
    _binomial_weights,
    _median,
    _n_distinct,
    _sin2_table,
    _spam_seed,
)
from ionoptics.synth_scan import SynthConfig, default_scan_grid, generate

TWO_PI = 2.0 * math.pi


def synth_dataset(beam, seed=None, shots=200, n_pos=31, n_dur=15, spam=SpamModel()):
    positions, durations = default_scan_grid(beam, n_pos, n_dur)
    cfg = SynthConfig(
        truth=beam,
        positions_um=positions,
        durations_s=durations,
        shots=shots,
        spam=spam,
        rng_seed=0 if seed is None else seed,
        analytic=seed is None,
    )
    return generate(cfg)[0]


def _fit_single_omega(t, p, shots, spam, newton=True, goes_on=None):
    """Reference for the frequency profile: one trace, scalar dot products.

    The per-position loop the batched fit replaced, taking Newton steps
    (Gauss-Newton where the curvature is not positive) and stopping on the
    decrement test ``scan_fit._DECREMENT_TOL``, or with ``newton=False``
    the Gauss-Newton steps, without that test, the fit took before. Every
    step evaluates its residual afresh. Returns (omega, sigma_omega,
    capped); capped is True when the refinement ran all of its
    ``scan_fit._MAX_STEPS`` steps. ``goes_on``, when a list, gets the
    fraction (1, 1/2, 1/4, ...) of each accepted step the row goes on from.
    """
    grid, table = _sin2_table(t)
    model = apply_spam(table[:, :t.size], spam)
    kappa = 1.0 - spam.eps_prep - spam.eps_meas
    w = _binomial_weights(p, shots)
    sse = ((model - p) ** 2 * w).sum(axis=1)
    omega = float(grid[int(np.argmin(sse))])

    # refinement with step halving
    capped = True
    for _ in range(scan_fit._MAX_STEPS):
        theta = 0.5 * omega * t
        r = spam.eps_prep + kappa * np.sin(theta) ** 2 - p
        jac = kappa * np.sin(2.0 * theta) * 0.5 * t
        jtj = float(w @ (jac * jac))
        if jtj <= 0:
            capped = False
            break
        grad = float(w @ (jac * r))
        if newton and grad * grad < scan_fit._DECREMENT_TOL * jtj:
            capped = False
            break
        hess = jtj
        if newton:
            hess += float(w @ (r * (kappa * np.cos(2.0 * theta) * 0.5 * t * t)))
        step = -grad / (hess if hess > 0 else jtj)
        cost = float(w @ (r * r))
        scale = 1.0
        improved = False
        for _ in range(20):
            trial = omega + scale * step
            if trial >= 0:
                r_t = spam.eps_prep + kappa * np.sin(0.5 * trial * t) ** 2 - p
                cost_t = float(w @ (r_t * r_t))
                if cost_t < cost:
                    omega = trial
                    improved = True
                    break
            scale *= 0.5
        if not improved or abs(scale * step) < 1e-12 * max(omega, 1.0):
            capped = False
            break
        if goes_on is not None:
            goes_on.append(scale)

    theta = 0.5 * omega * t
    jac = kappa * np.sin(2.0 * theta) * 0.5 * t
    jtj = float(w @ (jac * jac))
    sigma = math.inf if jtj <= 0 else 1.0 / math.sqrt(jtj)
    return omega, sigma, capped


def _gauss_newton_single_omega(t, p, shots, spam):
    """The frequency profile's earlier per-row refinement, Gauss-Newton.

    It converges only linearly on noisy traces and can stop short of the
    minimum, so its cost bounds that of the Newton refinement from above.
    """
    return _fit_single_omega(t, p, shots, spam, newton=False)


def _per_position_profile(data, spam, fit_one):
    """The frequency profile as independent fits ``fit_one`` of each
    position with >= 4 distinct durations, and which of them hit the step
    cap."""
    x, t, p, n = data.arrays()
    n = n.astype(float)
    rows, capped = [], []
    for pos in np.unique(x):
        at = x == pos
        if np.unique(t[at]).size < 4:
            continue
        omega, sigma, hit_cap = fit_one(t[at], p[at], n[at], spam)
        rows.append((float(pos), omega, sigma, sigma >= omega))
        capped.append(hit_cap)
    columns = zip(*rows) if rows else ((), (), (), ())
    return FreqProfile(*columns), capped


PROFILE_COLUMNS = ("position_um", "omega", "omega_err", "baseline")


def _assert_same_columns(got, want):
    """Each column of two frequency profiles equal, value for value."""
    for name in PROFILE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (name, a, b)


def _reference_levenberg_marquardt(fun_jac, p0, is_valid, max_iterations):
    """Reference for the LM core: the loop the fused kernel replaced.

    ``fun_jac(p)`` returns the residual and the full (n, k) Jacobian at
    every trial, and the normal equations come from ``jac.T @ jac`` (SYRK)
    and ``jac.T @ r`` (GEMV), with the damping as k x k diagonal matrices.
    """
    p = np.asarray(p0, dtype=float)
    r, jac = fun_jac(p)
    cost = float(r @ r)
    jtj = jac.T @ jac
    g = jac.T @ r
    mu = 1e-3
    nu = 2.0
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iterations + 1):
        if float(np.max(np.abs(g))) < scan_fit.GRAD_TOL:
            converged = True
            break
        try:
            step = np.linalg.solve(jtj + mu * np.diag(np.diag(jtj)), -g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(f"normal equations singular: {exc}") from exc
        rel_step = float(np.linalg.norm(step) / (np.linalg.norm(p) + 1e-300))
        if rel_step < scan_fit.STEP_TOL:
            converged = True
            break
        trial = p + step
        if is_valid(trial):
            r_trial, jac_trial = fun_jac(trial)
            cost_trial = float(r_trial @ r_trial)
            predicted = float(step @ (mu * np.diag(np.diag(jtj)) @ step - g))
            rho = (cost - cost_trial) / predicted if predicted > 0 else -1.0
        else:
            rho = -1.0
        if rho > 0:
            p, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            jtj = jac.T @ jac
            g = jac.T @ r
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
    return scan_fit._LMRun(params=p, cov=cov, rms=rms, n_iter=n_iter, converged=converged)


# === CSV I/O ================================================================


class TestScanCsv:
    def test_round_trip(self, tmp_path, beam_a):
        ds = synth_dataset(beam_a, seed=3, n_pos=5, n_dur=5)
        path = tmp_path / "scan.csv"
        write_scan_csv(ds, path)
        loaded = read_scan_csv(path)
        assert loaded.beam_label == "scan"
        assert len(loaded) == len(ds)
        assert loaded.position_um == pytest.approx(ds.position_um, rel=1e-9)
        assert loaded.duration_s == pytest.approx(ds.duration_s, rel=1e-9)
        assert loaded.p1.tolist() == ds.p1.tolist()
        assert loaded.shots.tolist() == ds.shots.tolist()

    def test_write_is_deterministic(self, tmp_path, beam_a):
        ds = synth_dataset(beam_a, seed=3, n_pos=5, n_dur=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scan_csv(ds, p1)
        write_scan_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_old_file_and_removes_tmp(self, tmp_path, beam_a, monkeypatch):
        path = tmp_path / "scan.csv"
        path.write_text("previous contents\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("ionoptics._atomic.os.replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_scan_csv(synth_dataset(beam_a, seed=3, n_pos=5, n_dur=5), path)
        assert path.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    @pytest.mark.parametrize(
        "body,message",
        [
            ("position,duration_us,p1,shots\n0,1,0.5,100\n",  # bad header
             "line 1: expected header position_um,duration_us,p1,shots, "
             "got position,duration_us,p1,shots"),
            ("position_um,duration_us,p1,shots\n0,1,0.5\n",  # missing field
             "line 2: expected 4 fields, got 3"),
            ("position_um,duration_us,p1,shots\n0,1,0.5,100\n0,nan,0.5,100\n",
             "line 3: duration_us must be finite and >= 0, got nan"),
            ("position_um,duration_us,p1,shots\n0,1,1.5,100\n",  # p1 > 1
             "line 2: p1 must be in [0, 1], got 1.5"),
            ("position_um,duration_us,p1,shots\n0,-1,0.5,100\n",  # t < 0
             "line 2: duration_us must be finite and >= 0, got -1.0"),
            ("position_um,duration_us,p1,shots\n0,1,0.5,0\n",  # shots < 1
             "line 2: shots must be >= 1, got 0"),
            ("position_um,duration_us,p1,shots\n0,1,abc,100\n",  # not a number
             "line 2: could not convert string to float: 'abc'"),
        ],
    )
    def test_malformed_rows_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_oversized_field_names_its_line(self, tmp_path, bad_first):
        # csv refuses a field over its size limit; an earlier bad line still comes first
        limit = csv.field_size_limit()
        big = "1" * (limit + 1)
        path = tmp_path / "big.csv"
        path.write_text("position_um,duration_us,p1,shots\n"
                        + ("0,1,1.5,100\n" if bad_first else "0,1,0.5,100\n")
                        + f"0,{big},0.5,100\n")
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == ("line 2: p1 must be in [0, 1], got 1.5" if bad_first else
                                  f"line 3: field larger than field limit ({limit})")

    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_finite_field_at_the_size_limit(self, tmp_path, extra):
        # zeros parse as a finite number, so the domain check cannot stand
        # in for csv's size limit, which numpy's reader does not have
        limit = csv.field_size_limit()
        field = "0." + "0" * (limit - 3 + extra) + "5"
        path = tmp_path / "big.csv"
        path.write_text(f"position_um,duration_us,p1,shots\n0,{field},0.5,100\n")
        if extra == 0:
            assert read_scan_csv(path).duration_s.tolist() == [float(field) * 1e-6]
            return
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == f"line 2: field larger than field limit ({limit})"

    @pytest.mark.parametrize("limit", [1, 2, 5, 8])
    def test_size_guard_sees_every_long_field(self, limit, monkeypatch):
        # at every offset a field over the limit sends the text to the walk,
        # and fields of up to half the limit do not
        monkeypatch.setattr(csv, "field_size_limit", lambda: limit)
        for start in range(2 * limit + 4):
            text = "," * start + "9" * (limit + 1) + ",\n" * (2 * limit)
            assert scan_fit._may_exceed_field_limit(text)
        assert not scan_fit._may_exceed_field_limit(("9" * (limit // 2) + ",") * (4 * limit))

    @pytest.mark.parametrize("body,message", [
        ("0,1,0.5,100\n0,1,1.5,100\n0,-1,0.5,100\n0,1,0.5\n", "line 3: p1 must be in [0, 1], got 1.5"),
        ("0,1,0.5\n0,1,1.5,100\n", "line 2: expected 4 fields, got 3"),
        ('"0",1,0.5,100\n\n0,1,0.5,0\n0,1,2,100\n', "line 4: shots must be >= 1, got 0"),
    ])
    def test_first_of_several_faults_named(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("position_um,duration_us,p1,shots\n" + body)
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_undecodable_byte_names_its_line(self, tmp_path, bad_first):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"position_um,duration_us,p1,shots\n"
                         + (b"0,1,0.5\n" if bad_first else b"0,1,0.5,100\n")
                         + b"0,1,0.\xff5,100\n")
        with path.open() as fh:
            encoding = fh.encoding
        if codecs.lookup(encoding).name != "utf-8":
            pytest.skip(f"0xff may decode in {encoding}")
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == ("line 2: expected 4 fields, got 3" if bad_first else
                                  f"line 3: byte 0xff is not valid {encoding}")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports start a UTF-8 file with U+FEFF; the copy keeps
        # the stem, which is the beam label
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0", "--rabi-hz", "1910",
                     "2790", "--center-um", "0", "4.31", "--width-um", "1.86", "1.88"]) == 0
        plain = tmp_path / "scan_A.csv"
        with plain.open() as fh:
            if codecs.lookup(fh.encoding).name != "utf-8":
                pytest.skip(f"a UTF-8 byte-order mark does not read as U+FEFF in {fh.encoding}")
        (tmp_path / "bom").mkdir()
        bom = tmp_path / "bom" / "scan_A.csv"
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert read_scan_csv(bom) == read_scan_csv(plain)
        # only one mark is a byte-order mark
        bom.write_bytes(codecs.BOM_UTF8 * 2 + plain.read_bytes())
        with pytest.raises(ScanFormatError, match="^line 1: expected header"):
            read_scan_csv(bom)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ScanFormatError):
            read_scan_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("position_um,duration_us,p1,shots\n")
        with pytest.raises(ScanFormatError, match="no data rows"):
            read_scan_csv(path)

    @pytest.mark.parametrize("blank", ["\n", "\n\n", "\r\n\r\n", "\r\r"])
    def test_blank_lines_only_rejected_without_warning(self, tmp_path, blank):
        path = tmp_path / "blank.csv"
        path.write_bytes(("position_um,duration_us,p1,shots\n" + blank).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScanFormatError) as err:
                read_scan_csv(path)
        assert str(err.value) == "line 2: no data rows"

    def test_clean_files_skip_the_walk(self, tmp_path, beam_a, monkeypatch):
        # the README scan and a 121x41 scan take numpy's reader alone, with
        # the walk's values
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0", "--rabi-hz", "1910",
                     "2790", "--center-um", "0", "4.31", "--width-um", "1.86", "1.88"]) == 0
        big = tmp_path / "big.csv"
        write_scan_csv(synth_dataset(beam_a, seed=3, n_pos=121, n_dur=41), big)
        paths = [tmp_path / "scan_A.csv", big]
        walked = [scan_fit._walk_scan_records(path.read_text(), "utf-8") for path in paths]

        def no_walk(text, encoding):
            raise AssertionError("the record walk ran")

        monkeypatch.setattr(scan_fit, "_walk_scan_records", no_walk)
        for path, (x, t_us, p, shots) in zip(paths, walked):
            data = read_scan_csv(path)
            assert [c.tobytes() for c in data.arrays()] == [
                c.tobytes() for c in (x, t_us * 1e-6, p, shots)]

    def test_quoted_and_cr_copies_read_as_the_plain_file(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0", "--rabi-hz", "1910",
                     "2790", "--center-um", "0", "4.31", "--width-um", "1.86", "1.88"]) == 0
        plain = tmp_path / "scan_A.csv"
        header, *rows = plain.read_text().splitlines()
        copies = {
            "quoted": "\n".join([header] + [",".join(f'"{f}"' for f in row.split(","))
                                            for row in rows]) + "\n",
            "cr": "\r".join([header, *rows]) + "\r",
            "quoted_header": "\n".join([",".join(f'"{h}"' for h in header.split(","))]
                                       + rows) + "\n",
        }
        for name, text in copies.items():
            (tmp_path / name).mkdir()
            path = tmp_path / name / "scan_A.csv"
            path.write_bytes(text.encode())
            assert read_scan_csv(path) == read_scan_csv(plain)

    @pytest.mark.parametrize("shots,expected", [
        ("5\u0968", 52),  # a Devanagari 2, which numpy's int64 parser reads as 2360
        ("200\x1c", "line 2: invalid literal for int() with base 10: '200\\x1c'"),
    ])
    def test_fields_numpy_reads_otherwise(self, tmp_path, shots, expected):
        # numpy's reader strips \x1c-\x1f as whitespace and misreads
        # non-ASCII characters in shots; such files take the walk
        path = tmp_path / "scan.csv"
        path.write_bytes(f"position_um,duration_us,p1,shots\n0,10,0.5,{shots}\n".encode())
        if isinstance(expected, int):
            assert read_scan_csv(path).shots.tolist() == [expected]
            return
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == expected

    @pytest.mark.parametrize("shots", ["5.0", "1e2", "1.5"])
    def test_float_shots_refused_as_int_refuses_them(self, tmp_path, shots):
        path = tmp_path / "scan.csv"
        path.write_text(f"position_um,duration_us,p1,shots\n0,10,0.5,{shots}\n")
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == f"line 2: invalid literal for int() with base 10: '{shots}'"

    @pytest.mark.parametrize("shots", ["5.0", "1.5"])
    def test_loadtxt_warning_sends_the_text_to_the_walk(self, tmp_path, shots, monkeypatch):
        # a numpy that warns and casts where it should refuse must not be
        # trusted: the walk reads the file and refuses the field as int() does
        real_loadtxt = np.loadtxt

        def warn_and_cast(fname, *, dtype, **kwargs):
            as_floats = np.dtype([(name, float) for name in dtype.names])
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return real_loadtxt(fname, dtype=as_floats, **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", warn_and_cast)
        path = tmp_path / "scan.csv"
        path.write_text(f"position_um,duration_us,p1,shots\n0,10,0.5,{shots}\n")
        with pytest.raises(ScanFormatError) as err:
            read_scan_csv(path)
        assert str(err.value) == f"line 2: invalid literal for int() with base 10: '{shots}'"

    def test_negative_positions_are_valid(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("position_um,duration_us,p1,shots\n-2.5,10,0.5,100\n")
        assert read_scan_csv(path).position_um[0] == -2.5

    def test_shots_beyond_64_bits_named(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(f"position_um,duration_us,p1,shots\n0,10,0.5,{1 << 63}\n")
        with pytest.raises(ScanFormatError) as info:
            read_scan_csv(path)
        assert str(info.value) == (
            "line 2: shots 9223372036854775808 does not fit a 64-bit integer")

    def test_durations_stored_in_seconds(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("position_um,duration_us,p1,shots\n0,250,0.5,100\n")
        assert read_scan_csv(path).duration_s[0] == pytest.approx(250e-6)


# Scan CSV text mixing valid rows with NaN/inf, negative durations, p outside
# [0, 1], shots < 1 or beyond 64 bits, non-numeric and 1_000-style fields,
# quoted fields (some holding a comma, a newline or an unclosed quote), fields
# over the csv module's size limit, wrong field counts, blank and
# whitespace-only lines, with LF, CRLF or lone CR line ends.
_FIELD = st.one_of(
    st.floats().map(repr),  # includes nan, inf, -inf, negatives
    st.integers(-3, 300).map(str),
    st.sampled_from(["abc", "", "1.5.2", " 7", "1e400", str(1 << 63), str(-(1 << 63) - 1),
                     "1_000", "0.2_5", "1__0", "_1"]),
    st.sampled_from(['"0.5"', '"1,5"', '"1\n5"', '"1\r\n"', '"a""b"', '"7', 'x"y']),
    st.just("9" * (csv.field_size_limit() + 1)),
)
_VALID_ROW = st.tuples(
    st.floats(-50.0, 50.0), st.floats(0.0, 500.0), st.floats(0.0, 1.0), st.integers(1, 1000),
).map(lambda v: f"{v[0]!r},{v[1]!r},{v[2]!r},{v[3]}")


def _dress(values):
    """A valid row with every field quoted or padded with spaces, or with
    the shots written with digit separators ("1_0"): CSV that the format
    accepts and numpy's reader refuses or strips."""
    *numbers, dress = values
    fields = [repr(numbers[0]), repr(numbers[1]), repr(numbers[2]), str(numbers[3])]
    if dress == "separator":
        fields[3] = "_".join(fields[3])
    else:
        fields = [f'"{f}"' if dress == "quote" else f" {f} " for f in fields]
    return ",".join(fields)


_DRESSED_ROW = st.tuples(
    st.floats(-50.0, 50.0), st.floats(0.0, 500.0), st.floats(0.0, 1.0), st.integers(1, 1000),
    st.sampled_from(["quote", "pad", "separator"]),
).map(_dress)
_IN_RANGE = ("0", "10", "0.5", "100")
_OUT_OF_RANGE = (("nan", "inf", "-inf"), ("-1", "inf", "nan"), ("1.5", "-0.1", "nan"), ("0", "-2"))
_OUT_OF_RANGE_ROW = st.sampled_from(
    [(k, v) for k, values in enumerate(_OUT_OF_RANGE) for v in values]
).map(lambda kv: ",".join(kv[1] if i == kv[0] else v for i, v in enumerate(_IN_RANGE)))
_ROW = st.one_of(
    _VALID_ROW, _VALID_ROW, _VALID_ROW, _DRESSED_ROW, _OUT_OF_RANGE_ROW,
    st.lists(_FIELD, min_size=1, max_size=6).map(",".join),
    st.sampled_from(["", " ", " \t"]),
)


def _reference_scan_rows(text):
    """A plain loop over the records after the header: the message naming
    the first offending one, or the parsed rows (position um, duration s,
    p1, shots)."""
    rows = []
    records = csv.reader(io.StringIO(text, newline=""))
    next(records)
    for lineno in itertools.count(2):
        try:
            row = next(records, None)
        except csv.Error as exc:
            return f"line {lineno}: {exc}"
        if row is None:
            return rows or "line 2: no data rows"
        if not row:
            continue
        if len(row) != 4:
            return f"line {lineno}: expected 4 fields, got {len(row)}"
        try:
            x, t_us, p1, shots = float(row[0]), float(row[1]), float(row[2]), int(row[3])
        except ValueError as exc:
            return f"line {lineno}: {exc}"
        if not -(1 << 63) <= shots < 1 << 63:
            return f"line {lineno}: shots {row[3]} does not fit a 64-bit integer"
        for name, value, ok in [
            ("position_um must be finite", x, math.isfinite(x)),
            ("duration_us must be finite and >= 0", t_us, math.isfinite(t_us) and t_us >= 0),
            ("p1 must be in [0, 1]", p1, 0.0 <= p1 <= 1.0),
            ("shots must be >= 1", shots, shots >= 1),
        ]:
            if not ok:
                return f"line {lineno}: {name}, got {value!r}"
        rows.append((x, t_us * 1e-6, p1, shots))


class TestScanCsvFuzz:
    @given(lines=st.lists(_ROW, max_size=12), eol=st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=300, deadline=None)
    def test_rejects_first_bad_line_or_returns_the_rows(self, tmp_path_factory, lines, eol):
        text = eol.join(["position_um,duration_us,p1,shots", *lines]) + eol
        path = tmp_path_factory.mktemp("fuzz") / "scan.csv"
        path.write_bytes(text.encode())
        expected = _reference_scan_rows(text)
        if isinstance(expected, str):
            with pytest.raises(ScanFormatError) as err:
                read_scan_csv(path)
            assert str(err.value) == expected
        else:
            data = read_scan_csv(path)
            for column, values in zip(data.arrays(), zip(*expected)):
                assert column.tolist() == list(values)


class TestRecordValidation:
    def test_arrays_built_once_and_read_only(self, beam_a):
        ds = synth_dataset(beam_a, seed=3, n_pos=5, n_dur=5)
        first = ds.arrays()
        assert all(a is b for a, b in zip(first, ds.arrays()))
        assert not any(column.flags.writeable for column in first)
        assert all(a is b for a, b in zip(first, (ds.position_um, ds.duration_s, ds.p1, ds.shots)))

    @pytest.mark.parametrize("column,value", [
        ("position_um", math.inf), ("duration_s", -1e-4), ("duration_s", math.nan),
        ("p1", 1.2), ("p1", math.nan), ("shots", 0),
    ])
    def test_columns_checked_as_records_are(self, column, value):
        # each record is checked by its column's domain, and the error
        # names the first bad record
        good = {"position_um": 0.5, "duration_s": 1e-4, "p1": 0.5, "shots": 100}
        columns = {name: [value_] * 5 for name, value_ in good.items()}
        assert len(ScanDataset(**columns)) == 5
        columns[column][2] = columns[column][4] = value
        with pytest.raises(ValueError, match=f"record 2: {column}"):
            ScanDataset(**columns)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ScanDataset([], [], [], [])

    def test_float_shots_rejected(self):
        with pytest.raises(ValueError, match="^shots must be integers, got dtype float64$"):
            ScanDataset([0.0], [0.0], [0.5], [100.0])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="^columns must be 1-D and of equal length$"):
            ScanDataset([0.0, 1.0], [0.0], [0.5], [100])

    def test_not_equal_to_other_types(self):
        ds = ScanDataset([0.0], [0.0], [0.5], [100])
        assert (ds == 5) is False
        assert ds != 5


# === Model and Jacobian =====================================================


class TestJacobian:
    def test_matches_central_differences(self, beam_a):
        # 100 random parameter/coordinate samples.  Central differences
        # carry roundoff noise of order eps/h, so elementwise relative
        # comparison is meaningless where a partial passes through zero;
        # normalize each column by its characteristic magnitude over the
        # sample instead.
        rng = np.random.default_rng(42)
        spam = SpamModel()
        analytic_rows = []
        fd_rows = []
        for _ in range(100):
            params = BeamProfileParams(
                omega0=float(rng.uniform(0.3, 3.0)) * TWO_PI * 2000.0,
                center_um=float(rng.uniform(-3.0, 3.0)),
                width_um=float(rng.uniform(0.8, 4.0)),
            )
            x = float(rng.uniform(-6.0, 6.0))
            t = float(rng.uniform(0.0, 2e-3))
            analytic_rows.append(fit_model_jacobian(params, spam, x, t))
            row = []
            for attr, scale in (
                ("omega0", params.omega0),
                ("center_um", 1.0),
                ("width_um", 1.0),
            ):
                h = 2e-6 * scale
                hi = dict(omega0=params.omega0, center_um=params.center_um,
                          width_um=params.width_um)
                lo = dict(hi)
                hi[attr] += h
                lo[attr] -= h
                row.append(
                    (fit_model(BeamProfileParams(**hi), spam, x, t)
                     - fit_model(BeamProfileParams(**lo), spam, x, t)) / (2 * h)
                )
            fd_rows.append(row)
        analytic = np.asarray(analytic_rows)
        fd = np.asarray(fd_rows)
        col_scale = np.abs(analytic).max(axis=0)
        assert np.all(col_scale > 0)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)),
                           1e-3 * col_scale)
        worst = float(np.max(np.abs(analytic - fd) / denom))
        assert worst < 1e-6

    def test_spam_rows_match_central_differences(self):
        # the partials w.r.t. eps_prep and kappa, written by fill_jacobian
        # as rows 3 and 4, against central differences of the model
        rng = np.random.default_rng(7)
        x = rng.uniform(-6.0, 6.0, 200)
        t = rng.uniform(0.0, 2e-3, 200)
        for _ in range(20):
            vec = np.array([rng.uniform(0.3, 3.0) * TWO_PI * 2000.0, rng.uniform(-3.0, 3.0),
                            rng.uniform(0.8, 4.0), rng.uniform(0.0, 0.2), rng.uniform(0.6, 1.0)])
            jac = np.empty((5, 200))
            _excitation(vec, x, t)[1](jac)
            for row in (3, 4):
                h = 1e-6
                hi, lo = vec.copy(), vec.copy()
                hi[row] += h
                lo[row] -= h
                fd = (_excitation(hi, x, t)[0] - _excitation(lo, x, t)[0]) / (2 * h)
                np.testing.assert_allclose(jac[row], fd, rtol=1e-7, atol=1e-7)
            np.testing.assert_array_equal(jac[3], 1.0)

    def test_gradient_zero_at_center_for_symmetric_params(self, beam_a):
        spam = SpamModel()
        jac = fit_model_jacobian(beam_a, spam, beam_a.center_um, 1e-4)
        assert float(jac[1]) == pytest.approx(0.0, abs=1e-15)  # d/dcenter
        assert float(jac[2]) == pytest.approx(0.0, abs=1e-15)  # d/dwidth


# === Global fit =============================================================


def _count_lm_runs(monkeypatch) -> list:
    """Record every _levenberg_marquardt run of the fits that follow."""
    runs = []
    lm = scan_fit._levenberg_marquardt

    def counted(*args):
        runs.append(lm(*args))
        return runs[-1]

    monkeypatch.setattr(scan_fit, "_levenberg_marquardt", counted)
    return runs


class TestBestRun:
    @staticmethod
    def run(rms, tag, converged=True):
        return scan_fit._LMRun(params=np.array([tag]), cov=np.eye(1), rms=rms,
                               n_iter=tag, converged=converged)

    def test_earliest_of_tied_runs(self):
        # runs 0 and 1 reach one optimum; rounding left run 0 one part in
        # 1e13 above run 1, which min() would report
        runs = [self.run(3.0 * (1 + 1e-13), 0), self.run(3.0, 1),
                self.run(1.0, 2, converged=False), self.run(3.0 * (1 + 1e-11), 3)]
        assert min(runs[:2], key=lambda run: run.rms) is runs[1]
        assert _best_run(runs) is runs[0]

    def test_lower_rms_beyond_the_tie_wins(self):
        runs = [self.run(3.0 * (1 + 1e-11), 0), self.run(3.0, 1)]
        assert _best_run(runs) is runs[1]

    def test_unconverged_pool_when_nothing_converged(self):
        runs = [self.run(2.0, 0, converged=False), self.run(1.0, 1, converged=False)]
        assert _best_run(runs) is runs[1]


def _linear_residual(jac, target):
    """``residual(p)`` of r = jac^T p - target; ``jac`` holds one row per
    parameter, the layout ``fill_jacobian`` writes."""
    jac, target = np.array(jac, dtype=float), np.array(target, dtype=float)

    def fill_jacobian(out):
        out[:] = jac

    return lambda p: (p @ jac - target, fill_jacobian)


class TestLevenbergMarquardtExits:
    """The four exits of the LM core that no fit in these tests reaches,
    and its step test at scales no fit reaches, pinned on linear toy
    residuals."""

    @staticmethod
    def run(jac, target, p0, is_valid=lambda p: True):
        residual, p0 = _linear_residual(jac, target), np.array(p0, dtype=float)
        return scan_fit._levenberg_marquardt(residual, p0, is_valid, 200)

    def test_zero_residual_stops_on_the_gradient(self):
        run = self.run([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], [1.0, 2.0])
        assert run.converged and run.n_iter == 1
        assert run.params.tolist() == [1.0, 2.0]
        assert run.rms == 0.0

    def test_zero_jacobian_column_is_singular(self):
        # the second parameter moves no residual: its damped row is all zero
        with pytest.raises(DegenerateDataError, match="^normal equations singular: "):
            self.run([[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0], [0.0, 0.0])

    def test_every_step_rejected_hits_the_damping_cap(self):
        # the step is (r/J)/(1 + mu); with r/J = 1e140 and p = 1e-60 it
        # stays above STEP_TOL * |p| until mu passes 1e200, and its norm
        # neither overflows nor underflows on the way
        run = self.run([[1e-70]], [1e70], [1e-60], is_valid=lambda p: False)
        assert not run.converged
        assert run.n_iter < 200
        assert run.params.tolist() == [1e-60]

    def test_identical_jacobian_columns_are_singular_at_the_optimum(self):
        # damping keeps every step solvable; J^T J itself is [[1, 1], [1, 1]]
        with pytest.raises(DegenerateDataError,
                           match="^normal equations singular at optimum: "):
            self.run([[1.0], [1.0]], [1.0], [0.0, 0.0])

    def test_no_move_from_zero_is_not_convergence(self):
        # from p = 0 no step is small against |p|, so a run whose every
        # step is rejected ends at the damping cap, not on the step test
        run = self.run([[1.0]], [1.0], [0.0], is_valid=lambda p: False)
        assert not run.converged
        assert run.n_iter == 37
        assert run.params.tolist() == [0.0]

    def test_step_test_neither_overflows_nor_warns(self):
        # a 1e100 step from p = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = self.run([[1e-50]], [1e50], [0.0])
        assert run.converged
        assert run.params[0] == pytest.approx(1e100, rel=1e-9)


class TestInitialGuess:
    @staticmethod
    def scan():
        # four positions, each oscillating more than the last
        x = np.repeat([0.0, 1.0, 2.0, 3.0], 4)
        t = np.tile([0.0, 1e-4, 2e-4, 3e-4], 4)
        p = np.tile([0.0, 1.0, 0.0, 1.0], 4) * 0.1 * (x + 1.0)
        return ScanDataset(x, t, p, np.full(16, 100))

    def test_no_weight_in_the_profile(self):
        profile = FreqProfile([0.0, 1.0, 2.0, 3.0], np.zeros(4), np.full(4, math.inf),
                              np.ones(4, bool))
        with pytest.raises(DegenerateDataError,
                           match="^no starting point: all profile weights are zero$"):
            initial_guess(self.scan(), profile)

    def test_profile_without_width(self):
        profile = FreqProfile([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 1000.0],
                              [math.inf, math.inf, math.inf, 10.0], [True, True, True, False])
        with pytest.raises(DegenerateDataError,
                           match="^no starting point: the frequency profile has no width$"):
            initial_guess(self.scan(), profile)

    @pytest.mark.parametrize("stray", [4.0, 1.5], ids=["past_last", "between"])
    def test_profile_position_off_the_scan(self, stray):
        # the scan holds positions 0, 1, 2 and 3; the error names the first
        # profile position that is none of them
        profile = FreqProfile([0.0, 1.0, stray, 2.0, 3.0, 5.0], np.full(6, 1000.0),
                              np.full(6, 10.0), np.zeros(6, bool))
        with pytest.raises(ValueError, match=(
                rf"^profile position {stray!r} um is not a position of the scan$")):
            initial_guess(self.scan(), profile)


class TestFitBeam:
    def test_noiseless_exact_recovery(self, beam_a):
        ds = synth_dataset(beam_a)
        result = fit_beam(ds)
        assert result.converged
        assert result.params.omega0 == pytest.approx(beam_a.omega0, rel=1e-6)
        assert result.params.center_um == pytest.approx(0.0, abs=1e-6)
        assert result.params.width_um == pytest.approx(beam_a.width_um, rel=1e-6)
        assert result.residual_rms < 1e-6

    def test_noisy_recovery_within_uncertainty(self, beam_a):
        ds = synth_dataset(beam_a, seed=9)
        result = fit_beam(ds)
        err = result.param_errors()
        assert abs(result.params.omega0 - beam_a.omega0) < 5 * err[0]
        assert abs(result.params.center_um - beam_a.center_um) < 5 * err[1]
        assert abs(result.params.width_um - beam_a.width_um) < 5 * err[2]

    def test_shift_equivariance(self, beam_a):
        base = synth_dataset(beam_a, seed=5, n_pos=21, n_dur=11)
        delta = 2.75
        shifted = ScanDataset(base.position_um + delta, base.duration_s, base.p1, base.shots)
        fit0 = fit_beam(base)
        fit1 = fit_beam(shifted)
        assert fit1.params.center_um - fit0.params.center_um == pytest.approx(
            delta, abs=1e-6)
        assert fit1.params.omega0 == pytest.approx(fit0.params.omega0, rel=1e-9)
        assert fit1.params.width_um == pytest.approx(fit0.params.width_um, rel=1e-9)

    def test_duration_scale_equivariance(self, beam_a):
        # stretching every duration by s must shrink the fitted frequency
        # by exactly 1/s and leave the envelope untouched
        base = synth_dataset(beam_a, seed=5, n_pos=21, n_dur=11)
        s = 2.0
        stretched = ScanDataset(base.position_um, base.duration_s * s, base.p1, base.shots)
        fit0 = fit_beam(base)
        fit1 = fit_beam(stretched)
        assert fit1.params.omega0 == pytest.approx(fit0.params.omega0 / s, rel=1e-9)
        assert fit1.params.center_um == pytest.approx(fit0.params.center_um, abs=1e-9)
        assert fit1.params.width_um == pytest.approx(fit0.params.width_um, rel=1e-9)

    def test_uncertainty_shrinks_with_shot_count(self, beam_a):
        # analytic data: quadrupling the shots halves every predicted sigma
        lo = fit_beam(synth_dataset(beam_a, shots=100))
        hi = fit_beam(synth_dataset(beam_a, shots=400))
        for a, b in zip(lo.param_errors(), hi.param_errors()):
            assert b == pytest.approx(a / 2.0, rel=0.05)

    def test_estimator_calibration(self, beam_a):
        # the reported sigma must match the seed-to-seed scatter of the
        # estimates within a factor of 2, at the operating grid density
        n = 40
        estimates = np.empty((n, 3))
        sigmas = np.empty((n, 3))
        for seed in range(n):
            r = fit_beam(synth_dataset(beam_a, seed=seed, n_pos=61, n_dur=21))
            estimates[seed] = [r.params.omega0, r.params.center_um, r.params.width_um]
            sigmas[seed] = r.param_errors()
        empirical = estimates.std(axis=0, ddof=1)
        predicted = sigmas.mean(axis=0)
        for emp, pred in zip(empirical, predicted):
            assert pred / 2.0 < emp < pred * 2.0

    def test_multistart_recovers_from_model_mismatch(self, beam_a, monkeypatch):
        # exact data from a beam with a second lobe at half the peak, one
        # width off center: no Gaussian and no SPAM reaches the shot-noise
        # floor, so the deterministic restarts must run
        positions, durations = default_scan_grid(beam_a, 31, 15)
        x, t = np.meshgrid(positions, durations, indexing="ij")
        lobe = replace(beam_a, center_um=beam_a.center_um + beam_a.width_um)
        u, v = ((x - beam.center_um) / beam.width_um for beam in (beam_a, lobe))
        omega = beam_a.omega0 * np.exp(-2.0 * u * u) + 0.5 * lobe.omega0 * np.exp(-2.0 * v * v)
        p = apply_spam(np.sin(0.5 * omega * t) ** 2, SpamModel())
        ds = ScanDataset(x.ravel(), t.ravel(), p.ravel(), np.full(x.size, 200))
        runs = _count_lm_runs(monkeypatch)
        result = fit_beam(ds)
        assert result.multi_start_used
        assert result.converged
        assert len(runs) == 6
        # the reported run is tied for the lowest RMS
        assert result.residual_rms <= min(run.rms for run in runs) * (1 + scan_fit.RMS_TIE)

    def test_spam_mismatch_absorbed_in_one_run(self, beam_a, monkeypatch):
        # exact data made with heavy SPAM and started from the default 0.01:
        # the fitted SPAM absorbs the difference
        ds = synth_dataset(beam_a, spam=SpamModel(eps_prep=0.25, eps_meas=0.25))
        runs = _count_lm_runs(monkeypatch)
        result = fit_beam(ds)
        assert len(runs) == 1
        assert not result.multi_start_used
        assert result.converged
        assert result.spam.eps_prep == pytest.approx(0.25, abs=1e-6)
        assert result.spam.eps_meas == pytest.approx(0.25, abs=1e-6)
        assert result.params.width_um == pytest.approx(beam_a.width_um, rel=1e-6)

    @pytest.mark.parametrize("spam", [SpamModel(0.08, 0.08), SpamModel(0.02, 0.10)],
                             ids=["spam_0.08_0.08", "spam_0.02_0.10"])
    def test_fitted_spam_removes_width_bias(self, beam_a, spam):
        # 121 x 41 scans fitted from the default starting SPAM (0.01)
        width_bias, fits = [], []
        for seed in range(10):
            fit = fit_beam(synth_dataset(beam_a, seed=seed, n_pos=121, n_dur=41, spam=spam))
            width_bias.append((fit.params.width_um - beam_a.width_um) / fit.param_errors()[2])
            fits.append(fit)
        assert abs(np.mean(width_bias)) < 1.0
        for fit in fits:
            assert abs(fit.spam.eps_prep - spam.eps_prep) < 0.01
            assert abs(fit.spam.eps_meas - spam.eps_meas) < 0.01
            assert fit.residual_rms < 1.2
            assert not fit.multi_start_used

    def test_calibration_with_fitted_spam(self, beam_a):
        # 30 seeds on the operating grid, SPAM 0.03/0.05: for all five
        # parameters the mean reported sigma is within a factor 1.5 of the
        # seed-to-seed scatter, and the mean estimate is within 3 standard
        # errors of the truth (bounds fixed before the first run)
        n, spam = 30, SpamModel(eps_prep=0.03, eps_meas=0.05)
        truth = [beam_a.omega0, beam_a.center_um, beam_a.width_um, spam.eps_prep, spam.eps_meas]
        estimates = np.empty((n, 5))
        sigmas = np.empty((n, 5))
        for seed in range(n):
            r = fit_beam(synth_dataset(beam_a, seed=100 + seed, n_pos=61, n_dur=21, spam=spam))
            estimates[seed] = [r.params.omega0, r.params.center_um, r.params.width_um,
                               r.spam.eps_prep, r.spam.eps_meas]
            sigmas[seed] = [*r.param_errors(), *r.spam_errors]
        empirical = estimates.std(axis=0, ddof=1)
        predicted = sigmas.mean(axis=0)
        for emp, pred in zip(empirical, predicted):
            assert pred / 1.5 < emp < pred * 1.5
        bias = estimates.mean(axis=0) - truth
        assert np.all(np.abs(bias) < 3.0 * empirical / math.sqrt(n))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_spam_converges_inside_the_domain(self, beam_a, seed):
        # with eps = 0 the unconstrained optimum often lies just below 0
        spam = SpamModel(eps_prep=0.0, eps_meas=0.0)
        fit = fit_beam(synth_dataset(beam_a, seed=seed, n_pos=61, n_dur=21, spam=spam))
        assert fit.converged
        assert 0.0 <= fit.spam.eps_prep < 0.005
        assert 0.0 <= fit.spam.eps_meas < 0.005
        assert abs(fit.params.width_um - beam_a.width_um) < 5 * fit.param_errors()[2]

    def test_scan_without_dark_records_starts_from_the_default_spam(self, beam_a):
        # no t = 0 record gives eps_prep, so the fit starts from 0.01/0.01
        spam = SpamModel(eps_prep=0.02, eps_meas=0.10)
        x, t, p, shots = synth_dataset(beam_a, seed=4, n_pos=61, n_dur=21, spam=spam).arrays()
        driven = t > 0
        assert not driven.all()
        ds = ScanDataset(x[driven], t[driven], p[driven], shots[driven])
        fit = fit_beam(ds)
        assert fit.converged
        assert fit.spam.eps_prep == pytest.approx(0.02, abs=0.005)
        assert fit.spam.eps_meas == pytest.approx(0.10, abs=0.01)

    def test_least_squares_spam_at_a_fixed_beam(self, beam_a):
        # exact data: the closed form returns the SPAM it was made with; on
        # data that no SpamModel fits (p = 1 - sin^2, so eps_prep = 1), and
        # where sin^2 = 0 on every record makes the 2 x 2 system singular,
        # it returns the fallback
        spam, fallback = SpamModel(eps_prep=0.03, eps_meas=0.05), SpamModel(0.02, 0.02)
        ds = synth_dataset(beam_a, spam=spam)
        x, t, _, shots = ds.arrays()
        sin_sq = p_excited(beam_a, x, t)
        got = scan_fit._spam_at(ds, sin_sq, fallback)
        assert got.eps_prep == pytest.approx(0.03, abs=1e-12)
        assert got.eps_meas == pytest.approx(0.05, abs=1e-12)
        inverted = ScanDataset(x, t, 1.0 - sin_sq, shots)
        assert scan_fit._spam_at(inverted, sin_sq, fallback) is fallback
        assert scan_fit._spam_at(ds, np.zeros_like(sin_sq), fallback) is fallback

    def test_bright_dark_records_rejected(self, beam_a):
        # t = 0 records that read bright half the time give no SPAM error
        x, t, p, shots = synth_dataset(beam_a, n_pos=21, n_dur=11).arrays()
        ds = ScanDataset(x, t, np.where(t == 0, 0.6, p), shots)
        with pytest.raises(DegenerateDataError, match="t = 0 records"):
            fit_beam(ds)

    @pytest.mark.parametrize("profile", [
        lambda x: np.exp(5.0 + x * x),  # ln Omega convex: not a Gaussian
        lambda x: 1e4 * np.exp(-2.0 * (x - 3.0) ** 2),  # center beyond x_hi + w0
        lambda x: 1e4 * np.exp(-2.0 * (x / 5.0) ** 2),  # w0 beyond twice the span
    ], ids=["not-concave", "center-off-span", "too-wide"])
    def test_unsupported_log_parabola_rejected(self, profile):
        x = np.linspace(-1.0, 1.0, 9)
        assert scan_fit._log_profile_refinement(x, profile(x), np.ones_like(x), -1.0, 1.0) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coarse_scan_starts_from_the_profile_moments(self, beam_a, seed, monkeypatch):
        # 9 positions over +-6 um leave too few bright points for the
        # ln Omega parabola; the start is the profile's mean and half its
        # D4sigma, and the fit recovers the beam
        _, durations = default_scan_grid(beam_a, 61, 21)
        ds = generate(SynthConfig(truth=beam_a, positions_um=tuple(np.linspace(-6.0, 6.0, 9)),
                                  durations_s=durations, shots=200, rng_seed=seed))[0]
        refinements = []
        refine = scan_fit._log_profile_refinement
        monkeypatch.setattr(scan_fit, "_log_profile_refinement",
                            lambda *args: refinements.append(refine(*args)) or refinements[-1])
        fit = fit_beam(ds)
        assert refinements == [None]
        start = initial_guess(ds, fit.freq_profile)
        assert start.width_um == pytest.approx(d4sigma(fit.freq_profile) / 2, rel=1e-12)
        assert fit.converged
        assert fit.params.omega0 == pytest.approx(beam_a.omega0, rel=0.02)
        assert fit.params.width_um == pytest.approx(beam_a.width_um, rel=0.02)

    def test_no_oscillation_at_the_profile_mean_rejected(self):
        # the profile point nearest the moments' mean fits Omega = 0: the
        # start has no peak frequency
        beam = BeamProfileParams(omega0=TWO_PI * 1484.716204440631,
                                 center_um=-0.28655953452122507, width_um=3.819436660380868)
        ds = generate(SynthConfig(
            truth=beam, positions_um=tuple(np.linspace(-13.104793504282338, 11.30027074080746, 31)),
            durations_s=tuple(np.linspace(0.0, 0.0034765828482869396, 6)), shots=20,
            spam=SpamModel(0.24091962352202279, 0.11310444054525354), rng_seed=10))[0]
        with pytest.raises(DegenerateDataError, match="no oscillation"):
            fit_beam(ds)

    def test_non_convergence_carries_best_result(self, beam_a):
        ds = synth_dataset(beam_a, seed=2, n_pos=15, n_dur=9)
        with pytest.raises(FitConvergenceError) as err:
            fit_beam(ds, max_iterations=1)
        carried = err.value.result
        assert isinstance(carried, BeamFitResult)
        assert not carried.converged
        assert carried.params.omega0 > 0

    def test_too_few_positions_rejected(self, beam_a):
        # built by hand: the synthetic grid helper enforces a position
        # step cap and would silently densify a 3-column request
        x, t = np.meshgrid([-1.0, 0.0, 1.0], np.linspace(1e-5, 3 * TWO_PI / beam_a.omega0, 9),
                           indexing="ij")
        with pytest.raises(DegenerateDataError, match="positions"):
            fit_beam(ScanDataset(x.ravel(), t.ravel(), np.full(x.size, 0.5), np.full(x.size, 100)))

    def test_too_few_durations_rejected(self, beam_a):
        ds = synth_dataset(beam_a, seed=0, n_pos=9, n_dur=3)
        with pytest.raises(DegenerateDataError, match="durations"):
            fit_beam(ds)

    def test_single_duration_rejected(self, beam_a):
        x, _, p, shots = synth_dataset(beam_a, seed=0, n_pos=9, n_dur=5).arrays()
        with pytest.raises(DegenerateDataError, match="all durations equal"):
            fit_beam(ScanDataset(x, np.full(x.size, 1e-4), p, shots))

    def test_too_few_records_rejected(self):
        # 4 distinct positions and 4 distinct durations, one record each
        i = np.arange(4.0)
        with pytest.raises(DegenerateDataError, match="need >= 12 records, got 4"):
            fit_beam(ScanDataset(i, i * 1e-4, np.full(4, 0.5), np.full(4, 100)))

    def test_flat_data_rejected(self):
        i, j = np.meshgrid(np.arange(5.0), np.arange(5), indexing="ij")
        with pytest.raises(DegenerateDataError):
            fit_beam(ScanDataset(i.ravel(), j.ravel() * 1e-4, np.full(i.size, 0.25),
                                 np.full(i.size, 100)))

    def test_amplitude_profile_matches_per_position_loop(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 7, 60).astype(float)  # repeated, unsorted positions
        p = rng.uniform(0.0, 1.0, 60)
        xs, amp = ScanDataset(x, np.zeros(60), p, np.full(60, 100))._amplitude
        ref = np.array([p[x == v].max() - p[x == v].min() for v in np.unique(x)])
        assert np.array_equal(xs, np.unique(x))
        assert np.array_equal(amp, ref - ref.min())

    def test_empty_frequency_profile_rejected(self):
        # 8 distinct durations in all, but only 3 at each position: every
        # position is skipped in the profile that seeds the start point
        i, j = np.meshgrid(np.arange(6), np.arange(3), indexing="ij")
        data = ScanDataset(i.ravel().astype(float), (i + j).ravel() * 1e-4,
                           (0.1 + 0.08 * i * j).ravel(), np.full(i.size, 100))
        with pytest.warns(UserWarning, match="skipped"):
            with pytest.raises(DegenerateDataError, match="profile has no points"):
                fit_beam(data)

    @pytest.mark.parametrize("max_iterations", [0, -5, 2.5, True])
    def test_invalid_max_iterations_rejected(self, beam_a, max_iterations):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            fit_beam(synth_dataset(beam_a, seed=2, n_pos=15, n_dur=9),
                     max_iterations=max_iterations)


def _fit_or_carried(data, max_iterations):
    try:
        return fit_beam(data, max_iterations=max_iterations)
    except FitConvergenceError as exc:
        return exc.result


def _vector_spam(vec):
    """The SpamModel of a parameter vector (omega0, center, width, eps_prep, kappa)."""
    return SpamModel(eps_prep=vec[3], eps_meas=1.0 - vec[3] - vec[4])


class TestAgainstReferenceLM:
    """fit_beam with the fused kernel against the same fit on the reference LM.

    The reference evaluates the model through fit_model, fit_model_jacobian
    and p_excited, and weights every run by the model at the first start
    (the initial guess). Only the rounding of the normal equations differs,
    so the step directions differ in their last digits; the tolerances
    were fixed before the comparison was run.
    """

    @staticmethod
    def reference_fit(data, max_iterations, monkeypatch):
        x, t, p, shots = data.arrays()
        runs = []

        def fun_jac(vec):
            params, vec_spam = BeamProfileParams(*vec[:3]), _vector_spam(vec)
            r = sqrt_w * (fit_model(params, vec_spam, x, t) - p)
            jac = np.column_stack([fit_model_jacobian(params, vec_spam, x, t),
                                   np.ones_like(x), p_excited(params, x, t)])
            return r, sqrt_w[:, None] * jac

        def reference_lm(residual, p0, is_valid, n):
            nonlocal sqrt_w
            if not runs:
                guess = fit_model(BeamProfileParams(*p0[:3]), _vector_spam(p0), x, t)
                sqrt_w = np.sqrt(_binomial_weights(guess, shots))
            runs.append(_reference_levenberg_marquardt(fun_jac, p0, is_valid, n))
            return runs[-1]

        sqrt_w = None
        with monkeypatch.context() as patch:
            patch.setattr(scan_fit, "_levenberg_marquardt", reference_lm)
            return _fit_or_carried(data, max_iterations), runs

    @staticmethod
    def recovery_scan(beams, seed):
        positions, durations = default_scan_grid(beams, 61, 21)
        return generate(SynthConfig(truth=beams, positions_um=positions,
                                    durations_s=durations, shots=200, rng_seed=seed))

    @pytest.mark.parametrize("case", [
        "recovery_0", "recovery_1", "recovery_2", "spam_mismatch", "max_iterations_1"])
    def test_matches_reference(self, beam_a, beam_b, monkeypatch, case):
        max_iterations = 200
        if case.startswith("recovery"):
            scans = self.recovery_scan((beam_a, beam_b), int(case[-1]))
        elif case == "spam_mismatch":
            # made with SPAM 0.08, started from 0.01: the fitted SPAM absorbs
            # the difference, so one run reaches the shot-noise floor
            scans = [synth_dataset(beam_a, seed=5, n_pos=121, n_dur=41,
                                   spam=SpamModel(eps_prep=0.08, eps_meas=0.08))]
        else:
            scans, max_iterations = [synth_dataset(beam_a, seed=2, n_pos=15, n_dur=9)], 1
        for data in scans:
            ref, ref_runs = self.reference_fit(data, max_iterations, monkeypatch)
            fit = _fit_or_carried(data, max_iterations)
            sigma = np.append(ref.param_errors(), ref.spam_errors)
            got = np.array([fit.params.omega0, fit.params.center_um, fit.params.width_um,
                            fit.spam.eps_prep, fit.spam.eps_meas])
            want = np.array([ref.params.omega0, ref.params.center_um, ref.params.width_um,
                             ref.spam.eps_prep, ref.spam.eps_meas])
            assert np.all(np.abs(got - want) <= 1e-6 * sigma)
            got_sigma = np.append(fit.param_errors(), fit.spam_errors)
            assert np.all(np.abs(got_sigma - sigma) <= 1e-8 * sigma)
            assert abs(fit.residual_rms - ref.residual_rms) <= 1e-12 * ref.residual_rms
            assert fit.converged == ref.converged == (case != "max_iterations_1")
            assert fit.multi_start_used == ref.multi_start_used == (case == "max_iterations_1")
            assert abs(fit.n_iterations - ref.n_iterations) <= 3
            _assert_same_columns(fit.freq_profile, ref.freq_profile)
            if not ref.multi_start_used:
                # the SPAM errors come from the 5 x 5 inverse at the optimum,
                # eps_meas = 1 - eps_prep - kappa
                cov = ref_runs[0].cov
                for row, err in zip(([0, 0, 0, 1, 0], [0, 0, 0, -1, -1]), fit.spam_errors):
                    assert err == pytest.approx(math.sqrt(row @ cov @ row), rel=1e-8)


# === Frequency profile and width ============================================


@pytest.fixture(scope="module")
def analytic_profile(beam_a):
    w0 = beam_a.width_um
    positions = (-3 * w0, -w0, -w0 / 2, 0.0, w0 / 2, w0, 3 * w0)
    durations = tuple(np.linspace(0.0, 3 * TWO_PI / beam_a.omega0, 21))
    cfg = SynthConfig(truth=beam_a, positions_um=positions,
                      durations_s=durations, analytic=True)
    return fit_freq_profile(generate(cfg)[0])


def _rows_by_position(profile):
    """Row index of each profile position, rounded to 1e-6 um."""
    return {round(x, 6): i for i, x in enumerate(profile.position_um.tolist())}


class TestFreqProfile:
    def test_center_recovers_peak(self, analytic_profile, beam_a):
        by_pos = _rows_by_position(analytic_profile)
        assert analytic_profile.omega[by_pos[0.0]] == pytest.approx(beam_a.omega0, rel=1e-9)

    def test_half_width_point_on_envelope(self, analytic_profile, beam_a):
        by_pos = _rows_by_position(analytic_profile)
        expected = beam_a.omega0 * math.exp(-0.5)
        for x in (1.86 / 2, -1.86 / 2):
            assert analytic_profile.omega[by_pos[round(x, 6)]] == pytest.approx(expected, rel=1e-9)

    def test_far_wing_flagged_baseline(self, analytic_profile):
        by_pos = _rows_by_position(analytic_profile)
        assert analytic_profile.baseline[by_pos[round(3 * 1.86, 6)]]
        assert not analytic_profile.baseline[by_pos[0.0]]

    def test_sparse_durations_skipped_with_warning(self, beam_a):
        t = np.concatenate([np.linspace(1e-5, 1e-4, 6), np.linspace(1e-5, 1e-4, 2)])
        data = ScanDataset(np.repeat([0.0, 1.0], [6, 2]), t, np.full(8, 0.5), np.full(8, 100))
        with pytest.warns(UserWarning, match="distinct"):
            profile = fit_freq_profile(data)
        assert profile.position_um.tolist() == [0.0]

    @pytest.mark.parametrize(
        "layout", ["regular", "ragged", "shuffled", "spam_mismatch", "dark", "capped"])
    def test_matches_per_position_loop(self, beam_a, layout, monkeypatch):
        # positions that share a duration sequence are refined together in
        # one batch; the profile must equal independent per-position fits
        # exactly
        spam = SpamModel(eps_prep=0.02, eps_meas=0.03)
        n_dur = 15
        base = synth_dataset(beam_a, seed=5, n_dur=n_dur, spam=spam)
        n_pos = len(base) // n_dur
        x, t, p, n = base.arrays()
        if layout == "ragged":
            i, j = np.divmod(np.arange(len(base)), n_dur)
            # position i keeps the durations j with j % (2 + i % 3) != 1:
            # three duration sequences; position 7 keeps only 2 distinct
            # durations and must be skipped
            keep = (j % (2 + i % 3) != 1) & ~((i == 7) & (j >= 3))
            x, t, p, n = x[keep], t[keep], p[keep], n[keep]
        elif layout == "shuffled":
            order = np.random.default_rng(8).permutation(len(base))
            x, t, p, n = x[order], t[order], p[order], n[order]
        elif layout == "spam_mismatch":
            # a 121 x 41 scan made with SPAM 0.08, fitted with the default 0.01
            n_dur = 41
            scan = synth_dataset(beam_a, seed=5, n_pos=121, n_dur=n_dur,
                                 spam=SpamModel(eps_prep=0.08, eps_meas=0.08))
            n_pos = len(scan) // n_dur
            x, t, p, n = scan.arrays()
            spam = SpamModel()
        elif layout == "dark":
            p = np.zeros_like(p)
        elif layout == "capped":
            # Newton steps bring every trace tried (80,000 random ones) to
            # a stop rule within 10 steps, so a lower cap stands in for 60
            monkeypatch.setattr(scan_fit, "_MAX_STEPS", 3)
        data = ScanDataset(x, t, p, n)
        expected, capped = _per_position_profile(data, spam, _fit_single_omega)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            profile = fit_freq_profile(data, spam)
        skipped = [str(w.message) for w in caught]
        if layout == "ragged":
            sparse = float(base.position_um[7 * n_dur])
            assert len(expected) == n_pos - 1
            assert skipped == [f"position {sparse:g} um has only 2 distinct "
                               "durations; skipped in frequency profile"]
        else:
            assert len(expected) == n_pos
            assert skipped == []
        # the capped layout holds rows stopped by the cap and by a stop rule
        assert (0 < sum(capped) < len(capped)) if layout == "capped" else not any(capped)
        if layout == "dark":
            assert (expected.omega == 0.0).all() and (expected.omega_err == math.inf).all()
        _assert_same_columns(profile, expected)

    @pytest.mark.parametrize("scan", ["spam_mismatch", "random"])
    def test_rows_going_on_from_a_halved_step(self, beam_a, scan):
        # a row accepted only at a halved step takes its next step from that
        # trial's residual and cost, carried over; the reference evaluates
        # them afresh at every step. In the 121 x 41 scan profiled with its
        # seed SPAM, a row goes on from the residual; in the random scan, one
        # goes on from the cost too (found among the first scans of
        # default_rng([s, 30]), s < 3000, fitted with SPAM 0.2).
        if scan == "spam_mismatch":
            data = synth_dataset(beam_a, seed=3, n_pos=121, n_dur=41,
                                 spam=SpamModel(eps_prep=0.08, eps_meas=0.08))
            spam = _spam_seed(data)
        else:
            data = _random_scan(np.random.default_rng([477, 30]), 0)
            spam = SpamModel(eps_prep=0.2, eps_meas=0.2)
        goes_on = []
        expected, _ = _per_position_profile(
            data, spam, functools.partial(_fit_single_omega, goes_on=goes_on))
        assert any(scale < 1.0 for scale in goes_on)
        _assert_same_columns(fit_freq_profile(data, spam), expected)

    def test_random_scans_match_per_position_loop(self):
        # off-nominal grids: the first 30 scans of the random-scan recipe
        # under default_rng(1), each profiled under its seed SPAM, equal the
        # per-position reference row for row
        rng = np.random.default_rng(1)
        rows = 0
        for trial in range(30):
            data = _random_scan(rng, trial)
            spam = _spam_seed(data)
            expected, _ = _per_position_profile(data, spam, _fit_single_omega)
            _assert_same_columns(fit_freq_profile(data, spam), expected)
            rows += len(expected)
        assert rows == 1139  # every position of the 30 scans

    def test_row_that_no_trial_lowers_stops(self, monkeypatch):
        # scan 132 of the random-scan recipe under default_rng(1) holds two
        # rows that no fraction 1, 1/2, ... 1/2^19 of their first step
        # lowers; they stop there, as in the reference, instead of retrying
        # that step up to the _MAX_STEPS cap
        rng = np.random.default_rng(1)
        for trial in range(133):
            data = _random_scan(rng, trial)
        spam = _spam_seed(data)
        expected, capped = _per_position_profile(data, spam, _fit_single_omega)
        assert not any(capped)
        calls = []
        rowdot = scan_fit._rowdot
        monkeypatch.setattr(scan_fit, "_rowdot", lambda a, b: calls.append(1) or rowdot(a, b))
        _assert_same_columns(fit_freq_profile(data, spam), expected)
        assert len(calls) < scan_fit._MAX_STEPS

    def test_row_going_on_from_the_last_trial_fraction(self):
        # a hand-built row whose first step is taken at 1/2^19, the last
        # fraction tried (random traces take 1, rarely 1/2 or 1/4). Eight
        # durations 10 us apart hold the model at grid omega w0 = grid[100],
        # so their cost has its minimum there; one long duration T at p =
        # 1/2 adds a pure ripple ~ cos(2 omega T) of period pi/T, about two
        # grid steps. T is tuned (window about +-3e-12 s) so that at w0 the
        # ripple's curvature cancels theirs to 2.5e-6: the Newton step is
        # ~1.7e8 rad/s downwards, its trials down to 1/2^11 of it fall
        # below 0, those to 1/2^18 land where the cost is higher, and the
        # 330 rad/s of 1/2^19 lands in the ripple's dip below w0
        spam = SpamModel()
        t = np.append(np.arange(8) * 1e-5, 2.54571859e-3)
        grid, _ = _sin2_table(t)
        p = np.append(apply_spam(np.sin(0.5 * grid[100] * t[:8]) ** 2, spam), 0.5)
        data = ScanDataset(np.zeros(9), t, p, np.append(np.full(8, 1000), 5))
        goes_on = []
        expected, _ = _per_position_profile(
            data, spam, functools.partial(_fit_single_omega, goes_on=goes_on))
        assert goes_on[0] == 2.0 ** -19
        _assert_same_columns(fit_freq_profile(data, spam), expected)

    @pytest.mark.parametrize("scan", ["log_parabola", "moments"])
    def test_points_and_columns_agree(self, beam_a, scan):
        # d4sigma reads a list of FreqProfilePoint as the columns it
        # converts to, on the profile of a fit that starts from the ln Omega
        # parabola (the fine scan) and from the profile's moments (9 positions)
        if scan == "log_parabola":
            ds = synth_dataset(beam_a, seed=4)
        else:
            _, durations = default_scan_grid(beam_a, 61, 21)
            ds = generate(SynthConfig(truth=beam_a, positions_um=tuple(np.linspace(-6.0, 6.0, 9)),
                                      durations_s=durations, shots=200, rng_seed=0))[0]
        fit = fit_beam(ds)
        profile = fit.freq_profile
        points = [FreqProfilePoint(*row)
                  for row in zip(*(getattr(profile, name).tolist() for name in PROFILE_COLUMNS))]
        assert 0 < int(profile.baseline.sum()) < len(points) == len(profile)
        assert d4sigma(points) == d4sigma(profile)

    def test_columns_are_read_only_copies(self):
        omega = np.array([1.0, 2.0])
        profile = FreqProfile([0.0, 1.0], omega, [0.1, 0.1], [False, False])
        omega[0] = 5.0
        assert profile.omega.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            profile.omega[0] = 3.0
        assert len(profile) == 2
        assert profile == FreqProfile([0.0, 1.0], [1.0, 2.0], [0.1, 0.1], [False, False])
        assert profile != FreqProfile([0.0, 1.0], [1.0, 2.0], [0.1, 0.1], [False, True])
        with pytest.raises(ValueError, match="equal length"):
            FreqProfile([0.0], [1.0, 2.0], [0.1, 0.1], [False, False])

    @pytest.mark.parametrize("column, row, value, message", [
        ("omega", 2, math.nan, "row 2: omega must be finite and >= 0, got nan"),
        ("omega", 2, math.inf, "row 2: omega must be finite and >= 0, got inf"),
        ("position_um", 1, math.nan, "row 1: position_um must be finite, got nan"),
        ("omega", 0, -500.0, "row 0: omega must be finite and >= 0, got -500.0"),
    ], ids=["nan_omega", "inf_omega", "nan_position", "negative_baseline_omega"])
    def test_out_of_domain_value_rejected(self, column, row, value, message):
        # the README's five-row profile, one value spoiled; d4sigma read
        # the NaN or inf as nan and the negative baseline omega as a weight
        columns = {"position_um": [-2.0, -1.0, 0.0, 1.0, 2.0],
                   "omega": [0.0, 2000.0, 12000.0, 2000.0, 0.0],
                   "omega_err": [math.inf, 40.0, 40.0, 40.0, math.inf],
                   "baseline": [True, False, False, False, True]}
        columns[column][row] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FreqProfile(**columns)
        points = [FreqProfilePoint(*values) for values in zip(*columns.values())]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            d4sigma(points)

    def test_equality_is_exact_and_of_one_type(self):
        # profiles and datasets share one __eq__: another type compares
        # unequal in both orders without raising, and every field counts
        profile = FreqProfile([0.0], [1.0], [0.1], [False])
        ds = ScanDataset([0.0], [0.0], [0.5], [100], beam_label="A")
        assert not profile == ds and not ds == profile
        assert profile != ds and ds != profile
        assert profile != object()
        assert ds == ScanDataset([0.0], [0.0], [0.5], [100], beam_label="A")
        assert ds != ScanDataset([0.0], [0.0], [0.5], [100], beam_label="B")


@pytest.fixture
def empty_sin2_cache():
    scan_fit._SIN2_TABLES.clear()
    yield scan_fit._SIN2_TABLES
    scan_fit._SIN2_TABLES.clear()


def _cached_bytes(cache):
    return sum(grid.nbytes + table.nbytes for grid, table in cache.values())


def _assert_halves(grid, table, t):
    """``table`` is [s | s*s] of s = sin^2(grid*t/2), bit for bit."""
    s = np.sin(0.5 * np.outer(grid, t)) ** 2
    assert table.shape == (grid.size, 2 * t.size)
    assert table[:, :t.size].tobytes() == s.tobytes()
    assert table[:, t.size:].tobytes() == (s * s).tobytes()


class TestSin2Cache:
    # the grid search's SPAM-free [s | s*s] table is kept per duration sequence
    def test_tables_are_read_only_and_reused(self, empty_sin2_cache):
        t = np.linspace(0.0, 1e-3, 11)
        grid, table = _sin2_table(t)
        assert not grid.flags.writeable and not table.flags.writeable
        for half in (table[:, :t.size], table[:, t.size:]):
            assert not half.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                half[0, 0] = 1.0
        again = _sin2_table(t.copy())
        assert again[0] is grid and again[1] is table
        _assert_halves(grid, table, t)

    def test_order_and_sign_of_zero_are_part_of_the_key(self, empty_sin2_cache):
        t = np.linspace(0.0, 1e-3, 11)
        negative_zero = t.copy()
        negative_zero[0] = -0.0
        for durations in (t, t[::-1], negative_zero):
            _sin2_table(np.ascontiguousarray(durations))
        assert len(empty_sin2_cache) == 3

    @pytest.mark.parametrize("n_dur", [11, 101])
    def test_bounded(self, empty_sin2_cache, n_dur):
        # the bytes alone bound the cache: an entry is a grid of 512 and a
        # (512, 2 n_dur) table, and as many entries are kept as fit, 22 of
        # 11 durations or 2 of 101
        entry_bytes = 512 * 8 * (1 + 2 * n_dur)
        full = scan_fit._SIN2_CACHE_BYTES // entry_bytes
        assert full == {11: 22, 101: 2}[n_dur]
        for k in range(2 * full + 1):
            _sin2_table(np.linspace(0.0, (k + 1) * 1e-4, n_dur))
            assert _cached_bytes(empty_sin2_cache) <= scan_fit._SIN2_CACHE_BYTES
        assert len(empty_sin2_cache) == full
        # the last table used is kept
        assert np.linspace(0.0, (2 * full + 1) * 1e-4, n_dur).tobytes() in empty_sin2_cache

    def test_oversize_table_computed_not_kept(self, empty_sin2_cache):
        # the [s | s*s] table of n_dur durations alone fills the byte bound;
        # one duration fewer fits with its grid
        n_dur = scan_fit._SIN2_CACHE_BYTES // (512 * 8 * 2)
        fits = np.linspace(0.0, 1e-3, n_dur - 1)
        kept = _sin2_table(fits)
        assert _cached_bytes(empty_sin2_cache) <= scan_fit._SIN2_CACHE_BYTES
        t = np.linspace(0.0, 1e-3, n_dur)
        grid, table = _sin2_table(t)
        assert grid.nbytes + table.nbytes > scan_fit._SIN2_CACHE_BYTES
        _assert_halves(grid, table, t)
        assert list(empty_sin2_cache) == [fits.tobytes()]
        assert empty_sin2_cache[fits.tobytes()] is kept

    def test_warm_profile_equals_cold(self, beam_a, empty_sin2_cache):
        # two SPAM models share the one table of the scan's durations; each
        # profile fitted from it is bit for bit the one an empty cache gives
        spams = (SpamModel(), SpamModel(eps_prep=0.08, eps_meas=0.05)) * 2
        data = synth_dataset(beam_a, seed=5, spam=spams[1])
        warm = [fit_freq_profile(data, spam) for spam in spams]
        assert len(empty_sin2_cache) == 1
        for profile, spam in zip(warm, spams):
            scan_fit._SIN2_TABLES.clear()
            cold = fit_freq_profile(data, spam)
            for name in PROFILE_COLUMNS:
                assert getattr(profile, name).tobytes() == getattr(cold, name).tobytes()

    def test_warm_profile_peak_memory(self, beam_a, empty_sin2_cache):
        # with the table cached, a profile's largest array is the one (P,
        # 512) product of the grid search; the bound was fixed at 2.5 of it
        # before this test first ran
        data = synth_dataset(beam_a, seed=3, n_pos=121, n_dur=41,
                             spam=SpamModel(eps_prep=0.08, eps_meas=0.08))
        fit_freq_profile(data)
        tracemalloc.start()
        try:
            profile = fit_freq_profile(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profile) == 121
        assert peak < 2.5 * 121 * 512 * 8


def _random_scan(rng, trial):
    """One scan of ROADMAP's random-scan recipe, synthesis seed ``trial``:
    Omega0 500-5000 Hz, w0 0.8-4 um, x_c within +-1 um, 9-61 positions over
    +-3 w0, 6-21 durations from 0 to 1.5-6 periods, 20-200 shots, and each
    SPAM error 0-0.3."""
    beam = BeamProfileParams(omega0=TWO_PI * float(rng.uniform(500.0, 5000.0)),
                             center_um=float(rng.uniform(-1.0, 1.0)),
                             width_um=float(rng.uniform(0.8, 4.0)))
    n_pos, n_dur, shots = (int(rng.integers(lo, hi + 1)) for lo, hi in ((9, 61), (6, 21), (20, 200)))
    periods = float(rng.uniform(1.5, 6.0))
    eps_prep, eps_meas = (float(v) for v in rng.uniform(0.0, 0.3, 2))
    cfg = SynthConfig(
        truth=beam,
        positions_um=np.linspace(-3.0, 3.0, n_pos) * beam.width_um,
        durations_s=np.linspace(0.0, periods * TWO_PI / beam.omega0, n_dur),
        shots=shots, spam=SpamModel(eps_prep=eps_prep, eps_meas=eps_meas), rng_seed=trial,
    )
    return generate(cfg)[0]


@pytest.fixture(scope="module")
def cost_gate_scans(beam_a, beam_b):
    """Fixed scans for the profile cost gate, by set: recovery seeds 0-19
    on the README grid, the four spam_mismatch beams (121 x 41, SPAM 0.08)
    and the first 60 scans of the random-scan recipe under default_rng(1)."""
    positions, durations = default_scan_grid((beam_a, beam_b), 61, 21)
    recovery = [ds for seed in range(20) for ds in generate(SynthConfig(
        truth=(beam_a, beam_b), positions_um=positions, durations_s=durations,
        shots=200, rng_seed=seed))]
    mismatch_beams = (beam_a, beam_b,
                      BeamProfileParams(omega0=TWO_PI * 1500.0, center_um=-0.5, width_um=2.2),
                      BeamProfileParams(omega0=TWO_PI * 2400.0, center_um=0.7, width_um=1.6))
    mismatch = [synth_dataset(beam, seed=k, n_pos=121, n_dur=41,
                              spam=SpamModel(eps_prep=0.08, eps_meas=0.08))
                for k, beam in enumerate(mismatch_beams)]
    rng = np.random.default_rng(1)
    random_scans = [_random_scan(rng, trial) for trial in range(60)]
    return {"recovery": recovery, "spam_mismatch": mismatch, "random": random_scans}


def _row_costs(data, spam, profile):
    """Weighted SSE of each profile point's trace at its fitted omega."""
    x, t, p, n = data.arrays()
    costs = []
    for pos, omega in zip(profile.position_um.tolist(), profile.omega.tolist()):
        at = x == pos
        w = _binomial_weights(p[at], n[at].astype(float))
        r = apply_spam(np.sin(0.5 * omega * t[at]) ** 2, spam) - p[at]
        costs.append(float(w @ (r * r)))
    return costs


@pytest.fixture(scope="module")
def profile_costs(cost_gate_scans):
    """(fit, Gauss-Newton) weighted SSE of every profile row, by set; each
    scan is profiled with the SPAM that ``fit_beam`` profiles it with."""
    costs = {}
    for name, scans in cost_gate_scans.items():
        fitted, reference = [], []
        for data in scans:
            spam = _spam_seed(data)
            fitted += _row_costs(data, spam, fit_freq_profile(data, spam))
            gauss_newton, _ = _per_position_profile(data, spam, _gauss_newton_single_omega)
            reference += _row_costs(data, spam, gauss_newton)
        costs[name] = np.array(fitted), np.array(reference)
    return costs


def _beam_vector(fit):
    return np.array([fit.params.omega0, fit.params.center_um, fit.params.width_um])


class TestProfileCostGate:
    # Newton steps may only move a profile row to a lower cost than the
    # Gauss-Newton refinement reached, never to a higher one.
    @pytest.mark.parametrize("scans", ["recovery", "spam_mismatch", "random"])
    def test_no_row_ends_higher(self, profile_costs, scans):
        fitted, gauss_newton = profile_costs[scans]
        assert fitted.size == gauss_newton.size > 0
        higher = np.flatnonzero(fitted > gauss_newton * (1.0 + 1e-12))
        assert higher.size == 0, (higher, fitted[higher], gauss_newton[higher])

    def test_some_row_ends_lower(self, profile_costs):
        # lower by more than rounding: rows where Gauss-Newton stopped short
        assert any((fitted < gauss_newton * (1.0 - 1e-12)).any()
                   for fitted, gauss_newton in profile_costs.values())

    def test_fit_beam_unmoved(self, cost_gate_scans, monkeypatch):
        # the beam fitted from the Gauss-Newton profile agrees to 0.01 sigma
        fits = [fit_beam(data) for data in cost_gate_scans["recovery"]]
        monkeypatch.setattr(scan_fit, "fit_freq_profile", lambda data, spam: _per_position_profile(
            data, spam, _gauss_newton_single_omega)[0])
        for data, fit in zip(cost_gate_scans["recovery"], fits):
            reference = fit_beam(data)
            moved = np.abs(_beam_vector(fit) - _beam_vector(reference))
            assert (moved <= 0.01 * reference.param_errors()).all(), (data.beam_label, moved)


class TestDecrementStop:
    # A row stops once its Gauss-Newton step is under 1e-6 of its own sigma;
    # with _DECREMENT_TOL = 0 it runs on until no trial lowers its cost, or
    # to the step cap.
    @pytest.mark.parametrize("scans", ["recovery", "spam_mismatch", "random"])
    def test_rows_unmoved(self, cost_gate_scans, scans, monkeypatch):
        for data in cost_gate_scans[scans]:
            spam = _spam_seed(data)
            profile = fit_freq_profile(data, spam)
            with monkeypatch.context() as m:
                m.setattr(scan_fit, "_DECREMENT_TOL", 0.0)
                reference = fit_freq_profile(data, spam)
            assert np.array_equal(profile.position_um, reference.position_um)
            moved = np.abs(profile.omega - reference.omega)
            far = np.flatnonzero(~(moved <= 1e-5 * reference.omega_err))
            assert far.size == 0, (far, profile.omega[far], reference.omega[far])

    @pytest.mark.parametrize("scans", ["recovery", "spam_mismatch"])
    def test_fit_beam_unmoved(self, cost_gate_scans, scans, monkeypatch):
        fits = [fit_beam(data) for data in cost_gate_scans[scans]]
        monkeypatch.setattr(scan_fit, "_DECREMENT_TOL", 0.0)
        for data, fit in zip(cost_gate_scans[scans], fits):
            reference = fit_beam(data)
            moved = np.abs(_beam_vector(fit) - _beam_vector(reference))
            assert (moved <= 1e-5 * reference.param_errors()).all(), (data.beam_label, moved)

    def test_row_products_per_profile(self, cost_gate_scans, monkeypatch):
        # recovery seeds 0-19: 19.7 per profile, 41.0 without the decrement stop
        calls = []
        rowdot = scan_fit._rowdot
        monkeypatch.setattr(scan_fit, "_rowdot", lambda a, b: calls.append(1) or rowdot(a, b))
        scans = cost_gate_scans["recovery"]
        for data in scans:
            fit_freq_profile(data, _spam_seed(data))
        assert len(calls) / len(scans) <= 30


#: Odd and even counts, duplicates, and -0.0 next to 0.0.
SORT_CASES = [[3.0], [0.0, -0.0], [2.0, 1.0, 2.0], [-0.0, 0.0, 1.5, 0.0],
              [5.0, 1.0, 4.0, 1.0], [1e-4, 0.0, 2e-4, 1e-4, 3e-4, -2.5], [7.0] * 4]


class TestSortHelpers:
    # stand-ins for np.unique and np.median, which import numpy.ma
    @pytest.mark.parametrize("values", [[]] + SORT_CASES)
    def test_distinct_count_matches_unique(self, values):
        assert _n_distinct(np.array(values, dtype=float)) == np.unique(values).size

    @pytest.mark.parametrize("values", SORT_CASES)
    def test_median_matches_numpy(self, values):
        assert _median(values) == float(np.median(values))


class TestD4Sigma:
    def test_three_point_oracle(self):
        # uniform weights at -a, 0, +a: variance 2a^2/3
        a = 1.5
        profile = [FreqProfilePoint(x, 100.0, 1.0, False) for x in (-a, 0.0, a)]
        assert d4sigma(profile) == pytest.approx(4 * a * math.sqrt(2.0 / 3.0),
                                                 rel=1e-12)

    def test_dense_gaussian_gives_2w0(self, beam_a):
        w0 = beam_a.width_um
        xs = np.linspace(-4 * w0, 4 * w0, 321)
        profile = [
            FreqProfilePoint(float(x), beam_a.omega0 * math.exp(-2 * x**2 / w0**2),
                             1.0, False)
            for x in xs
        ]
        assert d4sigma(profile) == pytest.approx(2 * w0, rel=5e-3)

    def test_baseline_subtraction_removes_pedestal(self, beam_a):
        w0 = beam_a.width_um
        pedestal = 0.02 * beam_a.omega0
        xs = np.linspace(-5 * w0, 5 * w0, 201)
        profile = [
            FreqProfilePoint(
                float(x),
                beam_a.omega0 * math.exp(-2 * x**2 / w0**2) + pedestal,
                1.0,
                abs(x) > 4 * w0,  # wings carry only the pedestal
            )
            for x in xs
        ]
        subtracted = d4sigma(profile)
        # oracle: the same Omega-weighted second moment, pedestal kept
        w = np.array([pt.omega for pt in profile])
        mean = float(w @ xs) / w.sum()
        raw = 4 * math.sqrt(float(w @ (xs - mean) ** 2) / w.sum())
        assert subtracted == pytest.approx(2 * w0, rel=0.02)
        assert raw > 1.5 * subtracted

    def test_fit_result_width_is_the_profile_width(self, beam_a):
        fit = fit_beam(synth_dataset(beam_a, seed=4))
        assert fit.d4sigma_um == d4sigma(fit.freq_profile)
        report = scan_fit.fit_report_dict(fit)
        assert report["d4sigma_um"] == fit.d4sigma_um
        assert report["gaussian_diameter_um"] == 2 * fit.params.width_um
        assert "d4sigma_raw_um" not in report
        # two non-baseline points: no D4sigma, and no error either
        omega = np.array([1.0, 1.0, 0.05, 0.05])
        profile = FreqProfile([0.0, 1.0, 2.0, 3.0], omega, np.full(4, 0.1), omega < 0.1)
        narrow = replace(fit, freq_profile=profile)
        assert narrow.d4sigma_um is None
        assert scan_fit.fit_report_dict(narrow)["d4sigma_um"] is None

    def test_needs_three_live_points(self):
        profile = [
            FreqProfilePoint(0.0, 1.0, 0.1, False),
            FreqProfilePoint(1.0, 1.0, 0.1, False),
            FreqProfilePoint(2.0, 0.1, 1.0, True),
        ]
        with pytest.raises(ValueError, match="non-baseline"):
            d4sigma(profile)

    def test_all_zero_weights_rejected(self):
        profile = [FreqProfilePoint(float(x), 0.0, 0.1, False) for x in range(4)]
        with pytest.raises(ValueError, match="zero"):
            d4sigma(profile)


# === Pair analysis ==========================================================


def _trace(beam, at_um, seed=None, n_dur=21):
    durations = tuple(np.linspace(0.0, 3 * TWO_PI / beam.omega0, n_dur))
    cfg = SynthConfig(
        truth=beam,
        positions_um=(at_um,),
        durations_s=durations,
        shots=200,
        rng_seed=0 if seed is None else seed,
        analytic=seed is None,
    )
    return generate(cfg)[0]


@pytest.fixture(scope="module")
def fits(beam_a, beam_b):
    return (
        fit_beam(synth_dataset(beam_a, seed=1)),
        fit_beam(synth_dataset(beam_b, seed=2)),
    )


class TestPairAnalysis:
    def test_separation_and_uncertainty(self, fits, beam_a, beam_b):
        a, b = fits
        report = pair_analysis(a, b)
        expected_sep = abs(b.params.center_um - a.params.center_um)
        assert report.separation_um == pytest.approx(expected_sep, rel=1e-12)
        assert report.separation_err_um == pytest.approx(
            math.sqrt(a.covariance[1, 1] + b.covariance[1, 1]), rel=1e-12
        )
        assert not report.ambiguous
        assert report.separation_um == pytest.approx(4.31, abs=0.05)

    def test_crosstalk_bounds(self, fits):
        a, b = fits
        report = pair_analysis(a, b, observation_window_s=2.5e-3, detection_floor=0.01)
        assert report.rabi_bound_hz == pytest.approx(80.13393692924784 / TWO_PI, rel=1e-12)
        assert report.crosstalk_bound_a == pytest.approx(
            report.rabi_bound_hz * TWO_PI / a.params.omega0, rel=1e-12
        )
        assert report.crosstalk_bound_b < report.crosstalk_bound_a

    def test_identical_fits_flagged_ambiguous(self, fits):
        a, _ = fits
        with pytest.warns(UserWarning, match="not resolved"):
            report = pair_analysis(a, a)
        assert report.ambiguous
        assert report.separation_um == 0.0

    def test_quiet_off_beam_trace(self, fits, beam_a, beam_b):
        # drive A, look at B's center: the envelope suppresses the local
        # Rabi frequency below detection
        a, b = fits
        trace_a = _trace(beam_a, beam_b.center_um, seed=7)
        trace_b = _trace(beam_b, beam_a.center_um, seed=8)
        report = pair_analysis(a, b, traces_at_centers=(trace_a, trace_b))
        assert report.off_beam_oscillation_a is False
        assert report.off_beam_oscillation_b is False

    def test_on_beam_trace_detected(self, fits, beam_a):
        # a trace at the driven beam's own center clearly oscillates, so
        # the bound must be reported as inapplicable
        a, b = fits
        trace = _trace(beam_a, beam_a.center_um, seed=7)
        report = pair_analysis(a, b, traces_at_centers=(trace, None))
        assert report.off_beam_oscillation_a is True
        assert report.off_beam_oscillation_b is None
        assert any("oscillation" in note for note in report.notes)

    def test_unconverged_input_rejected(self, fits, beam_a):
        a, b = fits
        from dataclasses import replace

        with pytest.raises(ValueError, match="converged"):
            pair_analysis(replace(a, converged=False), b)

    def test_traces_tested_with_each_fits_spam(self, fits, beam_a, beam_b, monkeypatch):
        a, b = fits
        a = replace(a, spam=SpamModel(eps_prep=0.03, eps_meas=0.04))
        b = replace(b, spam=SpamModel(eps_prep=0.05, eps_meas=0.06))
        trace_a = _trace(beam_a, beam_b.center_um, seed=7)
        trace_b = _trace(beam_b, beam_a.center_um, seed=8)
        tested = []

        def spy(trace, spam):
            tested.append((trace, spam))
            return False

        monkeypatch.setattr(scan_fit, "_trace_oscillates", spy)
        pair_analysis(a, b, traces_at_centers=(trace_a, trace_b))
        assert tested == [(trace_a, a.spam), (trace_b, b.spam)]

    def test_trace_at_several_positions_rejected(self, fits):
        # four durations, so only the position rule fails
        a, b = fits
        trace = ScanDataset(np.repeat([4.2, 4.31], 4), np.tile([0.0, 1e-4, 2e-4, 3e-4], 2),
                            np.full(8, 0.02), np.full(8, 100), beam_label="trace_A")
        with pytest.raises(DegenerateDataError, match=(
                "^off-beam trace 'trace_A' must be recorded at one position, got 2$")):
            pair_analysis(a, b, traces_at_centers=(trace, None))

    @pytest.mark.parametrize("n_traces", [1, 3])
    def test_trace_count_not_two_rejected(self, fits, n_traces):
        a, b = fits
        with pytest.raises(ValueError, match=(
                f"^traces_at_centers must hold 2 entries, one per beam, got {n_traces}$")):
            pair_analysis(a, b, traces_at_centers=(None,) * n_traces)

    def test_sparse_trace_rejected(self, fits, beam_a):
        a, b = fits
        trace = ScanDataset(np.full(3, 4.31), [0.0, 1e-4, 2e-4], np.full(3, 0.02), np.full(3, 100))
        with pytest.raises(DegenerateDataError, match="durations"):
            pair_analysis(a, b, traces_at_centers=(trace, None))


# === Reports ================================================================


class TestReports:
    def test_fit_report_round_trip(self, tmp_path, beam_a):
        result = fit_beam(synth_dataset(beam_a, seed=4))
        path = tmp_path / "report.json"
        write_fit_report(result, path)
        params, cov, raw = read_fit_report(path)
        assert params.omega0 == pytest.approx(result.params.omega0, rel=1e-12)
        assert params.center_um == result.params.center_um
        assert params.width_um == result.params.width_um
        np.testing.assert_allclose(cov, result.covariance, rtol=1e-9)
        assert raw["params"]["peak_rabi_hz"] == pytest.approx(
            result.params.omega0 / TWO_PI, rel=1e-12
        )
        assert raw["converged"] is True

    def test_report_units_are_hz(self, tmp_path, beam_a):
        result = fit_beam(synth_dataset(beam_a))
        path = tmp_path / "report.json"
        write_fit_report(result, path)
        _, _, raw = read_fit_report(path)
        # variance of the frequency in Hz^2 = variance in (rad/s)^2 / (2 pi)^2
        assert raw["covariance"][0][0] == pytest.approx(
            result.covariance[0, 0] / TWO_PI**2, rel=1e-12
        )
        assert raw["covariance"][0][1] == pytest.approx(
            result.covariance[0, 1] / TWO_PI, rel=1e-12
        )

    def test_profile_csv_format(self, tmp_path, beam_a):
        result = fit_beam(synth_dataset(beam_a))
        path = tmp_path / "profile.csv"
        write_freq_profile_csv(result.freq_profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "position_um,rabi_hz,rabi_err_hz,baseline"
        assert len(lines) == 1 + len(result.freq_profile)
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(
            result.freq_profile.omega[0] / TWO_PI, rel=1e-9
        )
        assert first[3] in {"0", "1"}

    def test_pair_report_dict_keys(self, tmp_path, beam_a, beam_b):
        # pair writes the PairReport fields as they are, in order
        for name, beam, seed in (("a", beam_a, 1), ("b", beam_b, 2)):
            write_fit_report(fit_beam(synth_dataset(beam, seed=seed)), tmp_path / f"{name}.json")
        assert main(["pair", "--fit-a", str(tmp_path / "a.json"),
                     "--fit-b", str(tmp_path / "b.json"), "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pair_report.json").read_text())
        assert list(payload) == [
            "beam_a", "beam_b", "center_a_um", "center_b_um", "separation_um",
            "separation_err_um", "ambiguous", "observation_window_s", "detection_floor",
            "rabi_bound_hz", "crosstalk_bound_a", "crosstalk_bound_b",
            "off_beam_oscillation_a", "off_beam_oscillation_b", "notes",
        ]
        assert payload["separation_um"] == pytest.approx(4.31, abs=0.05)
        assert payload["rabi_bound_hz"] == pytest.approx(12.75371217170397, rel=1e-9)
        assert payload["off_beam_oscillation_a"] is None
        assert payload["notes"] == []

    def test_report_carries_schema_and_fitted_spam(self, beam_a):
        spam = SpamModel(eps_prep=0.04, eps_meas=0.06)
        result = fit_beam(synth_dataset(beam_a, seed=4, spam=spam))
        raw = scan_fit.fit_report_dict(result)
        assert raw["schema_version"] == 4
        assert raw["spam"] == {
            "eps_prep": result.spam.eps_prep, "eps_prep_err": result.spam_errors[0],
            "eps_meas": result.spam.eps_meas, "eps_meas_err": result.spam_errors[1],
        }
        assert abs(result.spam.eps_prep - 0.04) < 3 * result.spam_errors[0]
        assert abs(result.spam.eps_meas - 0.06) < 3 * result.spam_errors[1]
        assert result.covariance.shape == (3, 3)

    @pytest.mark.parametrize("edit", [
        "no_schema", "schema_1", "schema_2", "schema_3", "no_spam", "no_eps_meas_err",
        "negative_eps", "eps_not_number"])
    def test_report_without_schema_or_spam_rejected(self, tmp_path, beam_a, edit):
        path = tmp_path / "report.json"
        write_fit_report(fit_beam(synth_dataset(beam_a, seed=4)), path)
        raw = json.loads(path.read_text())
        if edit == "no_schema":
            del raw["schema_version"]
        elif edit in ("schema_1", "schema_2", "schema_3"):
            raw["schema_version"] = int(edit[-1])
        elif edit == "no_spam":
            del raw["spam"]
        elif edit == "no_eps_meas_err":
            del raw["spam"]["eps_meas_err"]
        elif edit == "negative_eps":
            raw["spam"]["eps_prep"] = -0.01
        else:
            raw["spam"]["eps_meas"] = "0.01"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScanFormatError):
            read_fit_report(path)

    def test_malformed_report_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"params\": {}}")
        with pytest.raises(ScanFormatError):
            read_fit_report(path)

    @pytest.mark.parametrize("content", [
        pytest.param(b"not json", id="text"),
        pytest.param(b'{"beam_label": "\xff"}', id="undecodable"),
        pytest.param(b'{"residual_rms": ' + b"1" * 5000 + b"}", id="digit-limit"),
    ])
    def test_report_that_is_not_json_names_its_path(self, tmp_path, content):
        path = tmp_path / "report.json"
        path.write_bytes(content)
        with pytest.raises(ScanFormatError, match=re.escape(f"{path}: not valid JSON")):
            read_fit_report(path)
