"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import argparse
import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import platform
import subprocess
import sys
import warnings
from datetime import datetime

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionoptics.cli import build_parser, main
from ionoptics.scan_fit import read_fit_report, read_scan_csv

TWO_PI = 2.0 * math.pi

MANIFEST_KEYS = {"subcommand", "version", "python", "numpy", "generated_at", "options",
                 "inputs", "outputs"}


def load_json(path):
    return json.loads(path.read_text())


def strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def files_in(out_dir):
    """Names of the files under ``out_dir``; empty when it does not exist."""
    return sorted(str(f.relative_to(out_dir)) for f in out_dir.rglob("*") if f.is_file())


# === design =================================================================


class TestDesign:
    def test_default_run_artifacts(self, tmp_path):
        assert main(["design", "--out-dir", str(tmp_path)]) == 0
        curve = (tmp_path / "design_curve.csv").read_text().splitlines()
        assert curve[0] == "diameter_um,required_na,crosstalk"
        assert len(curve) - 1 >= 181  # boundary insertion may add one row

        summary = load_json(tmp_path / "design_summary.json")
        assert summary["boundary_diameter_um"] == pytest.approx(1.879, abs=5e-4)
        assert summary["boundary_in_range"]
        assert summary["rows"] == len(curve) - 1

    def test_boundary_row_present_in_curve(self, tmp_path):
        main(["design", "--out-dir", str(tmp_path)])
        summary = load_json(tmp_path / "design_summary.json")
        lines = (tmp_path / "design_curve.csv").read_text().splitlines()[1:]
        diameters = [float(row.split(",")[0]) for row in lines]
        assert any(
            d == pytest.approx(summary["boundary_diameter_um"], rel=1e-9)
            for d in diameters
        )

    def test_neighbor_distance_beyond_float_range_has_no_crosstalk(self, tmp_path):
        # d * d is inf past the float range, and exp(-inf) is 0
        assert main(["design", "--out-dir", str(tmp_path), "--neighbor-distance", "1e200"]) == 0
        assert load_json(tmp_path / "design_summary.json")["boundary_crosstalk"] == 0.0

    def test_two_sample_curve(self, tmp_path):
        rc = main(["design", "--out-dir", str(tmp_path),
                   "--diameter-range", "2", "4", "--samples", "2"])
        assert rc == 0
        lines = (tmp_path / "design_curve.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows; boundary 1.879 is out of range
        summary = load_json(tmp_path / "design_summary.json")
        assert not summary["boundary_in_range"]

    def test_invalid_na_cap_exits_2(self, tmp_path, capsys):
        rc = main(["design", "--out-dir", str(tmp_path), "--na-cap", "0"])
        assert rc == 2
        assert "NA cap" in capsys.readouterr().err
        assert not (tmp_path / "design_curve.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["design", "--out-dir", str(a)])
        main(["design", "--out-dir", str(b)])
        assert (a / "design_curve.csv").read_bytes() == (b / "design_curve.csv").read_bytes()
        assert (a / "design_summary.json").read_bytes() == (b / "design_summary.json").read_bytes()


# === propagate ==============================================================


class TestPropagate:
    def test_reference_train_report(self, tmp_path):
        rc = main(["propagate", "--out-dir", str(tmp_path), "--channels", "32"])
        assert rc == 0
        rep = load_json(tmp_path / "image_report.json")
        assert rep["axial"]["diameter_um"] == pytest.approx(1.905, abs=5e-3)
        assert rep["radial"]["diameter_um"] == pytest.approx(9.52, abs=5e-3)
        assert rep["pitch_um"] == pytest.approx(4.286, abs=5e-4)
        assert len(rep["centers_um"]) == 32
        # the two image planes do not coincide; the report must say so
        assert any("differ" in note for note in rep["notes"])

    def test_single_channel_centered(self, tmp_path):
        main(["propagate", "--out-dir", str(tmp_path), "--channels", "1"])
        rep = load_json(tmp_path / "image_report.json")
        assert rep["centers_um"] == [0.0]

    def test_unit_relay_reproduces_source_geometry(self, tmp_path):
        relay = tmp_path / "relay.json"
        relay.write_text(json.dumps({
            "name": "unit-relay", "source_plane": "s", "image_plane": "i",
            "elements": [
                {"kind": "gap", "value_mm": 100.0, "axis": "both"},
                {"kind": "lens", "value_mm": 50.0, "axis": "both"},
            ],
        }))
        rc = main(["propagate", "--out-dir", str(tmp_path),
                   "--prescription", str(relay)])
        assert rc == 0
        rep = load_json(tmp_path / "image_report.json")
        assert rep["axial"]["diameter_um"] == pytest.approx(200.0, rel=1e-9)
        assert rep["radial"]["diameter_um"] == pytest.approx(200.0, rel=1e-9)
        assert rep["pitch_um"] == pytest.approx(450.0, rel=1e-9)
        assert rep["astigmatic_offset_mm"] == pytest.approx(0.0, abs=1e-9)

    def test_measured_pitch_discrepancy_block(self, tmp_path):
        rc = main(["propagate", "--out-dir", str(tmp_path),
                   "--measured-pitch", "4.5", "--measured-pitch-err", "0.05"])
        assert rc == 0
        disc = load_json(tmp_path / "image_report.json")["pitch_discrepancy"]
        assert disc["measured_um"] == 4.5
        assert disc["relative"] == pytest.approx(0.05, abs=1e-3)
        assert disc["within"] is False

    def test_measured_pitch_requires_err(self, tmp_path, capsys):
        rc = main(["propagate", "--out-dir", str(tmp_path), "--measured-pitch", "4.5"])
        assert rc == 2
        assert "measured-pitch-err" in capsys.readouterr().err

    def test_measured_pitch_err_requires_pitch(self, tmp_path, capsys):
        rc = main(["propagate", "--out-dir", str(tmp_path), "--measured-pitch-err", "0.05"])
        assert rc == 2
        assert "must be given together" in capsys.readouterr().err
        assert not (tmp_path / "image_report.json").exists()

    def test_invalid_prescription_names_schema_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x", "source_plane": "s", "image_plane": "i",
            "elements": [
                {"kind": "gap", "value_mm": 10.0, "axis": "both"},
                {"kind": "lens", "value_mm": 5.0, "axis": "both", "tilt": 1},
            ],
        }))
        rc = main(["propagate", "--out-dir", str(tmp_path), "--prescription", str(bad)])
        assert rc == 2
        assert "elements[1]" in capsys.readouterr().err

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text('{"name": "big", "elements": [{"kind": "gap", "value_mm": 1'
                       + "0" * 400 + "}]}")
        out = tmp_path / "out"
        rc = main(["propagate", "--out-dir", str(out), "--prescription", str(big)])
        assert rc == 2
        assert "error: elements[0].value_mm: expected a finite number" in capsys.readouterr().err
        assert files_in(out) == []

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x", "extra": 1,
            "elements": [{"kind": "gap", "value_mm": 100.0}, {"kind": "lens", "value_mm": 50.0}],
        }))
        out = tmp_path / "out"
        rc = main(["propagate", "--out-dir", str(out), "--prescription", str(bad)])
        assert rc == 2
        assert "error: extra: unknown field" in capsys.readouterr().err
        assert files_in(out) == []

    @pytest.mark.parametrize("edit, message", [
        ({"elements": [{"kind": "lens", "value_mm": 0}]},
         "elements[0].value_mm: lens focal length must be nonzero"),
        ({"elements": [{"kind": "gap", "value_mm": -1.0}]},
         "elements[0].value_mm: gap length must be >= 0"),
        ({"elements": [{"kind": "gap", "value_mm": 1.0, "axis": "diag"}]},
         "elements[0].axis: expected one of ('axial', 'radial', 'both'), got 'diag'"),
        ({"source_plane": 7}, "source_plane: expected a string, got 7"),
    ], ids=["zero-lens", "negative-gap", "unknown-axis", "source-plane-not-string"])
    def test_invalid_element_or_label_exits_2(self, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x",
            "elements": [{"kind": "gap", "value_mm": 100.0}, {"kind": "lens", "value_mm": 50.0}],
            **edit,
        }))
        out = tmp_path / "out"
        rc = main(["propagate", "--out-dir", str(out), "--prescription", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert files_in(out) == []

    def test_missing_prescription_file_exits_1(self, tmp_path):
        rc = main(["propagate", "--out-dir", str(tmp_path),
                   "--prescription", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_no_image_plane_exits_3(self, tmp_path, capsys):
        # object at the front focal plane: rays leave collimated and the
        # image recedes to infinity
        afocal = tmp_path / "afocal.json"
        afocal.write_text(json.dumps({
            "name": "afocal", "source_plane": "s", "image_plane": "i",
            "elements": [
                {"kind": "gap", "value_mm": 50.0, "axis": "both"},
                {"kind": "lens", "value_mm": 50.0, "axis": "both"},
            ],
        }))
        rc = main(["propagate", "--out-dir", str(tmp_path), "--prescription", str(afocal)])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err


# === synth ==================================================================


class TestSynth:
    def test_single_beam_default_grid(self, tmp_path):
        rc = main(["synth", "--out-dir", str(tmp_path), "--seed", "3"])
        assert rc == 0
        ds = read_scan_csv(tmp_path / "scan_A.csv")
        assert len(set(ds.position_um.tolist())) == 61
        assert len(set(ds.duration_s.tolist())) == 21
        assert (ds.shots == 200).all()

    def test_two_beams_with_traces(self, tmp_path):
        rc = main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
                   "--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
                   "--width-um", "1.86", "1.88", "--emit-traces"])
        assert rc == 0
        for name in ("scan_A.csv", "scan_B.csv", "trace_A.csv", "trace_B.csv"):
            assert (tmp_path / name).exists()
        # trace_A drives beam A but records at beam B's center, and vice versa
        trace_a = read_scan_csv(tmp_path / "trace_A.csv")
        assert set(trace_a.position_um.tolist()) == {4.31}
        trace_b = read_scan_csv(tmp_path / "trace_B.csv")
        assert set(trace_b.position_um.tolist()) == {0.0}

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["synth", "--out-dir", str(out), "--seed", "7"])
        assert (a / "scan_A.csv").read_bytes() == (b / "scan_A.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out-dir", str(a), "--seed", "7"])
        main(["synth", "--out-dir", str(b), "--seed", "8"])
        assert (a / "scan_A.csv").read_bytes() != (b / "scan_A.csv").read_bytes()

    def test_trace_stream_independent_of_scan(self, tmp_path):
        # the off-beam trace must not replay the draws an unsalted run
        # with the same seed would produce on the same grid
        from ionoptics.rabi_model import BeamProfileParams
        from ionoptics.synth_scan import SynthConfig, default_scan_grid, generate

        main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
              "--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
              "--width-um", "1.86", "1.88", "--emit-traces"])
        trace_a = read_scan_csv(tmp_path / "trace_A.csv")

        beam_a = BeamProfileParams(omega0=TWO_PI * 1910.0, center_um=0.0, width_um=1.86)
        beam_b = BeamProfileParams(omega0=TWO_PI * 2790.0, center_um=4.31, width_um=1.88)
        _, durations = default_scan_grid((beam_a, beam_b), 61, 21)
        unsalted = generate(SynthConfig(
            truth=(beam_a,), positions_um=(beam_b.center_um,),
            durations_s=durations, shots=200, rng_seed=0,
        ))[0]
        assert len(unsalted) == len(trace_a)
        assert (unsalted.p1 != trace_a.p1).any()

    @pytest.mark.parametrize("options, durations_us", [
        (["--analytic"], None),
        (["--shots", "50", "--spam-prep", "0.05", "--spam-meas", "0.02"], None),
        (["--positions", "-1", "2", "5"], [0.0, 150.0, 300.0, 450.0]),
    ], ids=["analytic", "shots-and-spam", "explicit-grid"])
    def test_traces_match_a_config_built_field_by_field(self, tmp_path, options, durations_us):
        # the reference is the trace recipe that restated every field
        from ionoptics.cli import _TRACE_SALT
        from ionoptics.rabi_model import BeamProfileParams, SpamModel
        from ionoptics.scan_fit import write_scan_csv
        from ionoptics.synth_scan import SynthConfig, default_scan_grid, generate

        if durations_us is not None:
            options = [*options, "--durations-us", *(str(v) for v in durations_us)]
        out = tmp_path / "out"
        rc = main(["synth", "--out-dir", str(out), "--seed", "5",
                   "--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
                   "--width-um", "1.86", "1.88", "--emit-traces", *options])
        assert rc == 0
        args = build_parser()[0].parse_args(["synth", *options])
        truth = (BeamProfileParams(omega0=TWO_PI * 1910.0, center_um=0.0, width_um=1.86),
                 BeamProfileParams(omega0=TWO_PI * 2790.0, center_um=4.31, width_um=1.88))
        if durations_us is None:
            _, durations = default_scan_grid(truth, 61, 21)
        else:
            durations = tuple(v * 1e-6 for v in durations_us)
        for label, (driven, other) in zip("AB", (truth, truth[::-1])):
            reference = generate(SynthConfig(
                truth=(driven,),
                positions_um=(other.center_um,),
                durations_s=durations,
                shots=args.shots,
                spam=SpamModel(eps_prep=args.spam_prep, eps_meas=args.spam_meas),
                rng_seed=5 ^ _TRACE_SALT,
                analytic=args.analytic,
            ))[0]
            write_scan_csv(reference, tmp_path / f"reference_{label}.csv")
            assert ((out / f"trace_{label}.csv").read_bytes()
                    == (tmp_path / f"reference_{label}.csv").read_bytes()), label

    def test_explicit_grid(self, tmp_path):
        rc = main(["synth", "--out-dir", str(tmp_path), "--seed", "1",
                   "--positions", "-1", "0", "1", "--durations-us", "10", "20", "30"])
        assert rc == 0
        ds = read_scan_csv(tmp_path / "scan_A.csv")
        assert len(ds) == 9
        assert sorted(set(ds.duration_s.tolist())) == pytest.approx([1e-5, 2e-5, 3e-5])

    def test_positions_without_durations_exits_2(self, tmp_path):
        rc = main(["synth", "--out-dir", str(tmp_path), "--positions", "-1", "0", "1"])
        assert rc == 2

    def test_mismatched_beam_params_exit_2(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path),
                   "--rabi-hz", "1910", "2790", "--center-um", "0"])
        assert rc == 2
        assert "equal counts" in capsys.readouterr().err

    def test_traces_require_two_beams(self, tmp_path):
        rc = main(["synth", "--out-dir", str(tmp_path), "--emit-traces"])
        assert rc == 2

    def test_jitter_bounded_by_resolution(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out-dir", str(a), "--seed", "4"])
        main(["synth", "--out-dir", str(b), "--seed", "4", "--jitter-resolution", "0.05"])
        clean = read_scan_csv(a / "scan_A.csv")
        blurred = read_scan_csv(b / "scan_A.csv")
        assert len(blurred) == len(clean)
        deltas = numpy.abs(blurred.position_um - clean.position_um)
        assert max(deltas) <= 0.025 + 1e-12
        assert max(deltas) > 0.0


# === fit ====================================================================


class TestFit:
    def test_synth_then_fit_recovers_width(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
              "--rabi-hz", "1910", "--center-um", "0", "--width-um", "1.86"])
        rc = main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path)])
        assert rc == 0
        report = load_json(tmp_path / "scan_A_report.json")
        assert report["converged"]
        assert report["params"]["width_um"] == pytest.approx(1.86, rel=0.02)
        assert report["params"]["peak_rabi_hz"] == pytest.approx(1910.0, rel=0.02)
        profile = (tmp_path / "scan_A_profile.csv").read_text().splitlines()
        assert profile[0] == "position_um,rabi_hz,rabi_err_hz,baseline"
        assert len(profile) - 1 == 61

    def test_report_round_trips_through_reader(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0"])
        main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path)])
        params, cov, raw = read_fit_report(tmp_path / "scan_A_report.json")
        assert params.omega0 == pytest.approx(TWO_PI * raw["params"]["peak_rabi_hz"])
        assert cov.shape == (3, 3)

    def test_gaussian_diameter_is_the_1_over_e2_diameter(self, tmp_path):
        # with Omega proportional to I, 2 w0 and D4sigma are one diameter
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0", "--analytic"])
        main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path)])
        report = load_json(tmp_path / "scan_A_report.json")
        assert report["gaussian_diameter_um"] == 2 * report["params"]["width_um"]
        assert report["gaussian_diameter_um"] == pytest.approx(report["d4sigma_um"], rel=0.01)

    def test_report_carries_fitted_spam(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
              "--spam-prep", "0.03", "--spam-meas", "0.05"])
        main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path)])
        report = load_json(tmp_path / "scan_A_report.json")
        assert report["schema_version"] == 4
        assert report["spam"]["eps_prep"] == pytest.approx(0.03, abs=0.005)
        assert report["spam"]["eps_meas"] == pytest.approx(0.05, abs=0.01)
        assert report["spam"]["eps_prep_err"] > 0 and report["spam"]["eps_meas_err"] > 0

    def test_spam_is_not_an_option(self, pair_run, tmp_path):
        # the fit starts from the scan alone: no SPAM option, no SPAM config key
        argv = ["fit", str(pair_run / "scan_A.csv"), "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--spam-prep", "0.01"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spam_meas": 0.01}))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert not (tmp_path / "scan_A_report.json").exists()

    def test_prefix_overrides_output_names(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0"])
        rc = main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path),
                   "--prefix", "beam"])
        assert rc == 0
        assert (tmp_path / "beam_report.json").exists()
        assert (tmp_path / "beam_profile.csv").exists()

    def test_nonconvergent_fit_still_writes_report(self, tmp_path, capsys):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0"])
        rc = main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path),
                   "--max-iterations", "1"])
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err
        report = load_json(tmp_path / "scan_A_report.json")
        assert report["converged"] is False
        assert (tmp_path / "scan_A_profile.csv").exists()

    @pytest.mark.parametrize("flag, config", [
        ("0", None), ("-5", None), (None, 2.5),
    ])
    def test_invalid_max_iterations_exits_2(self, tmp_path, capsys, flag, config):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0"])
        argv = ["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path)]
        if flag is not None:
            argv += ["--max-iterations", flag]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"max_iterations": config}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert "max_iterations must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "scan_A_report.json").exists()
        assert not (tmp_path / "scan_A_profile.csv").exists()

    def test_missing_scan_file_exits_1(self, tmp_path):
        rc = main(["fit", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_empty_scan_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = main(["fit", str(empty), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("position_um,duration_us,p1,shots\n0.0,10.0,1.5,100\n")
        rc = main(["fit", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        (b"0," + b"1" * 200_000 + b",0.5,100\n", "line 2: field larger than field limit"),
        (b"0,1,0.5,100\n0,1,0.\xff5,100\n", "line 3: byte 0xff is not valid"),
    ], ids=["oversized-field", "undecodable-byte"])
    def test_unreadable_line_exits_2(self, tmp_path, capsys, body, message):
        scan = tmp_path / "scan.csv"
        scan.write_bytes(b"position_um,duration_us,p1,shots\n" + body)
        out = tmp_path / "out"
        assert main(["fit", str(scan), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert files_in(out) == []

    def test_no_scan_argument_exits_2(self, tmp_path):
        assert main(["fit", "--out-dir", str(tmp_path)]) == 2

    def test_seed_is_a_synth_only_option(self, tmp_path):
        main(["synth", "--out-dir", str(tmp_path), "--seed", "1"])
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(tmp_path / "scan_A.csv"), "--out-dir", str(tmp_path),
                  "--seed", "1"])
        assert exc.value.code == 2

    def test_jittered_scan_fails_with_one_error_line(self, tmp_path, subprocess_env):
        # Every jittered record has its own position, so no position has an
        # oscillation amplitude; the fit must say so before any per-position
        # work (which would warn once per position).
        main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
              "--jitter-resolution", "0.05"])
        proc = subprocess.run(
            [sys.executable, "-m", "ionoptics.cli", "fit", str(tmp_path / "scan_A.csv"),
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=subprocess_env, check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: no oscillation amplitude at any position"
        ]


# === pair ===================================================================


#: The README's two beams.
README_BEAMS = ["--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
                "--width-um", "1.86", "1.88"]


@pytest.fixture(scope="module")
def pair_run(tmp_path_factory):
    """synth two beams -> fit each -> pair with off-beam traces.

    The grid runs to 2.5 ms, so the traces cover pair's default window.
    """
    root = tmp_path_factory.mktemp("pair_cli")
    positions = [f"{-5.6 + 0.2 * i:.1f}" for i in range(79)]
    durations_us = [str(100 * i) for i in range(26)]
    assert main(["synth", "--out-dir", str(root), "--seed", "0", *README_BEAMS,
                 "--positions", *positions, "--durations-us", *durations_us,
                 "--emit-traces"]) == 0
    assert main(["fit", str(root / "scan_A.csv"), "--out-dir", str(root)]) == 0
    assert main(["fit", str(root / "scan_B.csv"), "--out-dir", str(root)]) == 0
    assert main(["pair",
                 "--fit-a", str(root / "scan_A_report.json"),
                 "--fit-b", str(root / "scan_B_report.json"),
                 "--trace-a", str(root / "trace_A.csv"),
                 "--trace-b", str(root / "trace_B.csv"),
                 "--out-dir", str(root)]) == 0
    return root


#: Marks a report field to delete.
_DELETE = object()


def _field_name(path):
    """A report field as read_fit_report names it: ``params.width_um``, ``covariance[1][1]``."""
    return path[0] + "".join(f".{key}" if isinstance(key, str) else f"[{key}]"
                             for key in path[1:])


class TestPair:
    def test_separation_matches_truth(self, pair_run):
        rep = load_json(pair_run / "pair_report.json")
        assert rep["separation_um"] == pytest.approx(4.31, abs=0.05)
        assert rep["ambiguous"] is False

    def test_crosstalk_bound_under_traces(self, pair_run):
        rep = load_json(pair_run / "pair_report.json")
        assert rep["rabi_bound_hz"] == pytest.approx(12.75, abs=0.01)
        assert rep["off_beam_oscillation_a"] is False
        assert rep["off_beam_oscillation_b"] is False
        assert 0.004 < rep["crosstalk_bound_b"] < rep["crosstalk_bound_a"] < 0.008

    def test_bound_only_over_the_window_the_traces_cover(self, pair_run, tmp_path):
        # The README synth grid ends at three periods of the slower beam,
        # 1.57 ms, short of the 2.5 ms default window.
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0", *README_BEAMS,
                     "--emit-traces"]) == 0
        assert main(["pair",
                     "--fit-a", str(pair_run / "scan_A_report.json"),
                     "--fit-b", str(pair_run / "scan_B_report.json"),
                     "--trace-a", str(tmp_path / "trace_A.csv"),
                     "--trace-b", str(tmp_path / "trace_B.csv"),
                     "--out-dir", str(tmp_path)]) == 0
        rep = load_json(tmp_path / "pair_report.json")
        peak_a = load_json(pair_run / "scan_A_report.json")["params"]["peak_rabi_hz"]
        assert rep["observation_window_s"] == pytest.approx(3 / 1910, rel=1e-9)
        assert rep["rabi_bound_hz"] == pytest.approx(20.3, abs=0.05)
        assert rep["crosstalk_bound_a"] == pytest.approx(rep["rabi_bound_hz"] / peak_a)
        assert [note for note in rep["notes"] if "window" in note] == [
            "observation window cut from 0.0025 s to 0.001571 s, "
            "the last duration the traces cover"
        ]
        assert load_json(pair_run / "pair_report.json")["notes"] == []

    def test_missing_fit_path_exits_2(self, tmp_path):
        rc = main(["pair", "--fit-a", "whatever.json", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_spam_comes_from_the_reports(self, pair_run, tmp_path):
        # pair has no SPAM option and no SPAM config key
        argv = ["pair", "--fit-a", str(pair_run / "scan_A_report.json"),
                "--fit-b", str(pair_run / "scan_B_report.json"), "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--spam-prep", "0.01"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spam_meas": 0.01}))
        assert main([*argv, "--config", str(cfg)]) == 2

    def test_report_without_schema_version_exits_2(self, pair_run, tmp_path, capsys):
        old = load_json(pair_run / "scan_A_report.json")
        del old["schema_version"], old["spam"]
        path = tmp_path / "old_report.json"
        path.write_text(json.dumps(old))
        rc = main(["pair", "--fit-a", str(path), "--fit-b", str(pair_run / "scan_B_report.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize("converged", ["false", 1])
    def test_converged_must_be_a_json_boolean(self, pair_run, tmp_path, capsys, converged):
        report = load_json(pair_run / "scan_A_report.json")
        report["converged"] = converged
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = main(["pair", "--fit-a", str(path), "--fit-b", str(pair_run / "scan_B_report.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "converged must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "pair_report.json").exists()

    @pytest.mark.parametrize("field", ["covariance", "eps_prep_err", "eps_meas_err"])
    def test_nonfinite_error_exits_2(self, pair_run, tmp_path, capsys, field):
        # a NaN would reach pair_report.json, which would then not be JSON
        report = load_json(pair_run / "scan_A_report.json")
        if field == "covariance":
            report["covariance"][1][1] = math.nan
        else:
            report["spam"][field] = math.nan
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = main(["pair", "--fit-a", str(path), "--fit-b", str(pair_run / "scan_B_report.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "pair_report.json").exists()

    def test_report_that_is_not_json_names_its_path(self, pair_run, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text("not json")
        out = tmp_path / "out"
        rc = main(["pair", "--fit-a", str(bad), "--fit-b", str(pair_run / "scan_B_report.json"),
                   "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {bad}: not valid JSON" in capsys.readouterr().err
        assert files_in(out) == []

    def test_trace_at_several_positions_exits_2(self, pair_run, tmp_path, capsys):
        # a scan is not an off-beam trace: its records span many positions
        out = tmp_path / "out"
        rc = main(["pair", "--fit-a", str(pair_run / "scan_A_report.json"),
                   "--fit-b", str(pair_run / "scan_B_report.json"),
                   "--trace-a", str(pair_run / "scan_B.csv"), "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: off-beam trace 'scan_B' must be recorded at one position, got 79\n")
        assert files_in(out) == []

    def test_missing_report_exits_1(self, pair_run, tmp_path):
        out = tmp_path / "out"
        rc = main(["pair", "--fit-a", str(tmp_path / "nope.json"),
                   "--fit-b", str(pair_run / "scan_B_report.json"), "--out-dir", str(out)])
        assert rc == 1
        assert files_in(out) == []

    def test_malformed_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {}}))
        rc = main(["pair", "--fit-a", str(bad), "--fit-b", str(bad),
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=f"{_field_name(path)}={label}") for path, value, label in [
            (("schema_version",), 2, "2"), (("schema_version",), 3, "3"),
            (("beam_label",), _DELETE, "missing"), (("beam_label",), 7, "7"),
            (("beam_label",), None, "null"),
            (("n_iterations",), _DELETE, "missing"), (("n_iterations",), 5.9, "5.9"),
            (("n_iterations",), True, "true"), (("n_iterations",), "5", "'5'"),
            (("residual_rms",), _DELETE, "missing"), (("residual_rms",), "1.0", "'1.0'"),
            (("residual_rms",), True, "true"), (("residual_rms",), math.nan, "NaN"),
            (("residual_rms",), 10**400, "1e400"),
            (("params", "center_um"), True, "true"),
            (("params", "peak_rabi_hz"), True, "true"),
            (("params", "width_um"), True, "true"),
            (("spam", "eps_prep"), False, "false"),
            (("spam", "eps_prep_err"), "0.001", "'0.001'"),
            (("covariance", 1, 1), True, "true"),
            (("covariance", 0, 0), "1.0", "'1.0'"),
        ]
    ])
    def test_missing_or_mistyped_field_exits_2(self, pair_run, tmp_path, capsys, path, value):
        # pair copies these fields into its fit results; it must not make them up
        report = load_json(pair_run / "scan_A_report.json")
        parent = functools.reduce(operator.getitem, path[:-1], report)
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        out = tmp_path / "out"
        rc = main(["pair", "--fit-a", str(report_path),
                   "--fit-b", str(pair_run / "scan_B_report.json"), "--out-dir", str(out)])
        assert rc == 2
        assert _field_name(path) in capsys.readouterr().err
        assert files_in(out) == []


# === option values and failed steps =========================================


#: Options that pass argparse but are not finite or not positive.
_BAD_OPTION_VALUES = [
    ["design", "--wavelength", "nan"],
    ["design", "--neighbor-distance", "nan"],
    ["design", "--neighbor-distance", "inf"],
    ["design", "--diameter-range", "1", "inf"],
    ["propagate", "--source-pitch", "nan"],
    ["propagate", "--source-pitch", "inf"],
    ["propagate", "--measured-pitch", "nan", "--measured-pitch-err", "0.05"],
    ["propagate", "--measured-pitch", "inf", "--measured-pitch-err", "0.05"],
    ["propagate", "--measured-pitch", "4.4", "--measured-pitch-err", "nan"],
    ["propagate", "--measured-pitch", "4.4", "--measured-pitch-err", "inf"],
    ["pair", "--window-s", "nan"],
]


class TestFailedStep:
    """A step that exits 2 leaves no file in its output directory."""

    @pytest.mark.parametrize("argv", _BAD_OPTION_VALUES, ids=" ".join)
    def test_bad_option_value_exits_2(self, pair_run, tmp_path, capsys, argv):
        if argv[0] == "pair":
            argv = [*argv, "--fit-a", str(pair_run / "scan_A_report.json"),
                    "--fit-b", str(pair_run / "scan_B_report.json")]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert files_in(out) == []

    def test_input_beyond_float_range_exits_2(self, tmp_path, capsys):
        # a count of 10^400 passes the count rule, but no float holds it
        out = tmp_path / "out"
        assert main(["design", "--out-dir", str(out), "--samples", "1" + "0" * 400]) == 2
        assert capsys.readouterr().err == (
            "error: an input is out of floating-point range (int too large to convert to float)\n")
        assert files_in(out) == []

    @pytest.mark.parametrize("argv, waist", [
        # the waist squared overflows
        (["--source-diameter", "1e200"], "5e+199"),
        # the waist squared is finite, its quotient by the wavelength is not
        (["--source-diameter", "1e150", "--wavelength", "1e-20"], "5e+149"),
    ], ids=" ".join)
    def test_rayleigh_range_beyond_float_range_exits_2(self, tmp_path, capsys, argv, waist):
        out = tmp_path / "out"
        assert main(["propagate", "--out-dir", str(out), *argv]) == 2
        wavelength = argv[-1] if "--wavelength" in argv else "0.355"
        assert capsys.readouterr().err == (
            f"error: Rayleigh range of waist radius {waist} um at wavelength {wavelength} um "
            "is beyond the float range\n")
        assert files_in(out) == []

    def test_beams_too_far_apart_for_the_default_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out-dir", str(out), "--rabi-hz", "1000", "1000",
                     "--center-um", "0", "1e300", "--width-um", "1", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: the beams span 1e+300 um: a default grid at steps of w0/10 = 0.1 um "
            "would need more than 2^20 positions\n")
        assert files_in(out) == []

    def test_value_that_overflows_after_the_checks_exits_2(self, tmp_path, capsys):
        # both inputs pass their checks, but 0.11 um / 1e-320 um is no float
        out = tmp_path / "out"
        assert main(["propagate", "--out-dir", str(out), "--measured-pitch", "4.4",
                     "--measured-pitch-err", "1e-320"]) == 2
        assert "image_report.json not written" in capsys.readouterr().err
        assert files_in(out) == []

    @pytest.mark.parametrize("argv", [
        # the curve computes; the boundary summary does not
        ["design", "--wavelength", "1e-300"],
        # the scan computes; the traces need a second beam
        ["synth", "--emit-traces"],
    ], ids=" ".join)
    def test_late_failure_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert files_in(out) == []


# === manifests and config ===================================================


class TestManifest:
    def test_every_subcommand_writes_one(self, pair_run, tmp_path):
        main(["design", "--out-dir", str(tmp_path)])
        main(["propagate", "--out-dir", str(tmp_path)])
        for sub in ("design", "propagate"):
            assert set(load_json(tmp_path / f"{sub}_manifest.json")) == MANIFEST_KEYS
        for name in ("synth", "scan_A_fit", "scan_B_fit", "pair"):
            assert set(load_json(pair_run / f"{name}_manifest.json")) == MANIFEST_KEYS

    def test_each_fit_keeps_its_manifest(self, pair_run):
        # two fits into one directory: the second must not erase the first's
        assert not (pair_run / "fit_manifest.json").exists()
        for beam in "AB":
            man = load_json(pair_run / f"scan_{beam}_fit_manifest.json")
            assert man["subcommand"] == "fit"
            assert man["inputs"] == [str(pair_run / f"scan_{beam}.csv")]
            assert man["outputs"] == [f"scan_{beam}_report.json", f"scan_{beam}_profile.csv"]

    @pytest.mark.parametrize("sub", ["design", "propagate", "synth", "fit", "pair"])
    def test_outputs_are_the_files_in_write_order(self, pair_run, tmp_path, monkeypatch, sub):
        argv = {
            "design": ["design"],
            "propagate": ["propagate"],
            "synth": ["synth", *README_BEAMS, "--emit-traces"],
            "fit": ["fit", str(pair_run / "scan_A.csv")],
            "pair": ["pair", "--fit-a", str(pair_run / "scan_A_report.json"),
                     "--fit-b", str(pair_run / "scan_B_report.json"),
                     "--trace-a", str(pair_run / "trace_A.csv"),
                     "--trace-b", str(pair_run / "trace_B.csv")],
        }[sub]
        written = []
        replace = os.replace

        def recording_replace(src, dst):  # every file lands by a rename
            replace(src, dst)
            written.append(os.path.basename(dst))

        monkeypatch.setattr(os, "replace", recording_replace)
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        *outputs, manifest = written
        assert manifest == ("scan_A_fit" if sub == "fit" else sub) + "_manifest.json"
        assert load_json(tmp_path / manifest)["outputs"] == outputs
        assert files_in(tmp_path) == sorted(written)

    def test_failed_write_leaves_no_manifest(self, tmp_path):
        # the rename onto a directory fails after scan_A.csv is written
        (tmp_path / "scan_B.csv").mkdir()
        assert main(["synth", *README_BEAMS, "--out-dir", str(tmp_path)]) == 1
        assert not (tmp_path / "synth_manifest.json").exists()

    def test_contents_record_the_run(self, pair_run):
        man = load_json(pair_run / "pair_manifest.json")
        assert man["subcommand"] == "pair"
        assert len(man["inputs"]) == 4
        assert man["outputs"] == ["pair_report.json"]
        datetime.fromisoformat(man["generated_at"])  # parseable timestamp

    def test_records_python_and_numpy_versions(self, pair_run, subprocess_env, tmp_path):
        # "3.11.7"; a pre-release interpreter also has a suffix such as "rc1"
        python = platform.python_version()
        for name in ("synth", "scan_A_fit", "pair"):
            man = load_json(pair_run / f"{name}_manifest.json")
            assert python.startswith(man["python"])
            assert man["numpy"] == numpy.__version__
        # design and propagate never load numpy, and recording must not either
        code = (f"from ionoptics.cli import main; out = {str(tmp_path)!r}; "
                "main(['design', '--out-dir', out]); main(['propagate', '--out-dir', out])")
        subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True)
        for sub in ("design", "propagate"):
            man = load_json(tmp_path / f"{sub}_manifest.json")
            assert python.startswith(man["python"])
            assert man["numpy"] is None

    def test_timestamps_only_in_manifest(self, tmp_path):
        # reruns differ only in the manifest, so data files carry no clock
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["design", "--out-dir", str(out)])
        man_a = load_json(a / "design_manifest.json")
        man_b = load_json(b / "design_manifest.json")
        man_a.pop("generated_at")
        man_b.pop("generated_at")
        # normalize: out_dir is the only intentionally differing option
        man_a["options"].pop("out_dir")
        man_b["options"].pop("out_dir")
        assert man_a == man_b


class TestConfigFile:
    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 50, "grid_durations": 5}))
        rc = main(["synth", "--out-dir", str(tmp_path), "--config", str(cfg),
                   "--seed", "1", "--shots", "100"])
        assert rc == 0
        man = load_json(tmp_path / "synth_manifest.json")
        assert man["options"]["shots"] == 100          # flag wins
        assert man["options"]["grid_durations"] == 5   # config beats default
        assert man["options"]["grid_positions"] == 61  # untouched default
        ds = read_scan_csv(tmp_path / "scan_A.csv")
        assert (ds.shots == 100).all()
        assert len(set(ds.duration_s.tolist())) == 5

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shotz": 50}))
        rc = main(["synth", "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 2
        assert "shotz" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["design", "--out-dir", str(tmp_path), "--config", str(cfg)]) == 2

    def test_missing_config_exits_1(self, tmp_path):
        rc = main(["design", "--out-dir", str(tmp_path),
                   "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    @pytest.mark.parametrize("content", [
        pytest.param(b"not json", id="text"),
        pytest.param(b'{"wavelength": "\xff"}', id="undecodable"),
        pytest.param(b'{"samples": ' + b"1" * 5000 + b"}", id="digit-limit"),
    ])
    def test_config_that_is_not_json_names_its_path(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        out = tmp_path / "out"
        assert main(["design", "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert f"error: {cfg}: not valid JSON" in capsys.readouterr().err
        assert files_in(out) == []

    @pytest.mark.parametrize("sub, key, value, message, output", [
        ("synth", "analytic", "false", "config key analytic", "scan_A.csv"),
        ("synth", "emit_traces", 0, "config key emit_traces", "scan_A.csv"),
        ("design", "samples", 2.9, "samples must be an integer", "design_curve.csv"),
        ("propagate", "channels", 2.5, "channel count must be an integer",
         "image_report.json"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys,
                                                sub, key, value, message, output):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([sub, "--out-dir", str(tmp_path), "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / output).exists()
        assert not (tmp_path / f"{sub}_manifest.json").exists()

    @pytest.mark.parametrize("sub, key, value", [
        ("design", "wavelength", True), ("synth", "seed", True), ("pair", "window_s", True),
        ("synth", "rabi_hz", [1910, True]),
    ], ids=["design-wavelength", "synth-seed", "pair-window_s", "synth-rabi_hz-list"])
    def test_boolean_for_a_number_exits_2(self, pair_run, tmp_path, capsys, sub, key, value):
        # Python reads JSON true as the number 1; only a flag takes a boolean
        inputs = {
            "pair": ["--fit-a", str(pair_run / "scan_A_report.json"),
                     "--fit-b", str(pair_run / "scan_B_report.json")],
        }.get(sub, [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main([sub, *inputs, "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert f"config key {key}" in capsys.readouterr().err
        assert files_in(out) == []

    @pytest.mark.parametrize("sub, key, value", [
        ("fit", "prefix", ["x"]), ("fit", "prefix", {}), ("design", "diameter_range", 5),
        ("design", "diameter_range", [1, [10]]), ("design", "wavelength", "abc"),
    ], ids=["list-for-a-scalar", "object", "scalar-for-two-values", "nested-list",
            "text-for-a-float"])
    def test_value_the_command_line_would_reject_exits_2(self, pair_run, tmp_path, sub, key,
                                                         value):
        inputs = {"fit": [str(pair_run / "scan_A.csv")]}.get(sub, [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        rc, err = _exit_code([sub, *inputs, "--out-dir", str(out), "--config", str(cfg)])
        assert rc == 2
        assert f"config key {key}" in err
        assert files_in(out) == []

    @pytest.mark.parametrize("sub", ["design", "propagate", "synth", "fit", "pair"])
    def test_each_option_declared_once(self, pair_run, tmp_path, sub):
        # The manifest records exactly the parser's options, and a config
        # file may set every one of them: fed back the recorded options,
        # a run with no flags but --config records the same options.
        inputs = {
            "fit": [str(pair_run / "scan_A.csv")],
            "pair": ["--fit-a", str(pair_run / "scan_A_report.json"),
                     "--fit-b", str(pair_run / "scan_B_report.json")],
        }.get(sub, [])
        _, subparsers = build_parser()
        dests = {action.dest for action in subparsers[sub]._actions
                 if action.default is not argparse.SUPPRESS} - {"config"}
        first, second = tmp_path / "flags", tmp_path / "config"
        manifest = "scan_A_fit_manifest.json" if sub == "fit" else f"{sub}_manifest.json"
        assert main([sub, *inputs, "--out-dir", str(first)]) == 0
        options = load_json(first / manifest)["options"]
        assert set(options) == dests

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**options, "out_dir": str(second)}))
        assert main([sub, "--config", str(cfg)]) == 0
        assert load_json(second / manifest)["options"] == {
            **options, "out_dir": str(second)}


# === fuzzed input files =====================================================


def _exit_code(argv):
    """Exit code and stderr of one in-process run, argparse's SystemExit included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. unresolved centers; not an error
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


# JSON a malformed file may hold: wrong types, non-finite and huge numbers
# (json reads NaN, Infinity and ints of any size), nesting.
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50), st.just(10**400), st.floats(),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_ELEMENT = st.one_of(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["gap", "lens"]),
        "value_mm": st.floats(-500.0, 500.0),
        "axis": st.sampled_from(["both", "axial", "radial"]),
    }),
    st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["gap", "lens", "mirror"]) | _SCALAR,
        "value_mm": _SCALAR,
        "axis": st.sampled_from(["both", "axial", "radial", "x"]) | _SCALAR,
    }),
    _JSON,
)
_PRESCRIPTION = st.one_of(
    st.fixed_dictionaries(
        {"name": st.just("fuzz") | _SCALAR, "elements": st.lists(_ELEMENT, max_size=6)},
        optional={"source_plane": _SCALAR, "image_plane": _SCALAR},
    ).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=20),
)

#: A fit report read_fit_report accepts, for a beam at 4.31 um.
_REPORT = {
    "schema_version": 4, "beam_label": "B", "converged": True, "n_iterations": 5,
    "params": {"peak_rabi_hz": 2790.0, "center_um": 4.31, "width_um": 1.88},
    "covariance": [[1.0, 0.0, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 1e-6]],
    "spam": {"eps_prep": 0.01, "eps_meas": 0.01, "eps_prep_err": 1e-3, "eps_meas_err": 1e-3},
    "residual_rms": 1.0, "d4sigma_um": 3.7,
}
_REPORT_PATHS = [
    (key,) for key in _REPORT
] + [("params", k) for k in _REPORT["params"]] + [("spam", k) for k in _REPORT["spam"]] + [
    ("covariance", 0), ("covariance", 1, 1),
]


def _mutated_report(mutations):
    report = copy.deepcopy(_REPORT)
    for path, value in mutations:
        try:
            parent = functools.reduce(operator.getitem, path[:-1], report)
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced the container
    return json.dumps(report)


_FIT_REPORT = st.one_of(
    st.lists(st.tuples(st.sampled_from(_REPORT_PATHS), _JSON | st.just(_DELETE)),
             max_size=3).map(_mutated_report),
    _JSON.map(json.dumps),
    st.text(max_size=20),
)

_CONFIG_KEYS = ["wavelength", "neighbor_distance", "na_cap", "diameter_range", "samples",
                "source_diameter", "source_pitch", "channels", "measured_pitch",
                "measured_pitch_err", "config", "subcommand", "shotz"]
# Counts stay small, so that a valid config runs in milliseconds.
_CONFIG_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50), st.floats(),
    st.sampled_from(["", "abc", "3", "-1", "0.5", "nan", "inf", "true", "1e400"]),
)
_CONFIG = st.one_of(
    st.dictionaries(st.sampled_from(_CONFIG_KEYS),
                    _CONFIG_VALUE | st.lists(_CONFIG_VALUE, max_size=3), max_size=4),
    _JSON,
).map(json.dumps)


class TestInputFileFuzz:
    """Malformed input files exit 2 with a message, never with a traceback."""

    @given(text=_PRESCRIPTION)
    @settings(max_examples=300, deadline=None)
    def test_prescription(self, tmp_path_factory, text):
        from ionoptics.system_model import load_prescription

        out = tmp_path_factory.mktemp("fuzz")
        path = out / "prescription.json"
        path.write_text(text)
        rc, err = _exit_code(["propagate", "--prescription", str(path), "--out-dir", str(out)])
        assert rc in (0, 2, 3), err
        assert "Traceback" not in err
        if rc == 3:  # only a well-formed train may lack an image plane
            load_prescription(path)

    @given(text=_FIT_REPORT)
    @settings(max_examples=300, deadline=None)
    def test_fit_report(self, tmp_path_factory, text):
        out = tmp_path_factory.mktemp("fuzz")
        (out / "a.json").write_text(text)
        (out / "b.json").write_text(json.dumps(_REPORT))
        rc, err = _exit_code(["pair", "--fit-a", str(out / "a.json"),
                              "--fit-b", str(out / "b.json"), "--out-dir", str(out)])
        assert rc in (0, 2), err
        assert "Traceback" not in err
        if rc == 0:
            for path in out.glob("*.json"):
                if path.name not in ("a.json", "b.json"):
                    strict_json(path)

    @given(sub=st.sampled_from(["design", "propagate"]), text=_CONFIG)
    @settings(max_examples=300, deadline=None)
    def test_config(self, tmp_path_factory, sub, text):
        out = tmp_path_factory.mktemp("fuzz")
        (out / "cfg.json").write_text(text)
        rc, err = _exit_code([sub, "--config", str(out / "cfg.json"), "--out-dir", str(out)])
        assert rc in (0, 2), err
        assert "Traceback" not in err
        if rc == 0:
            for path in out.glob("*.json"):
                if path.name != "cfg.json":
                    strict_json(path)
