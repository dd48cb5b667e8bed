"""Command-line interface.

Five subcommands cover the workflow: ``design`` (crosstalk/NA tradeoff
curve), ``propagate`` (image-plane report for a prescription), ``synth``
(synthetic scan datasets), ``fit`` (scan fit report + frequency profile),
and ``pair`` (two-beam separation and crosstalk bounds).

Option values resolve as command line > config file (--config, JSON
object keyed by option name with dashes as underscores) > built-in
defaults. Every run writes ``<subcommand>_manifest.json`` into the output
directory recording the resolved options, inputs, outputs, and a
timestamp; timestamps live only in the manifest so data files are
byte-identical across reruns. Data files and manifests are all written
atomically (temporary file, then rename).

Exit codes: 0 success; 1 I/O failure; 2 invalid arguments, config, or
input data; 3 numerical failure (non-convergent fit, prescription with
no image plane). A non-convergent fit still writes its best-so-far
report before exiting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._atomic import _write_atomic
from .beamlab import SingularityError
from .design_tradeoff import DesignConstraints, min_diameter_for_na, required_na, tradeoff_curve
from .rabi_model import BeamProfileParams, SpamModel
from .scan_fit import (
    TWO_PI,
    BeamFitResult,
    FitConvergenceError,
    ScanFormatError,
    fit_beam,
    pair_analysis,
    pair_report_dict,
    read_fit_report,
    read_scan_csv,
    write_fit_report,
    write_freq_profile_csv,
    write_scan_csv,
)
from .synth_scan import SynthConfig, default_scan_grid, generate, position_jitter
from .system_model import (
    BeamArraySpec,
    PrescriptionError,
    compare_measured_pitch,
    image_array,
    load_prescription,
    reference_prescription,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: Seed salt for off-beam trace datasets so they never reuse scan draws.
_TRACE_SALT = 0x74726163


def _write_manifest(out_dir: Path, subcommand: str, options: dict,
                    inputs: list[str], outputs: list[str]) -> Path:
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "options": options,
        "inputs": inputs,
        "outputs": outputs,
    }
    path = out_dir / f"{subcommand}_manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _resolve(args: argparse.Namespace, defaults: dict, config: dict) -> dict:
    """Merge option sources: explicit flag > config file > default."""
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        resolved[key] = value
    return resolved


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt_row(*values) -> str:
    return ",".join(f"{v:.10g}" for v in values)


# === design =================================================================

_DESIGN_DEFAULTS = {
    "out_dir": ".",
    "wavelength": 0.355,
    "neighbor_distance": 5.0,
    "na_cap": 0.24,
    "diameter_range": [1.0, 10.0],
    "samples": 181,
}


def cmd_design(args: argparse.Namespace, config: dict) -> int:
    opt = _resolve(args, _DESIGN_DEFAULTS, config)
    out = _out_dir(opt)
    lo, hi = (float(v) for v in opt["diameter_range"])
    constraints = DesignConstraints(
        wavelength_um=opt["wavelength"],
        neighbor_distance_um=opt["neighbor_distance"],
        na_cap=opt["na_cap"],
    )
    points = tradeoff_curve(constraints, (lo, hi), int(opt["samples"]))
    lines = ["diameter_um,required_na,crosstalk"]
    for pt in points:
        lines.append(_fmt_row(pt.beam_diameter_um, pt.required_na, pt.crosstalk))
    curve_path = out / "design_curve.csv"
    _write_atomic(curve_path, "\n".join(lines) + "\n")

    boundary = min_diameter_for_na(constraints.na_cap, constraints.wavelength_um)
    from .design_tradeoff import crosstalk as _crosstalk  # local alias, avoids shadowing

    summary = {
        "wavelength_um": constraints.wavelength_um,
        "neighbor_distance_um": constraints.neighbor_distance_um,
        "na_cap": constraints.na_cap,
        "diameter_range_um": [lo, hi],
        "samples": int(opt["samples"]),
        "boundary_diameter_um": boundary,
        "boundary_crosstalk": _crosstalk(boundary, constraints.neighbor_distance_um),
        "boundary_required_na": required_na(boundary, constraints.wavelength_um),
        "boundary_in_range": lo < boundary < hi,
        "rows": len(points),
    }
    summary_path = out / "design_summary.json"
    _write_atomic(summary_path, json.dumps(summary, indent=2) + "\n")
    _write_manifest(out, "design", opt, [], [curve_path.name, summary_path.name])
    return EXIT_OK


# === propagate ==============================================================

_PROPAGATE_DEFAULTS = {
    "out_dir": ".",
    "prescription": None,  # None: packaged reference train
    "wavelength": 0.355,
    "source_diameter": 200.0,
    "source_pitch": 450.0,
    "channels": 10,
    "measured_pitch": None,
    "measured_pitch_err": None,
}


def cmd_propagate(args: argparse.Namespace, config: dict) -> int:
    opt = _resolve(args, _PROPAGATE_DEFAULTS, config)
    out = _out_dir(opt)
    inputs = []
    if opt["prescription"] is None:
        prescription = reference_prescription()
    else:
        prescription = load_prescription(opt["prescription"])
        inputs.append(str(opt["prescription"]))
    array = BeamArraySpec(
        source_diameter_um=opt["source_diameter"],
        source_pitch_um=opt["source_pitch"],
        channel_count=int(opt["channels"]),
    )
    report = image_array(prescription, array, wavelength_um=opt["wavelength"])
    payload = dataclasses.asdict(report)
    payload["centers_um"] = list(report.centers_um)
    payload["notes"] = list(report.notes)
    if opt["measured_pitch"] is not None:
        err = opt["measured_pitch_err"]
        if err is None:
            raise ValueError("--measured-pitch requires --measured-pitch-err")
        disc = compare_measured_pitch(report, float(opt["measured_pitch"]), float(err))
        payload["pitch_discrepancy"] = dataclasses.asdict(disc)
    report_path = out / "image_report.json"
    _write_atomic(report_path, json.dumps(payload, indent=2) + "\n")
    _write_manifest(out, "propagate", opt, inputs, [report_path.name])
    return EXIT_OK


# === synth ==================================================================

_SYNTH_DEFAULTS = {
    "out_dir": ".",
    "seed": 0,
    "rabi_hz": [2000.0],
    "center_um": [0.0],
    "width_um": [2.0],
    "shots": 200,
    "spam_prep": 0.01,
    "spam_meas": 0.01,
    "analytic": False,
    "positions": None,  # explicit grid overrides the default span
    "durations_us": None,
    "grid_positions": 61,
    "grid_durations": 21,
    "jitter_resolution": None,
    "emit_traces": False,
}


def cmd_synth(args: argparse.Namespace, config: dict) -> int:
    opt = _resolve(args, _SYNTH_DEFAULTS, config)
    out = _out_dir(opt)
    rabi = [float(v) for v in opt["rabi_hz"]]
    centers = [float(v) for v in opt["center_um"]]
    widths = [float(v) for v in opt["width_um"]]
    if not (len(rabi) == len(centers) == len(widths)):
        raise ValueError(
            f"--rabi-hz/--center-um/--width-um must have equal counts, "
            f"got {len(rabi)}/{len(centers)}/{len(widths)}"
        )
    truth = tuple(
        BeamProfileParams(omega0=r * TWO_PI, center_um=c, width_um=w)
        for r, c, w in zip(rabi, centers, widths)
    )
    if opt["positions"] is not None and opt["durations_us"] is not None:
        positions = tuple(float(v) for v in opt["positions"])
        durations = tuple(float(v) * 1e-6 for v in opt["durations_us"])
    elif opt["positions"] is None and opt["durations_us"] is None:
        positions, durations = default_scan_grid(
            truth, int(opt["grid_positions"]), int(opt["grid_durations"])
        )
    else:
        raise ValueError("--positions and --durations-us must be given together")
    spam = SpamModel(eps_prep=opt["spam_prep"], eps_meas=opt["spam_meas"])
    seed = int(opt["seed"])
    synth = SynthConfig(
        truth=truth,
        positions_um=positions,
        durations_s=durations,
        shots=int(opt["shots"]),
        spam=spam,
        rng_seed=seed,
        analytic=bool(opt["analytic"]),
    )
    datasets = generate(synth)
    if opt["jitter_resolution"] is not None:
        datasets = [
            position_jitter(ds, float(opt["jitter_resolution"]), seed) for ds in datasets
        ]
    outputs = []
    for ds in datasets:
        path = out / f"scan_{ds.beam_label}.csv"
        write_scan_csv(ds, path)
        outputs.append(path.name)

    if opt["emit_traces"]:
        if len(truth) != 2:
            raise ValueError("--emit-traces requires two beams")
        # Off-beam response: drive one beam, record at the neighbor's center.
        for label, (driven, other) in zip("AB", ((truth[0], truth[1]), (truth[1], truth[0]))):
            trace_cfg = SynthConfig(
                truth=(driven,),
                positions_um=(other.center_um,),
                durations_s=durations,
                shots=int(opt["shots"]),
                spam=spam,
                rng_seed=seed ^ _TRACE_SALT,
                analytic=bool(opt["analytic"]),
            )
            trace = generate(trace_cfg)[0]
            path = out / f"trace_{label}.csv"
            write_scan_csv(trace, path)
            outputs.append(path.name)
    _write_manifest(out, "synth", opt, [], outputs)
    return EXIT_OK


# === fit ====================================================================

_FIT_DEFAULTS = {
    "out_dir": ".",
    "scan": None,
    "spam_prep": 0.01,
    "spam_meas": 0.01,
    "max_iterations": 200,
    "prefix": None,  # default: scan file stem
}


def cmd_fit(args: argparse.Namespace, config: dict) -> int:
    opt = _resolve(args, _FIT_DEFAULTS, config)
    if opt["scan"] is None:
        raise ValueError("fit requires a scan CSV path")
    out = _out_dir(opt)
    scan_path = Path(opt["scan"])
    data = read_scan_csv(scan_path)
    spam = SpamModel(eps_prep=opt["spam_prep"], eps_meas=opt["spam_meas"])
    prefix = opt["prefix"] or scan_path.stem
    report_path = out / f"{prefix}_report.json"
    profile_path = out / f"{prefix}_profile.csv"

    status = EXIT_OK
    try:
        result = fit_beam(data, spam, max_iterations=opt["max_iterations"])
    except FitConvergenceError as exc:
        result = exc.result
        print(f"fit did not converge: {exc}", file=sys.stderr)
        status = EXIT_NUMERICAL
    write_fit_report(result, report_path)
    write_freq_profile_csv(result.freq_profile, profile_path)
    _write_manifest(out, "fit", opt, [str(scan_path)],
                    [report_path.name, profile_path.name])
    return status


# === pair ===================================================================

_PAIR_DEFAULTS = {
    "out_dir": ".",
    "fit_a": None,
    "fit_b": None,
    "trace_a": None,
    "trace_b": None,
    "window_s": 2.5e-3,
    "floor": 0.01,
    "k_sigma": 3.0,
}


def _result_from_report(path: str | Path) -> BeamFitResult:
    params, cov, raw = read_fit_report(path)
    spam = raw["spam"]  # checked by read_fit_report
    return BeamFitResult(
        params=params,
        covariance=cov,
        residual_rms=float(raw.get("residual_rms", math.nan)),
        freq_profile=(),
        d4sigma_um=raw.get("d4sigma_um"),
        d4sigma_raw_um=raw.get("d4sigma_raw_um"),
        n_iterations=int(raw.get("n_iterations", 0)),
        converged=bool(raw.get("converged", False)),
        spam=SpamModel(eps_prep=spam["eps_prep"], eps_meas=spam["eps_meas"]),
        spam_errors=(float(spam["eps_prep_err"]), float(spam["eps_meas_err"])),
        beam_label=str(raw.get("beam_label", "")),
    )


def cmd_pair(args: argparse.Namespace, config: dict) -> int:
    opt = _resolve(args, _PAIR_DEFAULTS, config)
    if opt["fit_a"] is None or opt["fit_b"] is None:
        raise ValueError("pair requires --fit-a and --fit-b report paths")
    out = _out_dir(opt)
    result_a = _result_from_report(opt["fit_a"])
    result_b = _result_from_report(opt["fit_b"])
    inputs = [str(opt["fit_a"]), str(opt["fit_b"])]
    traces: list = []
    for key in ("trace_a", "trace_b"):
        if opt[key] is None:
            traces.append(None)
        else:
            traces.append(read_scan_csv(opt[key]))
            inputs.append(str(opt[key]))
    report = pair_analysis(
        result_a,
        result_b,
        traces_at_centers=(traces[0], traces[1]),
        observation_window_s=float(opt["window_s"]),
        detection_floor=float(opt["floor"]),
        k_sigma=float(opt["k_sigma"]),
    )
    report_path = out / "pair_report.json"
    _write_atomic(report_path, json.dumps(pair_report_dict(report), indent=2) + "\n")
    _write_manifest(out, "pair", opt, inputs, [report_path.name])
    return EXIT_OK


# === Parser =================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionoptics",
        description="Addressing-optics design, propagation, and scan analysis tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", dest="out_dir", help="output directory (default: .)")
    common.add_argument("--config", dest="config", help="JSON file of option defaults")

    p_design = sub.add_parser("design", parents=[common],
                              help="crosstalk vs numerical-aperture tradeoff curve")
    p_design.add_argument("--wavelength", type=float)
    p_design.add_argument("--neighbor-distance", dest="neighbor_distance", type=float,
                          help="site separation in um")
    p_design.add_argument("--na-cap", dest="na_cap", type=float)
    p_design.add_argument("--diameter-range", dest="diameter_range", nargs=2,
                          type=float, metavar=("LO", "HI"))
    p_design.add_argument("--samples", type=int)
    p_design.set_defaults(func=cmd_design)

    p_prop = sub.add_parser("propagate", parents=[common],
                            help="image-plane report for an optical prescription")
    p_prop.add_argument("--prescription", help="prescription JSON (default: built-in train)")
    p_prop.add_argument("--wavelength", type=float)
    p_prop.add_argument("--source-diameter", dest="source_diameter", type=float)
    p_prop.add_argument("--source-pitch", dest="source_pitch", type=float)
    p_prop.add_argument("--channels", type=int)
    p_prop.add_argument("--measured-pitch", dest="measured_pitch", type=float)
    p_prop.add_argument("--measured-pitch-err", dest="measured_pitch_err", type=float)
    p_prop.set_defaults(func=cmd_propagate)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="synthetic scan datasets with shot noise")
    p_synth.add_argument("--seed", type=int, help="RNG seed")
    p_synth.add_argument("--rabi-hz", dest="rabi_hz", nargs="+", type=float,
                         help="peak Rabi frequency per beam, Hz (1 or 2 values)")
    p_synth.add_argument("--center-um", dest="center_um", nargs="+", type=float)
    p_synth.add_argument("--width-um", dest="width_um", nargs="+", type=float)
    p_synth.add_argument("--shots", type=int)
    p_synth.add_argument("--spam-prep", dest="spam_prep", type=float)
    p_synth.add_argument("--spam-meas", dest="spam_meas", type=float)
    p_synth.add_argument("--analytic", action="store_const", const=True,
                         help="store exact probabilities instead of binomial draws")
    p_synth.add_argument("--positions", nargs="+", type=float,
                         help="explicit position grid, um")
    p_synth.add_argument("--durations-us", dest="durations_us", nargs="+", type=float,
                         help="explicit duration grid, us")
    p_synth.add_argument("--grid-positions", dest="grid_positions", type=int)
    p_synth.add_argument("--grid-durations", dest="grid_durations", type=int)
    p_synth.add_argument("--jitter-resolution", dest="jitter_resolution", type=float,
                         help="blur recorded positions by this stage resolution, um")
    p_synth.add_argument("--emit-traces", dest="emit_traces", action="store_const",
                         const=True, help="also write off-beam traces (two beams)")
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit a scan CSV, write report and frequency profile")
    p_fit.add_argument("scan", nargs="?", help="scan CSV path")
    p_fit.add_argument("--spam-prep", dest="spam_prep", type=float,
                       help="starting value of the fitted eps_prep when the scan has "
                            "no t = 0 record (default: 0.01)")
    p_fit.add_argument("--spam-meas", dest="spam_meas", type=float,
                       help="starting value of the fitted eps_meas (default: 0.01)")
    p_fit.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_fit.add_argument("--prefix", help="output name prefix (default: scan file stem)")
    p_fit.set_defaults(func=cmd_fit)

    p_pair = sub.add_parser("pair", parents=[common],
                            help="separation and crosstalk bounds for two fitted beams")
    p_pair.add_argument("--fit-a", dest="fit_a", help="fit report JSON, first beam")
    p_pair.add_argument("--fit-b", dest="fit_b", help="fit report JSON, second beam")
    p_pair.add_argument("--trace-a", dest="trace_a",
                        help="scan CSV recorded at beam B's center while driving A")
    p_pair.add_argument("--trace-b", dest="trace_b",
                        help="scan CSV recorded at beam A's center while driving B")
    p_pair.add_argument("--window-s", dest="window_s", type=float,
                        help="observation window for the crosstalk bound, s")
    p_pair.add_argument("--floor", type=float, help="excitation detection floor")
    p_pair.add_argument("--k-sigma", dest="k_sigma", type=float,
                        help="resolution criterion for center ambiguity")
    p_pair.set_defaults(func=cmd_pair)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    config_path = getattr(args, "config", None)
    try:
        if config_path is not None:
            with open(config_path) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"{config_path}: config must be a JSON object")
        return args.func(args, config)
    except (ScanFormatError, PrescriptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularityError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FitConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
