"""Command-line interface.

Five subcommands cover the workflow: ``design`` (crosstalk/NA tradeoff
curve), ``propagate`` (image-plane report for a prescription), ``synth``
(synthetic scan datasets), ``fit`` (scan fit report + frequency profile),
and ``pair`` (two-beam separation and crosstalk bounds).

Each option and its default is declared once, in the subcommand's parser.
A config file (--config, JSON object keyed by option name with dashes as
underscores) replaces those defaults, so values resolve as command line >
config file > built-in default.

Each subcommand ends in ``_finish``, the one write path: it writes the
step's files in order, then ``<subcommand>_manifest.json`` (``fit`` writes
``<prefix>_fit_manifest.json``, so fits of several scans keep theirs)
recording the resolved options, the inputs, the outputs in write order,
the Python and numpy versions, and a timestamp; timestamps live only in
the manifest so data files are byte-identical across reruns. Data files
and manifests are all written atomically (temporary file, then rename).

Each subcommand imports the library modules it runs when it runs, so
``--version``, ``design`` and ``propagate`` never load numpy.

Each subcommand computes every output, and runs every check, before it
writes its first file, so a step that fails leaves no output behind. No
JSON output holds NaN or Infinity: a value that is not finite is an error.

Exit codes: 0 success; 1 I/O failure; 2 invalid arguments, config, or
input data, including non-finite option values and numbers too large to
compute with; 3 numerical failure (non-convergent fit, prescription with
no image plane). A non-convergent fit still writes its best-so-far report
before exiting.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._atomic import _read_json, _write_atomic, _write_json
from .beamlab import _WAVELENGTH_UM, SingularityError

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: Seed salt for off-beam trace datasets so they never reuse scan draws.
_TRACE_SALT = 0x74726163

#: Namespace entries that are not options of the subcommand.
_NOT_OPTIONS = ("subcommand", "config", "func")


def _finish(args: argparse.Namespace, inputs: list[str], writes: dict, prefix: str = "") -> None:
    """Write a step's files, in order, and then its manifest.

    ``writes`` maps each file name to a function that writes the file at
    the path it is given. The manifest, ``<prefix><subcommand>_manifest.json``,
    comes last and lists exactly the files written, in write order; a
    write that fails leaves no manifest.
    """
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in writes.items():
        write(out / name)
    # Read from sys, not platform: importing platform costs each step ~2 ms.
    # numpy is recorded only if the step loaded it; looking never imports it.
    numpy = sys.modules.get("numpy")
    _write_json(out / f"{prefix}{args.subcommand}_manifest.json", {
        "subcommand": args.subcommand,
        "version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": getattr(numpy, "__version__", None),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "options": {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS},
        "inputs": inputs,
        "outputs": list(writes),
    })


def _fmt_row(*values) -> str:
    return ",".join(f"{v:.10g}" for v in values)


# === design =================================================================


def cmd_design(args: argparse.Namespace) -> int:
    from .design_tradeoff import (
        DesignConstraints, crosstalk, min_diameter_for_na, required_na, tradeoff_curve,
    )

    lo, hi = args.diameter_range
    constraints = DesignConstraints(
        wavelength_um=args.wavelength,
        neighbor_distance_um=args.neighbor_distance,
        na_cap=args.na_cap,
    )
    points = tradeoff_curve(constraints, (lo, hi), args.samples)
    lines = ["diameter_um,required_na,crosstalk"]
    for pt in points:
        lines.append(_fmt_row(pt.beam_diameter_um, pt.required_na, pt.crosstalk))

    boundary = min_diameter_for_na(constraints.na_cap, constraints.wavelength_um)
    summary = {
        "wavelength_um": constraints.wavelength_um,
        "neighbor_distance_um": constraints.neighbor_distance_um,
        "na_cap": constraints.na_cap,
        "diameter_range_um": [lo, hi],
        "samples": args.samples,
        "boundary_diameter_um": boundary,
        "boundary_crosstalk": crosstalk(boundary, constraints.neighbor_distance_um),
        "boundary_required_na": required_na(boundary, constraints.wavelength_um),
        "boundary_in_range": lo < boundary < hi,
        "rows": len(points),
    }
    _finish(args, [], {
        # the summary first: its strict JSON encoding is the last check
        "design_summary.json": lambda path: _write_json(path, summary),
        "design_curve.csv": lambda path: _write_atomic(path, "\n".join(lines) + "\n"),
    })
    return EXIT_OK


# === propagate ==============================================================


def cmd_propagate(args: argparse.Namespace) -> int:
    from .system_model import (
        BeamArraySpec, compare_measured_pitch, image_array, load_prescription,
        reference_prescription,
    )

    if (args.measured_pitch is None) != (args.measured_pitch_err is None):
        raise ValueError("--measured-pitch and --measured-pitch-err must be given together")
    inputs = []
    if args.prescription is None:
        prescription = reference_prescription()
    else:
        prescription = load_prescription(args.prescription)
        inputs.append(str(args.prescription))
    array = BeamArraySpec(
        source_diameter_um=args.source_diameter,
        source_pitch_um=args.source_pitch,
        channel_count=args.channels,
    )
    report = image_array(prescription, array, wavelength_um=args.wavelength)
    payload = dataclasses.asdict(report)
    if args.measured_pitch is not None:
        disc = compare_measured_pitch(report, args.measured_pitch, args.measured_pitch_err)
        payload["pitch_discrepancy"] = dataclasses.asdict(disc)
    _finish(args, inputs, {"image_report.json": lambda path: _write_json(path, payload)})
    return EXIT_OK


# === synth ==================================================================


def cmd_synth(args: argparse.Namespace) -> int:
    from .rabi_model import BeamProfileParams, SpamModel
    from .scan_fit import TWO_PI, write_scan_csv
    from .synth_scan import SynthConfig, default_scan_grid, generate, position_jitter

    if not (len(args.rabi_hz) == len(args.center_um) == len(args.width_um)):
        raise ValueError(
            f"--rabi-hz/--center-um/--width-um must have equal counts, "
            f"got {len(args.rabi_hz)}/{len(args.center_um)}/{len(args.width_um)}"
        )
    if args.emit_traces and len(args.rabi_hz) != 2:
        raise ValueError("--emit-traces requires two beams")
    truth = tuple(
        BeamProfileParams(omega0=r * TWO_PI, center_um=c, width_um=w)
        for r, c, w in zip(args.rabi_hz, args.center_um, args.width_um)
    )
    if args.positions is not None and args.durations_us is not None:
        positions = args.positions
        durations = tuple(v * 1e-6 for v in args.durations_us)
    elif args.positions is None and args.durations_us is None:
        positions, durations = default_scan_grid(truth, args.grid_positions, args.grid_durations)
    else:
        raise ValueError("--positions and --durations-us must be given together")
    synth = SynthConfig(
        truth=truth,
        positions_um=positions,
        durations_s=durations,
        shots=args.shots,
        spam=SpamModel(eps_prep=args.spam_prep, eps_meas=args.spam_meas),
        rng_seed=args.seed,
        analytic=args.analytic,
    )
    datasets = generate(synth)
    if args.jitter_resolution is not None:
        datasets = [position_jitter(ds, args.jitter_resolution, args.seed) for ds in datasets]
    files = {f"scan_{ds.beam_label}.csv": ds for ds in datasets}

    if args.emit_traces:
        # Off-beam response: drive one beam, record at the neighbor's center.
        for label, (driven, other) in zip("AB", ((truth[0], truth[1]), (truth[1], truth[0]))):
            trace_cfg = dataclasses.replace(synth, truth=(driven,),
                                            positions_um=(other.center_um,),
                                            rng_seed=args.seed ^ _TRACE_SALT)
            files[f"trace_{label}.csv"] = generate(trace_cfg)[0]
    _finish(args, [], {name: functools.partial(write_scan_csv, ds) for name, ds in files.items()})
    return EXIT_OK


# === fit ====================================================================


def cmd_fit(args: argparse.Namespace) -> int:
    from .scan_fit import (
        FitConvergenceError, fit_beam, read_scan_csv, write_fit_report, write_freq_profile_csv,
    )

    if args.scan is None:
        raise ValueError("fit requires a scan CSV path")
    scan_path = Path(args.scan)
    data = read_scan_csv(scan_path)
    prefix = args.prefix or scan_path.stem

    status = EXIT_OK
    try:
        result = fit_beam(data, max_iterations=args.max_iterations)
    except FitConvergenceError as exc:
        result = exc.result
        print(f"fit did not converge: {exc}", file=sys.stderr)
        status = EXIT_NUMERICAL
    _finish(args, [str(scan_path)], {
        f"{prefix}_report.json": functools.partial(write_fit_report, result),
        f"{prefix}_profile.csv": functools.partial(write_freq_profile_csv, result.freq_profile),
    }, prefix=f"{prefix}_")
    return status


# === pair ===================================================================


def cmd_pair(args: argparse.Namespace) -> int:
    from .scan_fit import _read_fit_report, pair_analysis, read_scan_csv

    if args.fit_a is None or args.fit_b is None:
        raise ValueError("pair requires --fit-a and --fit-b report paths")
    result_a, _ = _read_fit_report(args.fit_a)
    result_b, _ = _read_fit_report(args.fit_b)
    trace_paths = (args.trace_a, args.trace_b)
    traces = tuple(None if path is None else read_scan_csv(path) for path in trace_paths)
    inputs = [str(path) for path in (args.fit_a, args.fit_b, *trace_paths) if path is not None]
    report = pair_analysis(
        result_a,
        result_b,
        traces_at_centers=traces,
        observation_window_s=args.window_s,
        detection_floor=args.floor,
    )
    payload = dataclasses.asdict(report)
    _finish(args, inputs, {"pair_report.json": lambda path: _write_json(path, payload)})
    return EXIT_OK


# === Parser =================================================================


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, keyed by name."""
    parser = argparse.ArgumentParser(
        prog="ionoptics",
        description="Addressing-optics design, propagation, and scan analysis tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--config", help="JSON file of option defaults")
    # Every option has help text, so --help lists every default.
    shared = {"parents": [common], "formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p_design = sub.add_parser("design", help="crosstalk vs numerical-aperture tradeoff curve",
                              **shared)
    p_design.add_argument("--wavelength", type=float, default=_WAVELENGTH_UM, help="wavelength, um")
    p_design.add_argument("--neighbor-distance", type=float, default=5.0,
                          help="site separation, um")
    p_design.add_argument("--na-cap", type=float, default=0.24,
                          help="largest numerical aperture the optics reach")
    p_design.add_argument("--diameter-range", nargs=2, type=float, default=[1.0, 10.0],
                          metavar=("LO", "HI"), help="beam diameters swept, um")
    p_design.add_argument("--samples", type=int, default=181, help="diameters on the curve")
    p_design.set_defaults(func=cmd_design)

    p_prop = sub.add_parser("propagate", help="image-plane report for an optical prescription",
                            **shared)
    p_prop.add_argument("--prescription",
                        help="prescription JSON; none means the built-in reference train")
    p_prop.add_argument("--wavelength", type=float, default=_WAVELENGTH_UM, help="wavelength, um")
    p_prop.add_argument("--source-diameter", type=float, default=200.0,
                        help="beam diameter at the source plane, um")
    p_prop.add_argument("--source-pitch", type=float, default=450.0,
                        help="beam pitch at the source plane, um")
    p_prop.add_argument("--channels", type=int, default=10, help="number of beams")
    p_prop.add_argument("--measured-pitch", type=float,
                        help="measured image-plane pitch to compare against, um")
    p_prop.add_argument("--measured-pitch-err", type=float,
                        help="uncertainty of --measured-pitch, um")
    p_prop.set_defaults(func=cmd_propagate)

    p_synth = sub.add_parser("synth", help="synthetic scan datasets with shot noise", **shared)
    p_synth.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_synth.add_argument("--rabi-hz", nargs="+", type=float, default=[2000.0],
                         help="peak Rabi frequency per beam, Hz (1 or 2 values)")
    p_synth.add_argument("--center-um", nargs="+", type=float, default=[0.0],
                         help="beam center per beam, um")
    p_synth.add_argument("--width-um", nargs="+", type=float, default=[2.0],
                         help="beam waist w0 per beam, um")
    p_synth.add_argument("--shots", type=int, default=200, help="shots per record")
    p_synth.add_argument("--spam-prep", type=float, default=0.01, help="state-preparation error")
    p_synth.add_argument("--spam-meas", type=float, default=0.01, help="measurement error")
    p_synth.add_argument("--analytic", action="store_true",
                         help="store exact probabilities instead of binomial draws")
    p_synth.add_argument("--positions", nargs="+", type=float, help="explicit position grid, um")
    p_synth.add_argument("--durations-us", nargs="+", type=float,
                         help="explicit duration grid, us")
    p_synth.add_argument("--grid-positions", type=int, default=61,
                         help="positions on the default grid")
    p_synth.add_argument("--grid-durations", type=int, default=21,
                         help="durations on the default grid")
    p_synth.add_argument("--jitter-resolution", type=float,
                         help="blur recorded positions by this stage resolution, um")
    p_synth.add_argument("--emit-traces", action="store_true",
                         help="also write off-beam traces (two beams)")
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit", help="fit a scan CSV, write report and frequency profile",
                           **shared)
    p_fit.add_argument("scan", nargs="?", help="scan CSV path")
    p_fit.add_argument("--max-iterations", type=int, default=200,
                       help="Levenberg-Marquardt iteration limit per start")
    p_fit.add_argument("--prefix", help="output name prefix; none means the scan file stem")
    p_fit.set_defaults(func=cmd_fit)

    p_pair = sub.add_parser("pair", help="separation and crosstalk bounds for two fitted beams",
                            **shared)
    p_pair.add_argument("--fit-a", help="fit report JSON, first beam")
    p_pair.add_argument("--fit-b", help="fit report JSON, second beam")
    p_pair.add_argument("--trace-a", help="scan CSV recorded at beam B's center while driving A")
    p_pair.add_argument("--trace-b", help="scan CSV recorded at beam A's center while driving B")
    p_pair.add_argument("--window-s", type=float, default=2.5e-3,
                        help="observation window for the crosstalk bound, s")
    p_pair.add_argument("--floor", type=float, default=0.01, help="excitation detection floor")
    p_pair.set_defaults(func=cmd_pair)
    return parser, {"design": p_design, "propagate": p_prop, "synth": p_synth,
                    "fit": p_fit, "pair": p_pair}


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """Load a config file and parse each value as the command line parses the option."""
    config = _read_json(path, ValueError)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    options = {action.dest: action for action in parser._actions
               if action.default is not argparse.SUPPRESS and action.dest not in _NOT_OPTIONS}
    unknown = set(config) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return {key: _config_value(options[key], value) for key, value in config.items()}


def _config_value(action: argparse.Action, value):
    """A config value checked against the option's nargs and parsed by its type.

    A flag takes only true or false, and no other option takes either. A
    null leaves an option unset only where its default is unset.
    """
    key = action.dest
    if action.nargs == 0:  # a flag
        if not isinstance(value, bool):
            raise ValueError(f"config key {key}: expected true or false, got {value!r}")
        return value
    if value is None and action.default is None:
        return None
    if action.nargs in (None, "?"):
        return _config_element(key, action.type, value)
    if not isinstance(value, list) or not value or (
            isinstance(action.nargs, int) and len(value) != action.nargs):
        count = "one or more" if action.nargs == "+" else action.nargs
        raise ValueError(f"config key {key}: expected a list of {count} values, got {value!r}")
    return [_config_element(key, action.type, v) for v in value]


def _config_element(key: str, type_, value):
    """One config value parsed as its command-line text would be.

    A number is parsed from ``str(value)``, except that an integer option
    keeps a number that is not an integer, so the step rejects it in its
    own words.
    """
    if isinstance(value, bool):
        raise ValueError(f"config key {key}: only a flag takes true or false, got {value!r}")
    if not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key}: expected a string or a number, got {value!r}")
    if not isinstance(value, str):
        if type_ is int and not isinstance(value, int):
            return value
        value = str(value)
    if type_ is None:
        return value
    try:
        return type_(value)
    except ValueError:
        raise ValueError(
            f"config key {key}: invalid {type_.__name__} value: {value!r}") from None


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            subparser = subparsers[args.subcommand]
            subparser.set_defaults(**_read_config(args.config, subparser))
            # argparse sets defaults before it reads the command line, so a
            # second parse is what lets the command line override the config
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        # Only absurd magnitudes overflow (a sample count of 10^400, say).
        print(f"error: an input is out of floating-point range ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularityError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
