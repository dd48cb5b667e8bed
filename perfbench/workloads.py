"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``prepare``
(which also warms the process up), runs one unit of work in ``run_op``
and verifies that unit's outputs in ``check``. ``run_op`` returns the
result and the durations of the workload's inner call (one ``fit``
invocation, one ``fit_beam``, one ``image_array``); ``check`` raises
``WrongOutput`` on a wrong result and otherwise returns
(results within tolerance of the truth, results judged).

Library functions are looked up on their modules at call time, so the
traced run's wrappers (spans.WRAPS) see the benchmark's calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from ionoptics import design_tradeoff, scan_fit, synth_scan, system_model
from ionoptics.rabi_model import BeamProfileParams, SpamModel

import spans

TWO_PI = 2.0 * math.pi

#: The acceptance test_4 beams (README pipeline and recovery sweep).
REFERENCE_BEAMS = (
    BeamProfileParams(omega0=TWO_PI * 1910.0, center_um=0.0, width_um=1.86),
    BeamProfileParams(omega0=TWO_PI * 2790.0, center_um=4.31, width_um=1.88),
)
#: Fits within this share of the runs' fits must recover the truth (test_4: 18/20).
MIN_RECOVERY = 0.9
WARMUP_OPS = 3


class WrongOutput(Exception):
    """An operation finished but its output is wrong."""


def within_test4(omega0: float, center_um: float, width_um: float,
                 truth: BeamProfileParams) -> bool:
    """Acceptance test_4 tolerances: 2% on Omega0 and w0, 0.05 um on the center."""
    return bool(abs(omega0 / truth.omega0 - 1.0) <= 0.02
                and abs(width_um / truth.width_um - 1.0) <= 0.02
                and abs(center_um - truth.center_um) <= 0.05)


def _check_fit(fit) -> None:
    p = fit.params
    values = (p.omega0, p.center_um, p.width_um, *np.diag(fit.covariance))
    if not fit.converged or not all(math.isfinite(v) for v in values):
        raise WrongOutput(f"fit {fit.beam_label!r} did not converge to finite values")


def _positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise WrongOutput(f"{name} = {value!r} is not finite and positive")


class Workload:
    """Inputs from ``seed`` under ``work``; subprocesses get ``env``."""

    in_process = True
    min_recovery = None  # least share of results within tolerance
    trace_ops = 2  # ops a traced run times untraced and traced; fixed, so counts repeat

    def __init__(self, root: Path, work: Path, seed: int, env: dict):
        self.root, self.work, self.seed, self.env = root, work, seed, env
        self.tracer = None  # set by the runner while a CLI pass is traced

    def warm_up(self) -> None:
        for i in range(WARMUP_OPS):
            result, _ = self.run_op(-1 - i)
            self.check(result)


class CliPipeline(Workload):
    """Repeated passes of the six README CLI steps, one subprocess at a time."""

    name = "cli_pipeline"
    in_process = False
    min_recovery = MIN_RECOVERY

    def __init__(self, *args):
        super().__init__(*args)
        self.reference_digests = None
        self.step_import_s: list[float] = []
        self.step_scipy_share: list[float] = []
        self.step_self_s: list[float] = []

    def steps(self, out: str) -> list[tuple[str, list[str]]]:
        return [
            ("design", ["design", "--out-dir", out, "--na-cap", "0.24",
                        "--neighbor-distance", "5.0"]),
            ("propagate", ["propagate", "--out-dir", out, "--channels", "10",
                           "--measured-pitch", "4.4", "--measured-pitch-err", "0.05"]),
            ("synth", ["synth", "--out-dir", out, "--seed", str(self.seed),
                       "--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
                       "--width-um", "1.86", "1.88", "--emit-traces"]),
            ("fit", ["fit", f"{out}/scan_A.csv", "--out-dir", out]),
            ("fit", ["fit", f"{out}/scan_B.csv", "--out-dir", out]),
            ("pair", ["pair", "--out-dir", out,
                      "--fit-a", f"{out}/scan_A_report.json",
                      "--fit-b", f"{out}/scan_B_report.json",
                      "--trace-a", f"{out}/trace_A.csv",
                      "--trace-b", f"{out}/trace_B.csv"]),
        ]

    def _cli(self, args: list[str], python_flags=()) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *python_flags, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True)

    def prepare(self) -> None:
        # Process start-up and import, which every step pays; also compiles
        # the bytecode once, outside the timed passes.
        proc = self._cli(["-m", "ionoptics.cli", "--version"])
        if proc.returncode != 0:
            raise RuntimeError(f"ionoptics --version failed: {proc.stderr.strip()}")

    def run_op(self, i: int):
        out = self.work / f"pass{i}"
        steps = []
        fit_s = []
        for name, args in self.steps(str(out.relative_to(self.root))):
            if self.tracer is None:
                t0 = perf_counter()
                proc = self._cli(["-m", "ionoptics.cli", *args])
                dt = perf_counter() - t0
            else:
                proc, dt = self._traced_step(name, args)
            steps.append((name, proc.returncode, proc.stderr))
            if name == "fit":
                fit_s.append(dt)
        return (out, steps), fit_s

    def _traced_step(self, name: str, args: list[str]):
        child = Path(__file__).with_name("cli_child.py")
        dump = self.work / "child_spans.json"
        dump.unlink(missing_ok=True)
        with self.tracer.span(f"cli.{name}") as step:
            proc = self._cli([str(child), str(dump), *args], python_flags=("-X", "importtime"))
        wall = step.t1 - step.t0
        child_trace = json.loads(dump.read_text())
        roots = self.tracer.merge(child_trace, parent=step.id)
        library_s = sum(t1 - t0 for _, t0, t1, *_ in roots)
        import_total, scipy = spans.parse_importtime(proc.stderr)
        self.step_import_s.append(child_trace["import_s"])
        self.step_scipy_share.append(scipy / import_total if import_total else 0.0)
        self.step_self_s.append(wall - child_trace["import_s"] - library_s)
        return proc, wall

    def check(self, result):
        out, steps = result
        for name, rc, stderr in steps:
            if rc != 0:
                raise WrongOutput(f"{name} exited {rc}: {stderr.strip()[-500:]}")
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file() and not p.name.endswith("_manifest.json")
        }
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            changed = sorted(k for k in digests.keys() | self.reference_digests.keys()
                             if digests.get(k) != self.reference_digests.get(k))
            raise WrongOutput(f"data files differ from the first pass: {changed}")

        image = json.loads((out / "image_report.json").read_text())
        for key, target in (("axial", 1.90), ("radial", 9.52)):
            if abs(image[key]["diameter_um"] / target - 1.0) > 0.01:
                raise WrongOutput(f"{key} diameter {image[key]['diameter_um']} != {target} +-1%")
        if abs(image["pitch_um"] / 4.28 - 1.0) > 0.01:
            raise WrongOutput(f"pitch {image['pitch_um']} != 4.28 +-1%")
        if not any("differ" in note for note in image["notes"]):
            raise WrongOutput("image report lacks the astigmatic-plane note")
        if "pitch_discrepancy" not in image:
            raise WrongOutput("image report lacks the pitch discrepancy")

        pair = json.loads((out / "pair_report.json").read_text())
        if abs(pair["separation_um"] - 4.31) > 0.05:
            raise WrongOutput(f"separation {pair['separation_um']} um != 4.31 +-0.05")
        within = 0
        for label, truth in zip("AB", REFERENCE_BEAMS):
            report = json.loads((out / f"scan_{label}_report.json").read_text())
            p = report["params"]
            within += within_test4(p["peak_rabi_hz"] * TWO_PI, p["center_um"],
                                   p["width_um"], truth)
        shutil.rmtree(out)
        return within, 2

    def layer_metrics(self) -> dict:
        def median(values):
            return statistics.median(values) if values else 0.0

        return {
            "import.ionoptics_s": (median(self.step_import_s), "s"),
            "import.scipy_share": (median(self.step_scipy_share), "frac"),
            "cli.step_self_s": (statistics.fmean(self.step_self_s) if self.step_self_s
                                else 0.0, "s"),
        }

    def named(self, m: dict) -> list:
        return [("pipeline_s", m["op_p50_ms"] / 1e3, "s"),
                ("passes_per_s", m["ops_per_s"], "1/s"),
                ("fit_cli_s", m["call_p50_ms"] / 1e3, "s")]


class RecoverySweep(Workload):
    """The acceptance test_4 flow over consecutive synthesis seeds."""

    name = "recovery_sweep"
    min_recovery = MIN_RECOVERY
    trace_ops = 10

    def prepare(self) -> None:
        self.grid = synth_scan.default_scan_grid(REFERENCE_BEAMS, 61, 21)
        self.warm_up()

    def run_op(self, i: int):
        positions, durations = self.grid
        config = synth_scan.SynthConfig(
            truth=REFERENCE_BEAMS, positions_um=positions, durations_s=durations,
            shots=200, rng_seed=self.seed * 100_000 + 50_000 + i,
        )
        ds_a, ds_b = synth_scan.generate(config)
        t0 = perf_counter()
        fit_a = scan_fit.fit_beam(ds_a)
        t1 = perf_counter()
        fit_b = scan_fit.fit_beam(ds_b)
        t2 = perf_counter()
        pair = scan_fit.pair_analysis(fit_a, fit_b)
        return (fit_a, fit_b, pair), [t1 - t0, t2 - t1]

    def check(self, result):
        fit_a, fit_b, pair = result
        within = 0
        for fit, truth in zip((fit_a, fit_b), REFERENCE_BEAMS):
            _check_fit(fit)
            within += within_test4(fit.params.omega0, fit.params.center_um,
                                   fit.params.width_um, truth)
        _positive(separation_um=pair.separation_um)
        return within, 2

    def named(self, m: dict) -> list:
        return [("seed_p50_ms", m["op_p50_ms"], "ms"),
                ("seeds_per_s", m["ops_per_s"], "1/s"),
                ("fit_p50_ms", m["call_p50_ms"], "ms"),
                ("fit_tail_ms", m["call_tail_ms"], "ms")]


class SpamMismatch(Workload):
    """Refits of single-beam scans whose SPAM (0.08) differs from the fit's (0.01)."""

    name = "spam_mismatch"
    min_recovery = MIN_RECOVERY
    trace_ops = 8
    scan_spam = SpamModel(eps_prep=0.08, eps_meas=0.08)
    # Fixed beams, so that the seed changes only the shot noise: the LM work
    # depends on the beam, and drawn beams would add to the run-to-run spread.
    truths = (*REFERENCE_BEAMS,
              BeamProfileParams(omega0=TWO_PI * 1500.0, center_um=-0.5, width_um=2.2),
              BeamProfileParams(omega0=TWO_PI * 2400.0, center_um=0.7, width_um=1.6))

    def prepare(self) -> None:
        out = self.work / "spam"
        out.mkdir(parents=True, exist_ok=True)
        self.scans = []
        for k, truth in enumerate(self.truths):
            positions, durations = synth_scan.default_scan_grid(truth, 121, 41)
            ds, = synth_scan.generate(synth_scan.SynthConfig(
                truth=truth, positions_um=positions, durations_s=durations,
                shots=200, spam=self.scan_spam, rng_seed=self.seed * 1000 + k,
            ))
            path = out / f"scan_{k}.csv"
            scan_fit.write_scan_csv(ds, path)
            self.scans.append((path, truth))
        self.warm_up()

    def run_op(self, i: int):
        path, truth = self.scans[i % len(self.scans)]
        data = scan_fit.read_scan_csv(path)
        t0 = perf_counter()
        fit = scan_fit.fit_beam(data)
        t1 = perf_counter()
        report = path.with_name(f"{path.stem}_report.json")
        scan_fit.write_fit_report(fit, report)
        scan_fit.write_freq_profile_csv(fit.freq_profile, path.with_name(f"{path.stem}_profile.csv"))
        return (fit, truth, report), [t1 - t0]

    def check(self, result):
        fit, truth, report = result
        _check_fit(fit)
        params, _, _ = scan_fit.read_fit_report(report)
        if not np.allclose([params.omega0, params.center_um, params.width_um],
                           [fit.params.omega0, fit.params.center_um, fit.params.width_um],
                           rtol=1e-9, atol=1e-12):
            raise WrongOutput(f"{report.name} does not hold the fitted parameters")
        within = within_test4(fit.params.omega0, fit.params.center_um,
                              fit.params.width_um, truth)
        return within, 1

    def named(self, m: dict) -> list:
        return [("refit_p50_ms", m["op_p50_ms"], "ms"),
                ("fits_per_s", m["ops_per_s"], "1/s"),
                ("fit_p50_ms", m["call_p50_ms"], "ms"),
                ("fit_tail_ms", m["call_tail_ms"], "ms")]


class DesignSweep(Workload):
    """Monte-Carlo tolerance study of the reference telescope (1% draws)."""

    name = "design_sweep"
    n_variants = 4096
    trace_ops = 2000
    measured_pitch_um, measured_err_um = 4.4, 0.05

    def prepare(self) -> None:
        ref = system_model.reference_prescription()
        rng = np.random.default_rng([self.seed, 2])
        draws = rng.normal(0.0, 0.01, size=(self.n_variants, len(ref.elements)))
        self.variants = [
            dataclasses.replace(ref, name=f"{ref.name}-v{v}", elements=tuple(
                dataclasses.replace(e, value_mm=e.value_mm * (1.0 + float(d)))
                for e, d in zip(ref.elements, row)
            ))
            for v, row in enumerate(draws)
        ]
        self.array = system_model.BeamArraySpec(
            source_diameter_um=200.0, source_pitch_um=450.0, channel_count=10)
        self.warm_up()

    def run_op(self, i: int):
        prescription = self.variants[i % self.n_variants]
        t0 = perf_counter()
        report = system_model.image_array(prescription, self.array)
        t1 = perf_counter()
        disc = system_model.compare_measured_pitch(
            report, self.measured_pitch_um, self.measured_err_um)
        xt = design_tradeoff.crosstalk(report.axial.diameter_um, report.pitch_um)
        na = design_tradeoff.required_na(report.axial.diameter_um)
        return (report, disc, xt, na), [t1 - t0]

    def check(self, result):
        report, disc, xt, na = result
        _positive(
            axial_magnification=report.axial.magnification,
            radial_magnification=report.radial.magnification,
            axial_diameter_um=report.axial.diameter_um,
            radial_diameter_um=report.radial.diameter_um,
            radial_diameter_at_axial_plane_um=report.radial_diameter_at_axial_plane_um,
            pitch_um=report.pitch_um,
            required_na=na,
        )
        if not 0.0 <= xt <= 1.0:
            raise WrongOutput(f"crosstalk {xt!r} outside [0, 1]")
        return int(disc.within), 1

    def named(self, m: dict) -> list:
        return [("designs_per_s", m["ops_per_s"], "1/s"),
                ("design_p50_us", m["op_p50_ms"] * 1e3, "us"),
                ("image_array_p50_us", m["call_p50_ms"] * 1e3, "us")]


WORKLOADS = {w.name: w for w in (CliPipeline, RecoverySweep, SpamMismatch, DesignSweep)}
