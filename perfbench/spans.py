"""In-memory span tracer for the benchmark's traced runs.

Layers are timed from outside: each entry point in ``WRAPS`` is replaced
on its module by a wrapper that records a span (name, start, end, span id,
parent id, trace id, value) or only bumps a counter. Entry points the
package reaches through module globals are wrapped the same way, so the
call path inside the package is traced without editing it. A wrapped name
that the package no longer has is recorded as absent; the metrics that
depend on it are then left out instead of failing the run.

Standard library only: the CLI child imports this module before it times
``import ionoptics``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

SPAN = "span"
COUNT = "count"


def _n_records(ds):
    for get in (lambda d: len(d.records), len):
        try:
            return get(ds)
        except (AttributeError, TypeError):
            pass
    return None


def _records_out(args, result):
    counts = [_n_records(ds) for ds in (result if isinstance(result, list) else [result])]
    return None if None in counts else sum(counts)


def _records_arg0(args, result):
    return _n_records(args[0])


def _one(args, result):
    return 1


def _lm_iterations(args, result):
    return getattr(result, "n_iter", None)


#: (module, attribute, span name, kind, value recorded on the span).
WRAPS = (
    ("synth_scan", "generate", "synth_scan.generate", SPAN, _records_out),
    ("synth_scan", "_point_rng", "synth_scan._point_rng", COUNT, None),
    ("synth_scan", "p_excited", "rabi_model.p_excited", COUNT, None),
    ("scan_fit", "read_scan_csv", "scan_fit.read_scan_csv", SPAN, _records_out),
    ("scan_fit", "write_scan_csv", "scan_fit.write", SPAN, _records_arg0),
    ("scan_fit", "write_freq_profile_csv", "scan_fit.write", SPAN, _records_arg0),
    ("scan_fit", "write_fit_report", "scan_fit.write", SPAN, _one),
    ("scan_fit", "fit_beam", "scan_fit.fit_beam", SPAN, None),
    ("scan_fit", "initial_guess", "scan_fit.initial_guess", SPAN, None),
    ("scan_fit", "fit_freq_profile", "scan_fit.fit_freq_profile", SPAN, None),
    ("scan_fit", "_levenberg_marquardt", "scan_fit.lm_run", SPAN, _lm_iterations),
    ("scan_fit", "pair_analysis", "scan_fit.pair_analysis", SPAN, None),
    ("system_model", "image_array", "system_model.image_array", SPAN, None),
    ("system_model", "compare_measured_pitch", "system_model.compare_measured_pitch", SPAN, None),
    ("system_model", "image_distance_mm", "system_model.image_distance", SPAN, None),
    ("system_model", "propagate", "beamlab.propagate", SPAN, None),
    ("system_model", "compose", "beamlab.compose", SPAN, None),
    ("design_tradeoff", "crosstalk", "design_tradeoff.eval", SPAN, None),
    ("design_tradeoff", "required_na", "design_tradeoff.eval", SPAN, None),
    # Further library calls of the CLI steps, so that cli.step_self_s
    # leaves them out.
    ("design_tradeoff", "tradeoff_curve", "design_tradeoff.tradeoff_curve", SPAN, None),
    ("design_tradeoff", "min_diameter_for_na", "design_tradeoff.min_diameter_for_na", SPAN, None),
    ("system_model", "reference_prescription", "system_model.reference_prescription", SPAN, None),
    ("scan_fit", "read_fit_report", "scan_fit.read_fit_report", SPAN, None),
)


class Tracer:
    """Collects spans and counts in memory until ``dump``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, t0, t1, id, parent, trace, value)
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self.trace_id = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def record(self, name, t0, t1, parent=None, value=None, span_id=None):
        span_id = self._new_id() if span_id is None else span_id
        self.spans.append((name, t0, t1, span_id, parent, self.trace_id, value))
        return span_id

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _wrap_span(self, fn, name, value_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._new_id()
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.record(name, t0, perf_counter(), parent, None, span_id)
                raise
            t1 = perf_counter()
            self._stack.pop()
            value = None if value_of is None else value_of(args, result)
            self.record(name, t0, t1, parent, value, span_id)
            return result

        return wrapper

    def _wrap_count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, aliases=()):
        """Replace every ``WRAPS`` entry point on its module.

        ``aliases`` are further modules (the CLI) whose globals bound to
        the same function get the same wrapper.
        """
        for mod_name, attr, name, kind, value_of in WRAPS:
            module = importlib.import_module(f"ionoptics.{mod_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            if kind == SPAN:
                wrapper = self._wrap_span(fn, name, value_of)
            else:
                self.counts.setdefault(name, 0)
                wrapper = self._wrap_count(fn, name)
            for target in (module, *aliases):
                if getattr(target, attr, None) is fn:
                    self._restore.append((target, attr, fn))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": sorted(self.absent)}

    def merge(self, dumped: dict, parent: int) -> list[tuple]:
        """Adopt a child process's spans under ``parent``; returns its roots."""
        offset = self._next_id
        roots = []
        for name, t0, t1, span_id, child_parent, _, value in dumped["spans"]:
            span = (name, t0, t1, span_id + offset,
                    parent if child_parent is None else child_parent + offset,
                    self.trace_id, value)
            self.spans.append(span)
            self._next_id = max(self._next_id, span_id + offset)
            if child_parent is None:
                roots.append(span)
        for name, n in dumped["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.absent.update(dumped["absent"])
        return roots


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._new_id()
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.id)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.record(self.name, self.t0, self.t1, self.parent, None, self.id)
        return False


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[1], span[2]))
    out = {}
    for name, t0, t1, span_id, *_ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[span_id] = (t1 - t0) - covered
    return out


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the collected spans and counts.

    Returns ({metric: (value, unit)}, [absent metric names]). A layer the
    workload never calls reads 0; a metric whose entry point is missing,
    or whose recorded value is unavailable, is absent.
    """
    spans, counts, absent_wraps = tracer.spans, tracer.counts, tracer.absent
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    selfs = self_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(metric, unit, needs, compute):
        if any(n in absent_wraps for n in needs):
            absent.append(metric)
            return
        value = compute()
        if value is None:
            absent.append(metric)
        else:
            metrics[metric] = (float(value), unit)

    def dur(name):
        return [s[2] - s[1] for s in by_name.get(name, ())]

    def median(values, scale):
        return statistics.median(values) * scale if values else 0.0

    def per_record(names, scale):
        total = sum(sum(dur(n)) for n in names)
        values = [s[6] for n in names for s in by_name.get(n, ())]
        if None in values:
            return None
        return total / sum(values) * scale if values and sum(values) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fits = by_name.get("scan_fit.fit_beam", [])
    lm = by_name.get("scan_fit.lm_run", [])
    lm_per_fit: dict[int, int] = {}
    for span in lm:
        lm_per_fit[span[4]] = lm_per_fit.get(span[4], 0) + 1
    n_gen = len(by_name.get("synth_scan.generate", []))

    put("synth_scan.generate_us_per_record", "us", ["synth_scan.generate"],
        lambda: per_record(["synth_scan.generate"], 1e6))
    put("rabi_model.p_excited_calls", "count", ["rabi_model.p_excited"],
        lambda: ratio(counts.get("rabi_model.p_excited", 0), n_gen))
    put("synth_scan.rng_constructions", "count", ["synth_scan._point_rng"],
        lambda: ratio(counts.get("synth_scan._point_rng", 0), n_gen))
    put("scan_fit.fit_freq_profile_ms", "ms", ["scan_fit.fit_freq_profile"],
        lambda: median(dur("scan_fit.fit_freq_profile"), 1e3))
    put("scan_fit.initial_guess_ms", "ms", ["scan_fit.initial_guess"],
        lambda: median(dur("scan_fit.initial_guess"), 1e3))
    put("scan_fit.lm_run_ms", "ms", ["scan_fit.lm_run"],
        lambda: median(dur("scan_fit.lm_run"), 1e3))
    put("scan_fit.lm_runs_per_fit", "count", ["scan_fit.lm_run"],
        lambda: ratio(len(lm), len(fits)))
    put("scan_fit.lm_iterations_per_fit", "count", ["scan_fit.lm_run"],
        lambda: None if any(s[6] is None for s in lm)
        else ratio(sum(s[6] for s in lm), len(fits)))
    put("scan_fit.multi_start_frac", "frac", ["scan_fit.lm_run"],
        lambda: ratio(sum(lm_per_fit.get(s[3], 0) > 1 for s in fits), len(fits)))
    put("scan_fit.fit_beam_self_ms", "ms", ["scan_fit.fit_beam"],
        lambda: median([selfs[s[3]] for s in fits], 1e3))
    put("scan_fit.read_scan_csv_us_per_record", "us", ["scan_fit.read_scan_csv"],
        lambda: per_record(["scan_fit.read_scan_csv"], 1e6))
    put("scan_fit.write_us_per_record", "us", ["scan_fit.write"],
        lambda: per_record(["scan_fit.write"], 1e6))
    put("scan_fit.pair_analysis_ms", "ms", ["scan_fit.pair_analysis"],
        lambda: median(dur("scan_fit.pair_analysis"), 1e3))
    put("system_model.image_array_us", "us", ["system_model.image_array"],
        lambda: median(dur("system_model.image_array"), 1e6))
    put("system_model.image_distance_us", "us", ["system_model.image_distance"],
        lambda: median(dur("system_model.image_distance"), 1e6))
    put("system_model.image_solves_per_array", "count",
        ["system_model.image_array", "system_model.image_distance"],
        lambda: ratio(len(by_name.get("system_model.image_distance", [])),
                      len(by_name.get("system_model.image_array", []))))
    put("beamlab.propagate_us", "us", ["beamlab.propagate"],
        lambda: median(dur("beamlab.propagate"), 1e6))
    put("beamlab.compose_us", "us", ["beamlab.compose"],
        lambda: median(dur("beamlab.compose"), 1e6))
    put("design_tradeoff.eval_us", "us", ["design_tradeoff.eval"],
        lambda: median(dur("design_tradeoff.eval"), 1e6))
    return metrics, absent


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(ionoptics import us, part of it spent importing scipy) from -X importtime.

    Lines read ``import time: self | cumulative | name`` with the name
    indented two spaces per nesting level; a module is printed after the
    modules it imported. The scipy part leaves out the ``numpy`` package
    when scipy happens to be the first to import it.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    total = scipy = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _, n in stack]
        if depth == 0 and (name == "ionoptics" or name.startswith("ionoptics.")):
            total += cumulative
        roots = {a.split(".")[0] for a in ancestors}
        if "ionoptics" in roots:
            if name.split(".")[0] == "scipy" and "scipy" not in roots:
                scipy += cumulative
            elif name == "numpy" and "scipy" in roots:
                scipy -= cumulative
        stack.append((depth, name))
    return total, scipy
