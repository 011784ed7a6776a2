"""Per-module spans and counters, recorded from outside the package.

Each wrapper replaces a function on the module namespace the caller looks it
up in (``descent`` and ``zf`` import ``outage_probability`` and friends by
name, so the wrapper goes on ``robustpl.descent.outage_probability``, not on
``robustpl.quadform``).  Spans are kept in memory; a span's self time is its
duration minus the time of the wrapped calls made inside it.  The
benchmark's speed samples are taken out of every span they fall in.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

import robustpl.bench
import robustpl.cli
import robustpl.descent
import robustpl.model
import robustpl.quadform
import robustpl.zf
from robustpl.quadform import ToleranceNotMet
from robustpl.zf import DegenerateSpectrum


@contextlib.contextmanager
def patched(replacements):
    """Replace ``module.name`` with ``make_wrapper(original)`` for every
    (module, name, make_wrapper) in replacements, for the block's duration."""
    saved = []
    try:
        for module, name, make_wrapper in replacements:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make_wrapper(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# layer -> the (module, attribute) pairs its callers look up
LAYERS = {
    "quadform.outage_probability": [(robustpl.descent, "outage_probability"),
                                    (robustpl.zf, "outage_probability")],
    "quadform.cdf_quadrature": [(robustpl.zf, "cdf_quadrature")],
    "model.build_outage_form": [(robustpl.descent, "build_outage_form"),
                                (robustpl.zf, "build_outage_form")],
    "model.psd_sqrt": [(robustpl.model, "psd_sqrt"),
                       (robustpl.model, "psd_inv_sqrt"),
                       (robustpl.zf, "psd_sqrt"),
                       (robustpl.quadform, "psd_sqrt")],
    "model.build_pcsi_directions": [(robustpl.bench, "build_pcsi_directions")],
    "model.build_beamformer": [(robustpl.bench, "build_rci"),
                               (robustpl.bench, "build_zf")],
    "descent.solve_general": [(robustpl.bench, "solve_general"),
                              (robustpl.descent, "solve_general")],
    "zf.residue_probability": [(robustpl.zf, "residue_probability")],
    "zf.solve_zf_coord_descent": [(robustpl.zf, "solve_zf_coord_descent")],
    "zf.solve_zf_coord_update": [(robustpl.zf, "solve_zf_coord_update")],
    "bench.run_trial": [(robustpl.bench, "run_trial")],
    "cli.export": [(robustpl.cli, "export_records"),
                   (robustpl.cli, "aggregate"),
                   (robustpl.cli, "export_summary")],
}


class Tracer:
    """Durations, self times and counters per layer."""

    def __init__(self):
        self.durations = {layer: [] for layer in LAYERS}
        self.self_times = {layer: [] for layer in LAYERS}
        self.counts = {"tail_shortcuts": 0, "tolerance_not_met": 0,
                       "degenerate_spectra": 0}
        self.reports = []
        self._stack = []

    def exclude(self, seconds: float):
        """Take time spent outside the program (speed samples) out of every
        open span."""
        for frame in self._stack:
            frame[1] += seconds

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([0.0, 0.0])  # time in wrapped calls, excluded
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ToleranceNotMet:
                if layer.startswith("quadform."):
                    self.counts["tolerance_not_met"] += 1
                raise
            except DegenerateSpectrum:
                if layer == "zf.residue_probability":
                    self.counts["degenerate_spectra"] += 1
                raise
            finally:
                child, excluded = self._stack.pop()
                elapsed = time.perf_counter() - t0 - excluded
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.durations[layer].append(elapsed)
                self.self_times[layer].append(elapsed - child)
            if layer == "quadform.outage_probability" and \
                    result.value in (0.0, 1.0) and result.abs_error_bound > 0:
                self.counts["tail_shortcuts"] += 1
            if layer == "descent.solve_general":
                self.reports.append(result)
            return result
        return wrapper

    def installed(self):
        """Context manager that wraps every layer of LAYERS."""
        return patched([(module, name, functools.partial(self._wrap, layer))
                        for layer, pairs in LAYERS.items()
                        for module, name in pairs])

    def metrics(self) -> dict:
        def p50_ms(layer):
            d = self.durations[layer]
            return float(np.median(d)) * 1e3 if d else 0.0

        def calls(layer):
            return len(self.durations[layer])

        def busy(layer):
            return float(sum(self.durations[layer]))

        def report_p50(attr):
            vals = [getattr(r, attr) for r in self.reports]
            return float(np.median(vals)) if vals else 0.0

        op = "quadform.outage_probability"
        res = "zf.residue_probability"
        return {
            f"{op}.calls": (calls(op), "count"),
            f"{op}.ms_p50": (p50_ms(op), "ms"),
            f"{op}.busy_s": (busy(op), "s"),
            "quadform.tail_shortcuts": (self.counts["tail_shortcuts"], "count"),
            "quadform.tolerance_not_met": (self.counts["tolerance_not_met"], "count"),
            "quadform.cdf_quadrature.fallback_calls":
                (calls("quadform.cdf_quadrature"), "count"),
            "model.build_outage_form.calls": (calls("model.build_outage_form"), "count"),
            "model.build_outage_form.ms_p50": (p50_ms("model.build_outage_form"), "ms"),
            "model.psd_sqrt.calls": (calls("model.psd_sqrt"), "count"),
            "model.build_pcsi_directions.ms_p50":
                (p50_ms("model.build_pcsi_directions"), "ms"),
            "descent.solve_general.ms_p50": (p50_ms("descent.solve_general"), "ms"),
            "descent.evals_per_solve_p50": (report_p50("integral_evals"), "count"),
            "descent.bisection_steps_per_solve_p50":
                (report_p50("bisection_steps"), "count"),
            "descent.cycles_per_solve_p50": (report_p50("cycles"), "count"),
            f"{res}.calls": (calls(res), "count"),
            f"{res}.ms_p50": (p50_ms(res), "ms"),
            f"{res}.busy_s": (busy(res), "s"),
            "zf.degenerate_spectra": (self.counts["degenerate_spectra"], "count"),
            "zf.solve_zf_coord_descent.ms_p50":
                (p50_ms("zf.solve_zf_coord_descent"), "ms"),
            "zf.solve_zf_coord_update.ms_p50":
                (p50_ms("zf.solve_zf_coord_update"), "ms"),
            "bench.run_trial.ms_p50": (p50_ms("bench.run_trial"), "ms"),
            # run_trial's direct wrapped children are exactly its solver and
            # beamformer calls, so its self time is the harness's own time
            "bench.harness_s": (float(sum(self.self_times["bench.run_trial"])), "s"),
            "cli.export_s": (busy("cli.export"), "s"),
        }
