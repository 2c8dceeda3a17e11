"""Span tracing around calls into capricep's public functions.

Each call is wrapped at the site where a module imported the callee
(``capricep.design.cascade_phase`` is the name ``_render_unit`` looks
up), so the program itself is unchanged.  A span records its name,
start, end and parent; self time is a span's duration minus the time
covered by its direct children.  Spans are kept in memory and folded
into per-layer totals after each pass.
"""
from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

import capricep.analyzer
import capricep.bands
import capricep.cli
import capricep.design
import capricep.metadata
import capricep.shaping

# The package re-exports the augment() function under the submodule's name.
augment_module = importlib.import_module("capricep.augment")


def _phase_bin_sections(args, kwargs, result):
    sections, _fs, n_fft = args
    return len(sections) * (n_fft // 2 + 1)


def _xcorr_pairs(args, kwargs, result):
    return len(result) * (len(result) - 1) // 2


def _recording_samples(args, kwargs, result):
    return len(args[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (owner, attribute, span name, counter).  The owner is the module (or
# class) through which the caller looks the function up.
PATCHES = [
    (capricep.design, "draw_sections", "design.draw_sections", None),
    (capricep.design, "cascade_phase", "allpass.cascade_phase", _phase_bin_sections),
    (capricep.design, "impulse_response", "allpass.impulse_response", None),
    (capricep.design, "generate_unit", "design.generate_unit", None),
    (capricep.cli, "generate_unit", "design.generate_unit", None),
    (capricep.metadata, "generate_unit", "design.generate_unit", None),
    (augment_module, "generate_unit", "design.generate_unit", None),
    (capricep.cli, "generate_ensemble", "cli.xcorr_ensemble", _xcorr_pairs),
    (capricep.shaping, "generate_ensemble", "design.generate_ensemble", None),
    (capricep.shaping, "ensemble_variance", "shaping.ensemble_variance", None),
    (capricep.shaping, "wasserstein_distance", "shaping.wasserstein_distance", None),
    (capricep.metadata.SessionMetadata, "regenerate_units", "metadata.regenerate_units", None),
    (capricep.cli, "build_test_signal", "sequences.build_test_signal", None),
    (capricep.cli, "run", "simulator.run", None),
    (capricep.cli, "decompose", "analyzer.decompose", _recording_samples),
    (capricep.analyzer, "compress", "analyzer.compress", None),
    (capricep.analyzer, "orthogonalize", "analyzer.orthogonalize", None),
    (capricep.analyzer, "synchronous_average", "analyzer.synchronous_average", None),
    (capricep.bands, "band_powers", "bands.band_powers", None),
    (capricep.cli, "read_wav", "wavio.read_wav", _file_bytes),
    (capricep.cli, "write_wav", "wavio.write_wav", _file_bytes),
    (augment_module, "fftconvolve", "augment.fftconvolve", None),
]


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self._stack = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[4] = counter(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, 0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def totals(self):
        """Per span name: calls, inclusive time, self time and summed count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, count) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["count"] += count
        return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry of PATCHES for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counter in PATCHES:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metric -> (unit, span name(s), field).  "total_s" is
# inclusive span time, "self_s" excludes direct child spans.
LAYER_METRICS = {
    "allpass.cascade_phase_s": ("s", "allpass.cascade_phase", "total_s"),
    "allpass.cascade_phase_calls": ("count", "allpass.cascade_phase", "calls"),
    "allpass.phase_bin_sections": ("count", "allpass.cascade_phase", "count"),
    "allpass.impulse_response_s": ("s", "allpass.impulse_response", "total_s"),
    "design.draw_sections_s": ("s", "design.draw_sections", "total_s"),
    "design.generate_unit_s": ("s", "design.generate_unit", "self_s"),
    "design.units": ("count", "design.generate_unit", "calls"),
    "shaping.ensemble_variance_s": ("s", "shaping.ensemble_variance", "self_s"),
    "shaping.wasserstein_distance_s": ("s", "shaping.wasserstein_distance", "total_s"),
    "cli.xcorr_pairs_s": ("s", "op.xcorr-stats", "self_s"),
    "cli.xcorr_pairs": ("count", "cli.xcorr_ensemble", "count"),
    "metadata.regenerate_units_s": ("s", "metadata.regenerate_units", "total_s"),
    "sequences.build_test_signal_s": ("s", "sequences.build_test_signal", "total_s"),
    "simulator.run_s": ("s", "simulator.run", "total_s"),
    "analyzer.compress_s": ("s", "analyzer.compress", "total_s"),
    "analyzer.orthogonalize_s": ("s", "analyzer.orthogonalize", "total_s"),
    "analyzer.synchronous_average_s": ("s", "analyzer.synchronous_average", "total_s"),
    "analyzer.decompose_s": ("s", "analyzer.decompose", "self_s"),
    "analyzer.recording_samples": ("count", "analyzer.decompose", "count"),
    "bands.band_powers_s": ("s", "bands.band_powers", "total_s"),
    "bands.band_powers_calls": ("count", "bands.band_powers", "calls"),
    "wavio.read_wav_s": ("s", "wavio.read_wav", "total_s"),
    "wavio.write_wav_s": ("s", "wavio.write_wav", "total_s"),
    "wavio.bytes": ("count", ("wavio.read_wav", "wavio.write_wav"), "count"),
    "augment.augment_s": ("s", "op.augment", "self_s"),
    "augment.fftconvolve_s": ("s", "augment.fftconvolve", "total_s"),
    "augment.fftconvolve_calls": ("count", "augment.fftconvolve", "calls"),
}


def layer_values(totals: dict) -> dict:
    """LAYER_METRICS evaluated on one pass's span totals (0 when unused)."""
    out = {}
    for metric, (_, spans, field) in LAYER_METRICS.items():
        names = spans if isinstance(spans, tuple) else (spans,)
        out[metric] = sum(totals[n][field] for n in names if n in totals)
    return out
