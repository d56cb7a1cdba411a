"""Traced run of one CLI invocation, span by span.

``replay`` calls the real ``qdisk.cli.main(argv)`` while the public
functions of each layer are wrapped where the program looks them up, so
every call into a layer gets a span:

    cli                    the whole invocation; its self time is argument
                           handling, prints and the report write
    minimizer.load_trace   load_trace
    minimizer.lift         lift_boundary, forced_lift: every call, the
                           CLI's, minimize's and relax_oracle's
    minimizer.minimize     minimize, apart from the calls below it
    minimizer.spectrum     analyze_spectrum, frequency_from_spectrum
    minimizer.extension    harmonic_extension
    minimizer.oracle       relax_oracle, apart from the calls below it
    field.quadrature       dirichlet_energy
    field.profile          frequency_profile
    field.dump             save_field
    field.profile_csv      FrequencyProfile.to_csv
    blowup.resample        blowup_sequence
    blowup.catalog         identify_catalog (forms and qpoint run inside)
    blowup.report          blowup_report
    kernels.sweep          qdisk._kernels.gs_sweep
    kernels.energy         qdisk._kernels.gs_energy

Counters, taken from the wrapped calls' arguments after each call:

    minimizer.modes_total      loop modes handed to harmonic_extension
    minimizer.modes_evaluated  those with a coefficient above
                               minimizer.COEFF_EPS, the modes that carry data
    kernels.sweeps             gs_sweep calls
    kernels.bytes_computed     computed from array sizes, not measured: a
                               sweep reads and writes the stack once
                               (2 * nbytes), an energy evaluation reads it once
    field.dump_bytes           size of each save_field CSV and its sidecar

Spans are kept in memory as (name, parent index, start, end) and returned
with the replay; nothing is written while it runs. The originals are put
back when the replay ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qdisk import _kernels, cli, field, minimizer

# (owner, attribute, span): the function is wrapped in the owner's namespace,
# where the program looks it up.
TARGETS = (
    (cli, "load_trace", "minimizer.load_trace"),
    (cli, "lift_boundary", "minimizer.lift"),
    (cli, "forced_lift", "minimizer.lift"),
    (cli, "analyze_spectrum", "minimizer.spectrum"),
    (cli, "frequency_from_spectrum", "minimizer.spectrum"),
    (cli, "minimize", "minimizer.minimize"),
    (cli, "relax_oracle", "minimizer.oracle"),
    (cli, "dirichlet_energy", "field.quadrature"),
    (cli, "frequency_profile", "field.profile"),
    (cli, "save_field", "field.dump"),
    (cli, "blowup_sequence", "blowup.resample"),
    (cli, "identify_catalog", "blowup.catalog"),
    (cli, "blowup_report", "blowup.report"),
    (minimizer, "lift_boundary", "minimizer.lift"),
    (minimizer, "forced_lift", "minimizer.lift"),
    (minimizer, "analyze_spectrum", "minimizer.spectrum"),
    (minimizer, "harmonic_extension", "minimizer.extension"),
    (minimizer, "dirichlet_energy", "field.quadrature"),
    (field.FrequencyProfile, "to_csv", "field.profile_csv"),
    (_kernels, "gs_sweep", "kernels.sweep"),
    (_kernels, "gs_energy", "kernels.energy"),
)


class Tracer:
    """Nested spans and counters of one replay."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._hooks = {
            "harmonic_extension": self._count_modes,
            "gs_sweep": self._count_sweep,
            "gs_energy": self._count_energy,
            "save_field": self._count_dump,
        }

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        hook = self._hooks.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(*args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, span), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(fn, span))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _count_modes(self, spectrum, *_args, **_kwargs):
        for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
            peak = np.maximum(np.abs(cos).max(axis=1), np.abs(sin).max(axis=1))
            self.counts["minimizer.modes_total"] += len(peak)
            self.counts["minimizer.modes_evaluated"] += int(np.sum(peak > minimizer.COEFF_EPS))

    def _count_sweep(self, u, *_args, **_kwargs):
        self.counts["kernels.sweeps"] += 1
        self.counts["kernels.bytes_computed"] += 2 * u.nbytes

    def _count_energy(self, u, *_args, **_kwargs):
        self.counts["kernels.bytes_computed"] += u.nbytes

    def _count_dump(self, _field, csv_path, *_args, **_kwargs):
        path = Path(csv_path)
        for written in (path, path.with_suffix(".json")):
            if written.exists():
                self.counts["field.dump_bytes"] += written.stat().st_size


def replay(argv: list[str]) -> dict:
    """Run ``qdisk <argv>`` once with tracing on; returns its record."""
    t = Tracer()
    out, err = io.StringIO(), io.StringIO()
    with t.patched(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with t.span("cli"):
            rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "spans": t.spans, "counts": dict(t.counts)}
