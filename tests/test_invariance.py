"""The answers of minimize and blowup do not change under the symmetries of
the problem: rotating the target plane, relabelling the sheets, rotating
the domain and scaling the data. Scaling by a power of two scales every
float of a run exactly."""

import functools

import numpy as np
import pytest

from conftest import conformal_swap_trace, random_trace

from qdisk import QdiskError
from qdisk.blowup import blowup_report, blowup_sequence, identify_catalog
from qdisk.cli import DEFAULT_BLOWUP_RADII, DEFAULT_PROFILE_RADII
from qdisk.field import PolarGrid, frequency_profile
from qdisk.forms import Continuation
from qdisk.minimizer import (
    BoundaryTrace,
    frequency_from_spectrum,
    minimize,
)

GRID = PolarGrid(64, 256)


@functools.cache
def _draws() -> tuple:
    """3 conformal swap traces, 3 swap and 3 identity random traces, and 2
    identity random traces with a constant mode (frequency 0)."""
    rng = np.random.default_rng(3)
    return tuple(
        [conformal_swap_trace(rng) for _ in range(3)]
        + [random_trace(rng, Continuation.SWAP) for _ in range(3)]
        + [random_trace(rng, Continuation.IDENTITY) for _ in range(3)]
        + [random_trace(rng, Continuation.IDENTITY, mode0=True) for _ in range(2)]
    )


def _blowup(result):
    """The blow-up of a minimizer as the CLI reads it, from the exact
    rescales of its spectrum: its report, the exception it raises, or None
    at frequency 0."""
    if frequency_from_spectrum(result.spectrum) == 0.0:
        return None
    try:
        limit = blowup_sequence(result, DEFAULT_BLOWUP_RADII).fields[-1]
        return blowup_report(limit, *identify_catalog(limit))
    except QdiskError as exc:
        return exc


def _run(trace: BoundaryTrace):
    """The minimizer, N0 and the blow-up (``_blowup``) as the CLI reads them
    on GRID. The profile is taken for its ZeroBoundaryMass check."""
    result = minimize(trace, GRID)
    N0 = frequency_from_spectrum(result.spectrum)
    frequency_profile(result.field, DEFAULT_PROFILE_RADII)
    return result, N0, _blowup(result)


@functools.cache
def _runs_at_scale_one() -> tuple:
    return tuple(_run(trace) for trace in _draws())


def _blowup_answer(blowup):
    """The blow-up's degree and continuation, its exception type, or None."""
    if isinstance(blowup, dict):
        return blowup["rounded_N"], blowup["continuation"]
    return None if blowup is None else type(blowup)


def _answer(run) -> tuple:
    """Class, N0 and the blow-up's answer (``_blowup_answer``)."""
    result, N0, blowup = run
    return result.kind, N0, _blowup_answer(blowup)


def _rotated_target(trace, angle=0.7):
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    return BoundaryTrace.from_values(trace.p1 @ rotation.T, trace.p2 @ rotation.T)


SYMMETRIES = {
    "rotate-target": _rotated_target,
    "relabel-sheets": lambda t: BoundaryTrace.from_values(t.p2, t.p1),
    # the traces hold one sample per grid angle
    "rotate-domain": lambda t: BoundaryTrace.from_values(
        np.roll(t.p1, -16, axis=0), np.roll(t.p2, -16, axis=0)),
}
SCALES = (1e-12, 1e-10, 1e-8, 1e-6, 1e4, 1e8)


@pytest.mark.parametrize("symmetry, draw", [
    pytest.param(symmetry, draw, id=f"{symmetry}-{draw}")
    for symmetry in SYMMETRIES for draw in range(11)
])
def test_answers_keep_under_symmetry(symmetry, draw):
    got = _run(SYMMETRIES[symmetry](_draws()[draw]))
    assert _answer(got) == _answer(_runs_at_scale_one()[draw])


def _scaled(trace, s):
    return BoundaryTrace.from_values(s * trace.p1, s * trace.p2)


@pytest.mark.parametrize("scale", SCALES, ids=[f"{s:g}" for s in SCALES])
def test_answers_keep_at_scale(scale):
    """Every data threshold scales with the data it tests."""
    failures = []
    for k, (trace, one) in enumerate(zip(_draws(), _runs_at_scale_one())):
        got = _answer(_run(_scaled(trace, scale)))
        if got != _answer(one):
            failures.append(f"draw {k}: {got} against {_answer(one)}")
    assert not failures


def _report_or_failure(blowup):
    return (type(blowup), str(blowup)) if isinstance(blowup, Exception) else blowup


@pytest.mark.parametrize("k", [20, -20, 40, -40])
def test_power_of_two_scales_every_float(k):
    """At 2^k the field is 2^k times that of scale 1 and the energy 4^k times,
    bit for bit, and the blow-up report or failure is the same."""
    s = 2.0**k
    failures = []
    for n, (trace, (one, N0, blowup)) in enumerate(zip(_draws(), _runs_at_scale_one())):
        got, got_N0, got_blowup = _run(_scaled(trace, s))
        if not (
            got.kind is one.kind
            and got_N0 == N0
            and np.array_equal(got.field.sheet1, s * one.field.sheet1)
            and np.array_equal(got.field.sheet2, s * one.field.sheet2)
            and got.energy == s * s * one.energy
            and _report_or_failure(got_blowup) == _report_or_failure(blowup)
        ):
            failures.append(n)
    assert not failures, f"draws whose run does not scale exactly: {failures}"


@functools.cache
def _blowup_cases() -> tuple:
    """The draws on GRID, and a 64-sample conformal swap trace on 32x128."""
    conformal = conformal_swap_trace(np.random.default_rng(3), n=64)
    return tuple((trace, GRID) for trace in _draws()) + ((conformal, PolarGrid(32, 128)),)


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300, 2.0**520],
                         ids=["1e154", "1e200", "1e300", "2^520"])
def test_blowup_keeps_its_answer_at_huge_scale(scale):
    """The rescale is taken at the spectrum's unit binade, so the blow-up
    does not overflow where the squares of the coefficients do, from about
    1e154: it gives scale 1's degree and continuation or exception type,
    and at 2^520 its report or failure, bit for bit. It is run without the
    minimizer's grid quadrature, which overflows there, under the CLI's
    floating-point errors."""
    failures = []
    for case, (trace, grid) in enumerate(_blowup_cases()):
        with np.errstate(over="raise", invalid="raise"):
            one = _blowup(minimize(trace, grid))
            got = _blowup(minimize(_scaled(trace, scale), grid))
        if np.frexp(scale)[0] == 0.5:
            same = _report_or_failure(got) == _report_or_failure(one)
        else:
            same = _blowup_answer(got) == _blowup_answer(one)
        if not same:
            failures.append(f"{case}: {_report_or_failure(got)} against {_report_or_failure(one)}")
    assert not failures
