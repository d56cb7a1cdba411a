import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qdisk.blowup import ExactRescale, rescale_exact
from qdisk.field import DiskField, PolarGrid
from qdisk.forms import Continuation, sheet_eval
from qdisk.minimizer import BoundaryLift, BoundaryTrace, analyze_spectrum


@pytest.fixture
def grid64():
    return PolarGrid(64, 256)


@pytest.fixture
def grid32():
    return PolarGrid(32, 128)


def single_mode_trace(freq, n=256, amp=1.0):
    """Trace of {+-amp*(cos(freq*th), sin(freq*th))}.

    Integer freq gives two closed loops (unbranched); odd-half freq gives a
    branched trace whose double loop is the same expression over [0, 4*pi).
    """
    th = 2.0 * np.pi * np.arange(n) / n
    p1 = amp * np.stack([np.cos(freq * th), np.sin(freq * th)], axis=1)
    if float(2 * freq).is_integer() and int(round(2 * freq)) % 2 == 1:
        p2 = amp * np.stack(
            [np.cos(freq * (th + 2 * np.pi)), np.sin(freq * (th + 2 * np.pi))], axis=1
        )
    else:
        p2 = -p1
    return BoundaryTrace.from_values(p1, p2)


def conformal_swap_trace(rng, n=256):
    """Branched trace of the sum of c_k z^(k/2) over k = 3, 5, 7, with
    normal complex c_k drawn from rng, scaled 1, 0.2 and 0.2: conformal
    sheets, so the blow-up is a degree-3/2 swap catalog entry."""
    th = 2.0 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    z = np.zeros(2 * n, complex)
    for k, scale in ((3, 1.0), (5, 0.2), (7, 0.2)):
        z += scale * complex(*rng.normal(size=2)) * np.exp(0.5j * k * cover)
    loop = np.stack([z.real, z.imag], axis=1)
    return BoundaryTrace.from_values(loop[:n], loop[n:])


def _loop_from_modes(thetas, unit, modes, rng):
    vals = np.zeros((len(thetas), 2))
    for k, scale in modes:
        A = rng.normal(size=2) * scale
        B = rng.normal(size=2) * scale
        nu = k * unit
        vals += np.cos(nu * thetas)[:, None] * A + np.sin(nu * thetas)[:, None] * B
    return vals


def random_trace(rng, kind, n=256, kmax=4, mode0=False, min_sep=0.05, odd_only=False):
    """Random band-limited trace of the requested class, sheets separated.

    Redraws until the minimum sheet separation exceeds ``min_sep`` so class
    detection stays unambiguous. ``odd_only`` restricts branched traces to
    sheet-exchanging (odd) double-loop modes, i.e. data with p2 = -p1,
    which leaves a full unit gap between admissible frequencies.
    """
    th = 2.0 * np.pi * np.arange(n) / n
    for _ in range(200):
        if kind is Continuation.IDENTITY:
            modes = [(k, 1.0 / k**2) for k in range(1, kmax + 1)]
            if mode0:
                modes.append((0, 1.0))
            l1 = _loop_from_modes(th, 1.0, modes, rng)
            l2 = _loop_from_modes(th, 1.0, modes, rng)
            # keep the loops apart with opposing constant offsets
            offset = rng.normal(size=2)
            offset *= (1.5 if mode0 else 0.0) / max(np.linalg.norm(offset), 1e-9)
            p1, p2 = l1 + offset, l2 - offset
            if not mode0:
                # separate by distinct dominant rotations instead
                p1 = p1 + np.stack([np.cos(th), np.sin(th)], axis=1)
                p2 = p2 - np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            cover = np.concatenate([th, th + 2 * np.pi])
            ks = range(1, 2 * kmax + 1, 2) if odd_only else range(1, 2 * kmax + 1)
            modes = [(k, 1.0 / k**1.5) for k in ks]
            if mode0:
                modes.append((0, 1.0))
            # guarantee an odd (sheet-exchanging) mode dominates
            loop = _loop_from_modes(cover, 0.5, modes, rng)
            main = rng.normal(size=2)
            main *= 1.5 / max(np.linalg.norm(main), 1e-9)
            loop += np.cos(0.5 * cover)[:, None] * main
            p1, p2 = loop[:n], loop[n:]
        trace = BoundaryTrace.from_values(p1, p2)
        if trace.separation() > min_sep:
            return trace
    raise RuntimeError("could not draw a separated trace")


def exact_entry(entry, grid):
    """A catalog entry as a unit-energy ExactRescale on the grid: the
    spectrum of its outer ring, lifted by its continuation (two closed
    loops, or sheet 1 then sheet 2 as one double loop), so the class is
    given, not detected."""
    rings = [sheet_eval(t, entry.N, 1.0, grid.thetas) for t in (entry.t1, entry.t2)]
    swap = entry.continuation is Continuation.SWAP
    lift = BoundaryLift(entry.continuation, (np.concatenate(rings),) if swap else tuple(rings))
    return rescale_exact(ExactRescale(grid, analyze_spectrum(lift)), 1.0)


def random_field(grid, seam, rng):
    """Field of independent normal nodes (one value on the center ring), so
    every difference, the seam wrap included, counts."""
    sheets = rng.normal(size=(2, grid.n_r + 1, grid.n_theta, 2))
    sheets[:, 0] = sheets[:, 0, :1]
    return DiskField(grid, sheets[0], sheets[1], seam)


def perfbench_inputs(monkeypatch):
    """perfbench/inputs.py, loaded by path with bytecode writing off."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
    spec.loader.exec_module(inputs)
    return inputs
