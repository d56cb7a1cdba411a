"""Dirichlet-minimizing two-valued extensions of circle boundary data.

Boundary data on the unit circle is an unordered pair of points per angle.
Going once around the circle, a continuous selection either returns to its
start (two closed loops: the unbranched class) or lands on the other sheet
(one double loop of period 4*pi: the branched class). Each class has a
spectral minimizer: per-loop integer Fourier modes extend by r^k, and the
double loop's modes at index k extend by r^(k/2). Minimality of the
branched extension rests on the double-cover energy identity (unfolding a
branched pair through w -> w^2 preserves Dirichlet energy in two
dimensions); the identity is enforced by a property test rather than
assumed silently.

The verification oracle is independent of the spectral extension: given
the same spectrum (the boundary data), it minimizes the discrete
five-point polar Dirichlet energy with the boundary ring fixed, exactly,
by an FFT in angle and one tridiagonal solve in r per mode
(``qdisk._kernels``). The two agree up to discretization error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import AmbiguousClass, NotStationary, ZeroSpectrum
from .field import DiskField, PolarGrid, dirichlet_energy
from .forms import Continuation

COEFF_EPS = 1e-12
# Sheets closer than this at a sample collide there; a trace with a collision
# admits both continuation classes.
SEP_TOL = 1e-9
# Largest relative energy decrease one reference Gauss-Seidel sweep may find
# in the oracle's solution; rounding leaves about 1e-16.
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryTrace:
    """Uniformly sampled pair-valued boundary data on the unit circle."""

    thetas: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        n = len(thetas)
        if n < 8 or p1.shape != (n, 2) or p2.shape != (n, 2):
            raise ValueError("trace needs >= 8 samples of matching shape")
        if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
            raise ValueError("trace values must be finite")
        expected = 2.0 * np.pi * np.arange(n) / n
        if not np.allclose(thetas, expected, atol=1e-9):
            raise ValueError("trace angles must be uniform starting at 0")
        object.__setattr__(self, "thetas", expected)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def n(self) -> int:
        return len(self.thetas)

    def separation(self) -> float:
        return float(np.min(np.linalg.norm(self.p1 - self.p2, axis=1)))

    @classmethod
    def from_values(cls, p1, p2) -> "BoundaryTrace":
        p1 = np.asarray(p1, dtype=float)
        n = p1.shape[0]
        return cls(2.0 * np.pi * np.arange(n) / n, p1, p2)


def save_trace(trace: BoundaryTrace, path) -> None:
    rows = [
        {"theta": float(t), "p1": [float(a), float(b)], "p2": [float(c), float(d)]}
        for t, (a, b), (c, d) in zip(trace.thetas, trace.p1, trace.p2)
    ]
    Path(path).write_text(json.dumps(rows, indent=2) + "\n")


def load_trace(path) -> BoundaryTrace:
    """Read a save_trace file. Raises ValueError unless it is a JSON array
    of row objects with numeric theta, p1 and p2 (KeyError for a row
    without one of them)."""
    rows = json.loads(Path(path).read_text())
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("trace must be a JSON array of {theta, p1, p2} objects")
    try:
        thetas = np.array([row["theta"] for row in rows], dtype=float)
        p1 = np.array([row["p1"] for row in rows], dtype=float)
        p2 = np.array([row["p2"] for row in rows], dtype=float)
    except TypeError as exc:  # a value that is neither a number nor a list
        raise ValueError(f"trace values must be numbers: {exc}") from exc
    return BoundaryTrace(thetas, p1, p2)


@dataclass(frozen=True)
class BoundaryLift:
    """Continuous loop decomposition of a trace.

    Unbranched: two closed loops of n samples each. Branched: one loop of
    2n samples over [0, 4*pi).
    """

    kind: Continuation
    loops: tuple


def _track_selection(trace: BoundaryTrace) -> tuple[np.ndarray, np.ndarray, bool]:
    """Nearest-point continuation around the circle.

    Returns the selected and complementary value sequences plus whether the
    selection returns to its start after a full turn. Sample j continues
    with p1[j] when it is at least as close to the previous selection as
    p2[j]; the walk runs on Python floats, which is much faster than numpy
    on two-element rows and rounds the same squared distances.
    """
    p1, p2 = trace.p1.tolist(), trace.p2.tolist()

    def nearer_first(j: int, x: float, y: float) -> bool:
        (ax, ay), (bx, by) = p1[j], p2[j]
        ax, ay, bx, by = ax - x, ay - y, bx - x, by - y
        return ax * ax + ay * ay <= bx * bx + by * by

    take_first = [True] * trace.n
    x, y = p1[0]
    for j in range(1, trace.n):
        take_first[j] = nearer_first(j, x, y)
        x, y = p1[j] if take_first[j] else p2[j]
    take = np.array(take_first)[:, None]
    sel = np.where(take, trace.p1, trace.p2)
    comp = np.where(take, trace.p2, trace.p1)
    return sel, comp, nearer_first(0, x, y)


def _collisions(trace: BoundaryTrace) -> np.ndarray:
    """Mask of the samples where the sheets collide."""
    return np.linalg.norm(trace.p1 - trace.p2, axis=1) < SEP_TOL


def lift_boundary(trace: BoundaryTrace) -> BoundaryLift:
    """Decide the continuation class by tracking values around the circle.

    Raises AmbiguousClass when the sheets collide anywhere (within SEP_TOL);
    colliding data admits both classes and the caller must choose.
    """
    if trace.separation() < SEP_TOL:
        raise AmbiguousClass(
            f"sheet separation {trace.separation():.3e} below {SEP_TOL:.3e}"
        )
    sel, comp, closes = _track_selection(trace)
    if closes:
        return BoundaryLift(Continuation.IDENTITY, (sel, comp))
    return BoundaryLift(Continuation.SWAP, (np.concatenate([sel, comp]),))


def forced_lift(trace: BoundaryTrace, kind: Continuation) -> BoundaryLift:
    """Canonical splitting for an explicitly requested class.

    Unbranched: the tracked selection and its complement (at collisions
    the two values agree, so either branch keeps the loops continuous).
    Branched: the double loop with the crossover at the first collision if
    one exists, else at the wrap angle, where it is lift_boundary's double
    loop: separated data keeps its detected sheet order.
    """
    sel, comp, _ = _track_selection(trace)
    if kind is Continuation.IDENTITY:
        return BoundaryLift(kind, (sel, comp))
    hits = _collisions(trace)
    j = int(np.argmax(hits)) if hits.any() else trace.n
    loop = np.concatenate([sel[:j], comp[j:], comp[:j], sel[j:]])
    return BoundaryLift(kind, (loop,))


@dataclass(frozen=True)
class Spectrum:
    """Fourier data of a lift.

    One coefficient table per loop; table k holds the cosine and sine
    coefficient vectors of mode k. Mode k has frequency k for unbranched
    loops (period 2*pi) and k/2 for the branched double loop (period 4*pi).
    """

    kind: Continuation
    cos_coeffs: tuple  # per loop: array (m//2 + 1, 2)
    sin_coeffs: tuple

    @property
    def frequency_unit(self) -> float:
        return 1.0 if self.kind is Continuation.IDENTITY else 0.5


def analyze_spectrum(lift: BoundaryLift) -> Spectrum:
    """Discrete Fourier analysis of each loop; exact on band-limited data."""
    cos_all, sin_all = [], []
    for loop in lift.loops:
        m = loop.shape[0]
        coeffs = np.fft.rfft(loop, axis=0) / m
        cos = 2.0 * coeffs.real
        sin = -2.0 * coeffs.imag
        cos[0] *= 0.5
        if m % 2 == 0:
            cos[-1] *= 0.5
            sin[-1] = 0.0
        cos_all.append(cos)
        sin_all.append(sin)
    return Spectrum(lift.kind, tuple(cos_all), tuple(sin_all))


# Rings per inverse FFT in _eval_modes: bounds each of its work arrays to
# about EVAL_BLOCK * cols * 16 bytes (1 MiB on the 256x1024 double cover).
EVAL_BLOCK = 32


def _present(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Indices of the modes with a coefficient above COEFF_EPS."""
    peak = np.maximum(np.abs(cos).max(axis=1), np.abs(sin).max(axis=1))
    return np.nonzero(peak > COEFF_EPS)[0]


def _columns(spectrum: Spectrum, grid: PolarGrid) -> int:
    """Angular samples of one loop on the grid: n_theta, or 2*n_theta on the
    double cover of the branched loop."""
    return grid.n_theta if spectrum.kind is Continuation.IDENTITY else 2 * grid.n_theta


def _eval_modes(spectrum: Spectrum, grid: PolarGrid, radial: np.ndarray) -> list[np.ndarray]:
    """Per loop, sum_k r^(k*unit) (A_k cos(k*unit*ang) + B_k sin(k*unit*ang))
    at the radii ``radial`` and the loop's grid angles; shape (R, cols, 2).

    At those angles mode k is frequency k of the loop's cols samples, so a
    block of rings is one inverse real FFT: bin k mod cols takes
    r^(k*unit) (A_k - i B_k) / 2, bins past cols/2 are conjugated onto
    cols - bin, and the DC and Nyquist bins keep twice their real part.
    Modes above cols/2 thus fold onto their bin, exactly as evaluating them
    at the grid angles aliases them. Modes with no coefficient above
    COEFF_EPS are left out.
    """
    cols = _columns(spectrum, grid)
    half = cols // 2
    stacks = []
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = _present(cos, sin)
        coeffs = 0.5 * (cos[k] - 1j * sin[k])
        bins = k % cols
        mirrored = bins > half
        coeffs[mirrored] = coeffs[mirrored].conj()
        bins[mirrored] = cols - bins[mirrored]
        # bins are distinct within each half period of k (a set, not
        # np.unique, which imports numpy.ma and keeps 0.5 MiB resident)
        segments = [k // half == s for s in set((k // half).tolist())]
        nu = k * spectrum.frequency_unit
        out = np.empty((len(radial), cols, 2))
        for lo in range(0, len(radial), EVAL_BLOCK):
            w = np.power(radial[lo : lo + EVAL_BLOCK, None], nu)[:, :, None]
            spec = np.zeros((len(w), half + 1, 2), dtype=complex)
            for seg in segments:
                spec[:, bins[seg]] += w[:, seg] * coeffs[seg]
            spec[:, [0, half]] = 2.0 * spec[:, [0, half]].real
            out[lo : lo + EVAL_BLOCK] = np.fft.irfft(spec, n=cols, axis=1, norm="forward")
        stacks.append(out)
    return stacks


def harmonic_extension(spectrum: Spectrum, grid: PolarGrid) -> DiskField:
    """Extend each loop mode of frequency nu by r^nu onto the slit grid."""
    return DiskField.from_stacks(grid, _eval_modes(spectrum, grid, grid.radii), spectrum.kind)


def spectral_energy(spectrum: Spectrum, r: float = 1.0) -> float:
    """Closed-form Dirichlet energy of the spectral extension over the disk
    of radius r.

    Per loop: sum_k pi * k * (|A_k|^2 + |B_k|^2) * r^(2 * k * unit). The
    same index formula covers both classes: an unbranched mode k has
    frequency k over one period 2*pi, a branched mode k has frequency k/2
    integrated over the double cover. Modes are orthogonal on every circle,
    so no cross terms appear.
    """
    total = 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = np.arange(cos.shape[0])
        weight = k * np.power(float(r), 2 * k * spectrum.frequency_unit)
        total += np.pi * np.sum(weight * (np.sum(cos**2, axis=1) + np.sum(sin**2, axis=1)))
    return float(total)


def folded_modes(spectrum: Spectrum, grid: PolarGrid) -> tuple[int, float]:
    """Modes carrying data that the grid cannot represent: their count and
    the share of ``spectral_energy`` the field loses with them.

    The grid samples a loop at cols angles, so the extension folds a mode
    k above cols/2 onto angular mode k mod cols (or its mirror) with its
    r^nu profile unchanged: the field then no longer matches the spectrum.
    A mode at exactly cols/2 keeps its cosine part, but its sine part
    vanishes at every node; it counts when that sine part is above
    COEFF_EPS, with the sine part's energy.
    """
    half = _columns(spectrum, grid) // 2
    count, energy = 0, 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = _present(cos, sin)
        k = k[k > half]
        count += len(k)
        mass = np.sum(cos[k] ** 2, axis=1) + np.sum(sin[k] ** 2, axis=1)
        energy += np.pi * np.sum(k * mass)
        if half < len(sin) and np.abs(sin[half]).max() > COEFF_EPS:
            count += 1
            energy += np.pi * half * np.sum(sin[half] ** 2)
    return count, (float(energy / spectral_energy(spectrum)) if count else 0.0)


def frequency_from_spectrum(spectrum: Spectrum) -> float:
    """Frequency at the origin read off the spectrum.

    A nonzero constant mode means the extension does not vanish at the
    origin, which forces frequency zero (the dichotomy); otherwise the
    lowest present mode dominates as r -> 0. Present means what the
    extension keeps: a coefficient above COEFF_EPS.
    """
    unit = spectrum.frequency_unit
    best = None
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        present = _present(cos, sin)
        if len(present) == 0:
            continue
        if present[0] == 0:
            return 0.0
        nu = present[0] * unit
        best = nu if best is None else min(best, nu)
    if best is None:
        raise ZeroSpectrum("no coefficient above threshold")
    return float(best)


@dataclass(frozen=True)
class MinimizeResult:
    field: DiskField
    kind: Continuation
    spectrum: Spectrum
    energy: float
    alt_energy: float | None = None

    def __post_init__(self):
        if self.alt_energy is not None and not self.energy <= self.alt_energy + 1e-12:
            raise ValueError(
                f"energy {self.energy!r} exceeds the other class's {self.alt_energy!r}"
            )


def minimize(
    trace: BoundaryTrace, grid: PolarGrid, kind: Continuation | None = None
) -> MinimizeResult:
    """Spectral minimizer of the Dirichlet energy for the trace.

    Auto-detects the continuation class when the sheets stay separated.
    Data with exactly one collision event admits both canonical classes:
    both are built and the lower-energy one returned with alt_energy set.
    More collision events admit further resplittings, which are not
    enumerated: AmbiguousClass propagates. An explicit ``kind`` skips
    detection. The result's ``kind`` and ``spectrum`` are what the rest of
    a run reads: the trace is lifted here and nowhere else.
    """

    def build(l: BoundaryLift) -> MinimizeResult:
        spectrum = analyze_spectrum(l)
        f = harmonic_extension(spectrum, grid)
        return MinimizeResult(f, l.kind, spectrum, dirichlet_energy(f, 1.0))

    if kind is not None:
        return build(forced_lift(trace, kind))

    try:
        lift = lift_boundary(trace)
    except AmbiguousClass:
        # collision events are the circular runs of the mask: count their
        # starts, or one when every sample collides
        hits = _collisions(trace)
        events = int(np.count_nonzero(hits & ~np.roll(hits, 1))) or int(hits.all())
        if events != 1:
            raise AmbiguousClass(
                f"{events} collision events admit more than the two "
                "canonical splittings; pass the class explicitly"
            )
        identity, swap = (
            build(forced_lift(trace, k)) for k in (Continuation.IDENTITY, Continuation.SWAP)
        )
        winner, other = (identity, swap) if identity.energy <= swap.energy else (swap, identity)
        return replace(winner, alt_energy=other.energy)

    return build(lift)


# --- relaxation oracle ------------------------------------------------------


def _boundary_rows(spectrum: Spectrum, grid: PolarGrid) -> list[np.ndarray]:
    """Band-limited resample of each loop at the grid angles (r = 1)."""
    return [stack[0] for stack in _eval_modes(spectrum, grid, np.ones(1))]


def _sweep_decrease(u: np.ndarray, dtheta: float) -> float:
    """Relative discrete energy one reference Gauss-Seidel sweep removes."""
    swept = u.copy()
    _kernels.gs_sweep(swept, dtheta, 0)
    _kernels.gs_sweep(swept, dtheta, 1)
    _kernels.gs_center(swept)
    energy = _kernels.gs_energy(u, dtheta)
    return (energy - _kernels.gs_energy(swept, dtheta)) / max(energy, 1e-30)


def relax_oracle(spectrum: Spectrum, grid: PolarGrid) -> DiskField:
    """Independent minimizer of the discrete polar Dirichlet energy.

    Fixes the boundary ring to the band-limited resample of each loop of
    ``spectrum``, in its class, and minimizes the five-point polar energy
    exactly (``_kernels.solve``: an FFT in angle and one tridiagonal solve
    in r per mode). One reference
    Gauss-Seidel sweep then checks the result: it must not lower the
    discrete energy by more than ``STATIONARY_TOL`` relative, else
    NotStationary is raised.
    """
    stacks = [
        _kernels.solve(bnd, grid.n_r, grid.dtheta) for bnd in _boundary_rows(spectrum, grid)
    ]
    for u in stacks:
        decrease = _sweep_decrease(u, grid.dtheta)
        if not decrease <= STATIONARY_TOL:
            raise NotStationary(
                f"a reference sweep lowers the discrete energy by {decrease:.3e}"
            )
    return DiskField.from_stacks(grid, stacks, spectrum.kind)
