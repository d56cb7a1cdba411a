"""Dirichlet-minimizing two-valued extensions of circle boundary data.

Boundary data on the unit circle is an unordered pair of points per angle.
Going once around the circle, a continuous selection either returns to its
start (two closed loops: the unbranched class) or lands on the other sheet
(one double loop of period 4*pi: the branched class). The selection
continues the sign of p1 - p2 from sample to sample, which reads the class
without regard to which point of a pair is labelled first. Each class has a
spectral minimizer: per-loop integer Fourier modes extend by r^k, and the
double loop's modes at index k extend by r^(k/2). Minimality of the
branched extension rests on the double-cover energy identity (unfolding a
branched pair through w -> w^2 preserves Dirichlet energy in two
dimensions); the identity is enforced by a property test rather than
assumed silently.

The verification oracle is independent of the spectral extension: it
reads only the outer ring and the seam of the field the extension built,
and minimizes the discrete five-point polar Dirichlet energy with that
ring fixed, exactly, by an FFT in angle and one tridiagonal solve in r per
mode (``qdisk._kernels``). The two agree up to discretization error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import AmbiguousClass, NotStationary, ZeroSpectrum
from .field import (
    EPS_BOUNDARY_MASS,
    RING_BLOCK,
    DiskField,
    FrequencyProfile,
    PolarGrid,
    dirichlet_energy,
    scaled_tol,
)
from .forms import Continuation
from .qpoint import squared_norm

# A mode is present when a coefficient exceeds this, scaled to the lift's
# coordinates (Spectrum.coeff_eps).
COEFF_EPS = 1e-12
# Sheets closer than this, scaled to the trace's coordinates, collide at a
# sample; a trace with a collision admits both continuation classes.
SEP_TOL = 1e-9
# Largest relative energy decrease one reference Gauss-Seidel sweep may find
# in the oracle's solution; rounding leaves about 1e-16.
STATIONARY_TOL = 1e-10
# Base-2 exponent below which a closed form's power r^(step k) is taken as
# 0.0: a power below 2^-1075 rounds to zero, and one binade is left to spare
# for the rounding of step * k * log2(r) and of the power.
UNDERFLOW_LOG2 = -1076


def _binade_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an (n, 2) array, each divided by the power of two 2^e
    that brings its larger |coordinate| into [0.5, 1), and the exponents e.
    The division is exact but for a coordinate that it takes below the
    normal range, whose square is then too small to count."""
    _, exp = np.frexp(np.maximum(np.abs(d[:, 0]), np.abs(d[:, 1])))
    return np.ldexp(d, -exp[:, None]), exp


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
        if not all(np.isfinite(values).all() for values in (thetas, p1, p2)):
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

    def gaps(self) -> np.ndarray:
        """Distance between the sheets at each sample, sqrt(dx^2 + dy^2)
        taken at the sample's own power of two (``_binade_rows``) and scaled
        back: ``np.linalg.norm(p1 - p2, axis=1)`` bit for bit wherever no
        square of the latter underflows or overflows (``squared_norm``)."""
        d, exp = _binade_rows(self.p1 - self.p2)
        return np.ldexp(np.sqrt(squared_norm(d)), exp)

    def separation(self) -> float:
        return float(np.min(self.gaps()))

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
    of row objects whose theta is a JSON number and whose p1 and p2 are
    lists of two of them; a bool or a string is not a number."""
    rows = json.loads(Path(path).read_text())
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("trace must be a JSON array of {theta, p1, p2} objects")
    try:
        thetas = [row["theta"] for row in rows]
        p1 = [row["p1"] for row in rows]
        p2 = [row["p2"] for row in rows]
    except KeyError as exc:
        key = exc.args[0]
        k = next(k for k, row in enumerate(rows) if key not in row)
        raise ValueError(f'trace row {k} has no "{key}"') from None
    try:
        values = chain(thetas, chain.from_iterable(p1), chain.from_iterable(p2))
        numeric = set(map(type, values)) <= {int, float}
    except TypeError:  # a point that is not a list
        numeric = False
    if not numeric:
        raise ValueError("trace values must be numbers: theta one, p1 and p2 lists of them")
    try:
        thetas = np.array(thetas, dtype=float)
        p1, p2 = np.array(p1, dtype=float), np.array(p2, dtype=float)
        pairs = not rows or p1.shape[1:] == p2.shape[1:] == (2,)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("trace values must be finite") from None
    except ValueError:  # points of different lengths
        pairs = False
    if not pairs:
        raise ValueError("trace points must be [x, y] pairs")
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
    """Sign continuation of the pair around the circle.

    Returns the selected and complementary value sequences plus whether the
    selection returns to its start after a full turn. With d = p1 - p2,
    sample j flips when d_j . d_(j-1) < 0 (d_(n-1) before d_0). Sheet 1
    takes p1 at j while the flips in 1..j are even, and the selection
    closes when all n flips are even. Relabelling the sheets negates every
    d and keeps every product, so it exchanges sel and comp and nothing
    else. Each d enters at its own power of two (``_binade_rows``), which
    keeps its sign and keeps the products finite at any finite scale.
    """
    d, _ = _binade_rows(trace.p1 - trace.p2)
    prev = np.roll(d, 1, axis=0)
    flips = d[:, 0] * prev[:, 0] + d[:, 1] * prev[:, 1] < 0
    odd = np.logical_xor.accumulate(flips)  # flips in 0..j are odd
    take = (odd == flips[0])[:, None]
    sel = np.where(take, trace.p1, trace.p2)
    comp = np.where(take, trace.p2, trace.p1)
    return sel, comp, not odd[-1]


def _collisions(trace: BoundaryTrace) -> np.ndarray:
    """Mask of the samples where the sheets collide."""
    return trace.gaps() < scaled_tol(SEP_TOL, (trace.p1, trace.p2))


def lift_boundary(trace: BoundaryTrace) -> BoundaryLift:
    """Decide the continuation class by continuing the sign of p1 - p2
    around the circle (``_track_selection``): the class is the parity of its
    sign flips.

    Raises AmbiguousClass when the sheets collide anywhere (within SEP_TOL,
    scaled); colliding data admits both classes and the caller must choose.
    """
    tol = scaled_tol(SEP_TOL, (trace.p1, trace.p2))
    if trace.separation() < tol:
        raise AmbiguousClass(f"sheet separation {trace.separation():.3e} below {tol:.3e}")
    sel, comp, closes = _track_selection(trace)
    if closes:
        return BoundaryLift(Continuation.IDENTITY, (sel, comp))
    return BoundaryLift(Continuation.SWAP, (np.concatenate([sel, comp]),))


def forced_lift(trace: BoundaryTrace, kind: Continuation) -> BoundaryLift:
    """Canonical splitting for an explicitly requested class.

    Unbranched: the sign-continued selection and its complement (at
    collisions the two values agree, so either branch keeps the loops
    continuous).
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
    A mode is present when a coefficient exceeds ``coeff_eps``.
    """

    kind: Continuation
    cos_coeffs: tuple  # per loop: array (m//2 + 1, 2)
    sin_coeffs: tuple
    coeff_eps: float = COEFF_EPS

    @property
    def frequency_unit(self) -> float:
        return 1.0 if self.kind is Continuation.IDENTITY else 0.5


def analyze_spectrum(lift: BoundaryLift) -> Spectrum:
    """Discrete Fourier analysis of each loop; exact on band-limited data.
    ``coeff_eps`` is COEFF_EPS scaled to the loops' coordinates."""
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
    return Spectrum(lift.kind, tuple(cos_all), tuple(sin_all), scaled_tol(COEFF_EPS, lift.loops))


def _present(cos: np.ndarray, sin: np.ndarray, eps: float) -> np.ndarray:
    """Indices of the modes with a coefficient above eps."""
    a, b = np.abs(cos), np.abs(sin)
    peak = np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(b[:, 0], b[:, 1]))
    return np.nonzero(peak > eps)[0]


def _mass(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """|A_k|^2 + |B_k|^2 per mode of the tables: ``np.sum(cos**2, axis=1) +
    np.sum(sin**2, axis=1)`` bit for bit (``squared_norm``)."""
    return squared_norm(cos) + squared_norm(sin)


def _columns(spectrum: Spectrum, grid: PolarGrid) -> int:
    """Angular samples of one loop on the grid: n_theta, or 2*n_theta on the
    double cover of the branched loop."""
    return grid.n_theta if spectrum.kind is Continuation.IDENTITY else 2 * grid.n_theta


def _eval_modes(spectrum: Spectrum, grid: PolarGrid, radial: np.ndarray) -> np.ndarray:
    """Both sheets of the extension at the radii ``radial``, in one array of
    shape (2, R, n_theta, 2): sheet 1, then sheet 2, each contiguous.

    Per loop, sum_k r^(k*unit) (A_k cos(k*unit*ang) + B_k sin(k*unit*ang))
    at the loop's grid angles. Loop i is sheet i in the identity class; the
    swap class's double loop is sheet 1 on its first n_theta angles and
    sheet 2 on the rest. At those angles mode k is frequency k of the loop's
    cols samples, so a block of rings is one inverse real FFT: bin k mod
    cols takes r^(k*unit) (A_k - i B_k) / 2, bins past cols/2 are conjugated
    onto cols - bin, and the DC and Nyquist bins keep twice their real part.
    Modes above cols/2 thus fold onto their bin, exactly as evaluating them
    at the grid angles aliases them. Modes with no coefficient above
    ``spectrum.coeff_eps`` are left out.
    """
    cols = _columns(spectrum, grid)
    half, n = cols // 2, grid.n_theta
    sheets = np.empty((2, len(radial), n, 2))
    # the sheets each loop's angles fill, n angles per sheet
    identity = spectrum.kind is Continuation.IDENTITY
    loop_sheets = [sheets[:1], sheets[1:]] if identity else [sheets]
    # per block: its spectrum, coordinate by coordinate with the bins
    # innermost, and its inverse FFT, written angle-major for the sheets
    # (irfft's `out` argument, new in numpy 2.0)
    block_rings = min(RING_BLOCK, len(radial))
    spec = np.empty((block_rings, 2, half + 1), dtype=complex)
    rows = np.empty((block_rings, cols, 2))
    for cos, sin, targets in zip(spectrum.cos_coeffs, spectrum.sin_coeffs, loop_sheets):
        k = _present(cos, sin, spectrum.coeff_eps)
        coeffs = 0.5 * (cos[k] - 1j * sin[k])
        bins = k % cols
        mirrored = bins > half
        coeffs[mirrored] = coeffs[mirrored].conj()
        bins[mirrored] = cols - bins[mirrored]
        # one row per coordinate, modes along it: every product below is
        # float by float over the mode axis
        re, im = coeffs.real.T.copy(), coeffs.imag.T.copy()
        # k ascends, so each half period s of k is one run k[a:b]; its bins
        # are distinct, and a slice of spec (ascending for even s, descending
        # for odd s) when its modes are consecutive. The runs are added in
        # the order of a set (not np.unique, which imports numpy.ma and
        # keeps 0.5 MiB resident): where runs share bins, it sets the bits.
        runs = []
        for s in set((k // half).tolist()):
            a, b = np.searchsorted(k, [s * half, (s + 1) * half])
            target = bins[a:b]
            if k[b - 1] - k[a] == b - a - 1:
                step = -1 if s % 2 else 1
                target = slice(target[0], target[0] + step * (b - a), step)
            runs.append((slice(a, b), target, re[:, a:b], im[:, a:b]))
        nu = k * spectrum.frequency_unit
        # RING_BLOCK rings per inverse FFT: each work array stays near
        # RING_BLOCK * cols * 16 bytes (1 MiB on the 256x1024 double cover)
        for lo in range(0, len(radial), RING_BLOCK):
            w = np.power(radial[lo : lo + RING_BLOCK, None], nu)[:, None]
            block, out = spec[: len(w)], rows[: len(w)]
            block[...] = 0.0
            real, imag = block.real, block.imag
            for run, target, c_re, c_im in runs:
                real[..., target] += w[..., run] * c_re
                imag[..., target] += w[..., run] * c_im
            real[..., [0, half]] *= 2.0
            imag[..., [0, half]] = 0.0
            np.fft.irfft(block, n=cols, norm="forward", out=out.transpose(0, 2, 1))
            for part, sheet in enumerate(targets):
                sheet[lo : lo + RING_BLOCK] = out[:, part * n : (part + 1) * n]
    return sheets


def harmonic_extension(spectrum: Spectrum, grid: PolarGrid) -> DiskField:
    """Extend each loop mode of frequency nu by r^nu onto the slit grid."""
    return DiskField(grid, *_eval_modes(spectrum, grid, grid.radii), spectrum.kind)


def _live_count(mass: np.ndarray, step: float, r: float) -> int:
    """Number of leading modes that hold every closed-form term mass_k *
    r^(step * k) that can differ from 0.0 times mass_k at radius r. For
    |r| <= 1 such a term has a nonzero mass and a power that does not round
    to 0.0: step * k * log2|r| >= UNDERFLOW_LOG2. For |r| > 1 it is every
    mode, since a power may overflow, and infinity times a zero mass is NaN.
    So a sum that leaves 0.0 in place of the powers past the count adds the
    dense sum's terms in its order, bit for bit. The powers are taken for
    the whole prefix, zero masses within it included: np.power takes a
    shortcut (x * x for exponent 2) when its exponent operand does not
    advance, as in a table of one column, and the shortcut rounds
    differently from the dense table's power."""
    a = abs(r)
    if not a <= 1:
        return len(mass)
    cut = len(mass)
    if a < 1:
        cut = 1 if a == 0 else int(UNDERFLOW_LOG2 / (step * math.log2(a))) + 1
    modes = np.flatnonzero(mass[:cut])
    return int(modes[-1]) + 1 if len(modes) else 0


def spectral_energy(spectrum: Spectrum, r: float = 1.0) -> float:
    """Closed-form Dirichlet energy of the spectral extension over the disk
    of radius r.

    Per loop: sum_k pi * k * (|A_k|^2 + |B_k|^2) * r^(2 * k * unit). The
    same index formula covers both classes: an unbranched mode k has
    frequency k over one period 2*pi, a branched mode k has frequency k/2
    integrated over the double cover. Modes are orthogonal on every circle,
    so no cross terms appear. The powers are taken for the ``_live_count``
    leading modes only; the other weights stay 0.0.
    """
    r = float(r)
    step = 2 * spectrum.frequency_unit
    total = 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        mass = _mass(cos, sin)
        k = np.arange(_live_count(mass, step, r))
        weight = np.zeros(len(mass))
        weight[: len(k)] = k * np.power(r, step * k)
        total += np.pi * np.sum(weight * mass)
    return float(total)


def spectral_profile(spectrum: Spectrum, radii) -> FrequencyProfile:
    """D, H and N of the spectral extension in closed form at the radii, as
    given: D is ``spectral_energy``; H per loop of period P (2*pi, or 4*pi
    for the double loop) is r (P |A_0|^2 + (P/2) sum_k r^(2 nu_k) (|A_k|^2 +
    |B_k|^2)), the modes being orthogonal on every circle. N = r D / H is a
    mean of the nu_k whose weights move to larger nu_k as r grows, so it
    never decreases. ZeroBoundaryMass below EPS_BOUNDARY_MASS, scaled to
    the squared coefficients. H's table of powers fills the ``_live_count``
    leading modes of the largest |radius|, and holds 0.0 past them: a power
    that rounds to 0.0 there does so at every smaller radius."""
    radii = np.array(radii, dtype=float)
    unit = spectrum.frequency_unit
    largest = float(np.max(np.abs(radii), initial=0.0))
    H, masses = 0.0, []
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        mass = _mass(cos, sin)
        mass[0] *= 2.0  # P |A_0|^2 of the constant mode
        count = _live_count(mass, 2 * unit, largest)
        powers = np.zeros((len(radii), len(mass)))
        powers[:, :count] = np.power(radii[:, None], 2 * unit * np.arange(count))
        H = H + powers @ mass
        masses.append(mass)
    H *= np.pi / unit * radii  # P / 2 = pi / unit
    D = np.array([spectral_energy(spectrum, r) for r in radii])
    return FrequencyProfile.of(radii, D, H, scaled_tol(EPS_BOUNDARY_MASS, masses))


def _unit_binade(spectrum: Spectrum) -> Spectrum:
    """The spectrum with its tables and ``coeff_eps`` divided by the power
    of two that brings the largest |coefficient| into [0.5, 1). The
    division is exact but for a coefficient that it takes below the normal
    range."""
    _, exp = np.frexp(np.max(np.abs(spectrum.cos_coeffs + spectrum.sin_coeffs)))
    return replace(
        spectrum,
        cos_coeffs=tuple(np.ldexp(cos, -exp) for cos in spectrum.cos_coeffs),
        sin_coeffs=tuple(np.ldexp(sin, -exp) for sin in spectrum.sin_coeffs),
        coeff_eps=math.ldexp(spectrum.coeff_eps, -int(exp)),
    )


def folded_modes(spectrum: Spectrum, grid: PolarGrid) -> tuple[int, float]:
    """Modes carrying data that the grid cannot represent: their count and
    the share of ``spectral_energy`` the field loses with them.

    The grid samples a loop at cols angles, so the extension folds a mode
    k above cols/2 onto angular mode k mod cols (or its mirror) with its
    r^nu profile unchanged: the field then no longer matches the spectrum.
    A mode at exactly cols/2 keeps its cosine part, but its sine part
    vanishes at every node; it counts when that sine part is above
    ``spectrum.coeff_eps``, with the sine part's energy.

    Both are taken on ``_unit_binade(spectrum)``: no data scale makes them
    overflow or divide by zero, and they keep their bits wherever the
    division by a power of two neither underflows nor overflows.
    """
    spectrum = _unit_binade(spectrum)
    half = _columns(spectrum, grid) // 2
    eps = spectrum.coeff_eps
    count, energy = 0, 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = _present(cos, sin, eps)
        k = k[k > half]
        count += len(k)
        energy += np.pi * np.sum(k * _mass(cos[k], sin[k]))
        if half < len(sin) and max(abs(sin[half, 0]), abs(sin[half, 1])) > eps:
            count += 1
            energy += np.pi * half * squared_norm(sin[half])
    return count, (float(energy / spectral_energy(spectrum)) if count else 0.0)


def lowest_mode(spectrum: Spectrum) -> int:
    """Index of the lowest mode present (``_present``: kept by the
    extension) in any loop. Raises ZeroSpectrum when no mode is present."""
    k = np.concatenate([_present(cos, sin, spectrum.coeff_eps)[:1]
                        for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs)])
    if not len(k):
        raise ZeroSpectrum("no coefficient above threshold")
    return int(k.min())


def frequency_from_spectrum(spectrum: Spectrum) -> float:
    """Frequency at the origin read off the spectrum: the ``lowest_mode``
    dominates as r -> 0. A constant mode means the extension does not
    vanish at the origin, which forces frequency zero (the dichotomy).
    """
    return lowest_mode(spectrum) * spectrum.frequency_unit


@dataclass(frozen=True)
class MinimizeResult:
    """The spectral minimizer of one class on a grid.

    ``field``, the harmonic extension, and ``energy``, its quadrature
    energy over the unit disk, are computed on first read, so a run that
    reads only the spectrum builds neither. They are then kept in
    ``_field`` and ``_energy``, which ``dataclasses.replace`` carries over.
    """

    kind: Continuation
    spectrum: Spectrum
    grid: PolarGrid
    alt_energy: float | None = None
    _field: DiskField | None = None
    _energy: float | None = None

    def __post_init__(self):
        if self.alt_energy is not None and not self.energy <= self.alt_energy * (1 + 1e-12):
            raise ValueError(
                f"energy {self.energy!r} exceeds the other class's {self.alt_energy!r}"
            )

    @property
    def field(self) -> DiskField:
        if self._field is None:
            object.__setattr__(self, "_field", harmonic_extension(self.spectrum, self.grid))
        return self._field

    @property
    def energy(self) -> float:
        if self._energy is None:
            object.__setattr__(self, "_energy", dirichlet_energy(self.field, 1.0))
        return self._energy


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
    a run reads: the trace is lifted here and nowhere else. Its field and
    energy are built when first read, and for both classes when the class
    is chosen by energy.
    """

    def build(l: BoundaryLift) -> MinimizeResult:
        return MinimizeResult(l.kind, analyze_spectrum(l), grid)

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


def _sweep_decrease(u: np.ndarray, dtheta: float) -> float:
    """Relative discrete energy one reference Gauss-Seidel sweep removes."""
    swept = u.copy()
    _kernels.gs_sweep(swept, dtheta, 0)
    _kernels.gs_sweep(swept, dtheta, 1)
    _kernels.gs_center(swept)
    energy = _kernels.gs_energy(u, dtheta)
    return (energy - _kernels.gs_energy(swept, dtheta)) / (energy or 1.0)


def relax_oracle(field: DiskField) -> DiskField:
    """Independent minimizer of the discrete polar Dirichlet energy.

    Fixes ring n_r of each periodic stack (a sheet, or the swap class's
    double cover) to the field's outer ring and minimizes the five-point
    polar energy exactly (``_kernels.solve``: an FFT in angle and one
    tridiagonal solve in r per mode). One reference Gauss-Seidel sweep then
    checks the result: it must not lower the discrete energy by more than
    ``STATIONARY_TOL`` relative, else NotStationary is raised.
    """
    grid = field.grid
    rows = [field.sheet1[-1], field.sheet2[-1]]
    if field.seam is Continuation.SWAP:
        rows = [np.concatenate(rows)]
    stacks = [_kernels.solve(row, grid.n_r, grid.dtheta) for row in rows]
    for u in stacks:
        decrease = _sweep_decrease(u, grid.dtheta)
        if not decrease <= STATIONARY_TOL:
            raise NotStationary(
                f"a reference sweep lowers the discrete energy by {decrease:.3e}"
            )
    return DiskField.from_stacks(grid, stacks, field.seam)
