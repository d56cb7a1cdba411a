"""Blow-up extraction and identification against the homogeneous catalog.

Rescaling a field to the disk of radius r and normalizing to unit Dirichlet
energy produces, along shrinking radii, approximations of the blow-up limit
at the origin. For minimizers vanishing at the origin the limit is
homogeneous of degree N(0), its boundary mass equals 1/N(0), and its sheets
belong to the conformal catalog. ``identify_catalog`` checks the first and
the last by fitting a catalog entry; ``blowup_report`` sets the boundary
mass beside 1/N(0). A spectral minimizer's rescale is exact
(``rescale_exact``) and read without a grid field; ``rescale_normalize``
resamples a field that has no spectrum.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, GridTooCoarse, NoCatalogMatch, ZeroEnergy
from .field import (
    CENTER_EXCLUSION_RINGS,
    RING_BLOCK,
    DiskField,
    FrequencyProfile,
    PolarGrid,
    _energy_ladder,
    frequency_profile,
    scaled_tol,
)
from .forms import Continuation, FourTuple, HomogeneousPair, sheet_eval
from .minimizer import Spectrum, _eval_modes, _present, spectral_energy, spectral_profile
from .qpoint import pair_distance_arrays, pair_distance_buffers, squared_pair_distance

ENERGY_EPS = 1e-14


def rescale_normalize(field: DiskField, r: float) -> DiskField:
    """Dilate the disk of radius r to the unit disk and normalize energy.

    Node (rho, theta) of the result takes the field's value at (r * rho,
    theta). Those are the grid's own angles, so the resample is linear in r
    between two whole rings at each angle and never crosses the seam. The
    result has unit discrete Dirichlet energy on the grid (exactly, by
    construction). Raises ZeroEnergy when there is nothing to normalize.
    """
    grid = field.grid
    i0, fr = grid.lerp(r * grid.radii)
    fr = fr[:, None, None]
    # s[i0] * (1 - fr) + s[i0 + 1] * fr, RING_BLOCK output rings at a time.
    # The indices lie in the field's rings, so mode="clip" changes nothing,
    # but unlike the default it writes into out without a temporary copy.
    low, i1 = 1 - fr, i0 + 1
    # both sheets in one block, allocated before the block temporary
    sheets = np.empty((2, grid.n_r + 1) + field.sheet1.shape[1:])
    upper = np.empty((RING_BLOCK,) + field.sheet1.shape[1:])
    for sheet, lerp in zip((field.sheet1, field.sheet2), sheets):
        for lo in range(0, grid.n_r + 1, RING_BLOCK):
            rings = slice(lo, lo + RING_BLOCK)
            out = lerp[rings]
            high = upper[: len(out)]
            np.take(sheet, i0[rings], axis=0, out=out, mode="clip")
            out *= low[rings]
            np.take(sheet, i1[rings], axis=0, out=high, mode="clip")
            high *= fr[rings]
            out += high
    scale = _energy_ladder(grid, *sheets, field.seam)[grid.n_r]
    if scale <= scaled_tol(ENERGY_EPS, np.square(sheets[:, -1])):
        raise ZeroEnergy("rescaled field has numerically zero energy")
    sheets /= np.sqrt(scale)
    return DiskField(grid, *sheets, field.seam)


@dataclass(frozen=True)
class ExactRescale:
    """A normalized rescale of a spectral minimizer: ``spectrum`` has unit
    closed-form energy, and ``harmonic_extension(spectrum, grid)`` is the
    rescaled field, exact on the grid."""

    grid: PolarGrid
    spectrum: Spectrum

    @property
    def seam(self) -> Continuation:
        return self.spectrum.kind

    @functools.cached_property
    def ring(self) -> np.ndarray:
        """Both sheets on the unit circle at the grid's angles, (2, n_theta,
        2): the extension's outer ring, evaluated alone."""
        return _eval_modes(self.spectrum, self.grid, np.ones(1))[:, 0]


def rescale_exact(source, r: float) -> ExactRescale:
    """The normalized rescale at r of the ``spectrum`` of ``source`` (a
    MinimizeResult or an ExactRescale), on its ``grid``: each present mode
    of frequency nu times r^nu / sqrt(spectral_energy(spectrum, r)). The
    others are left out, and the result's ``coeff_eps`` is 0. Raises
    ZeroEnergy when there is nothing to normalize."""
    spectrum = source.spectrum
    loops = []  # per loop: its cosine and sine tables, mode nu times r^nu
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = _present(cos, sin, spectrum.coeff_eps)
        w = np.zeros((len(cos), 1))
        w[k] = np.power(r, k * spectrum.frequency_unit)[:, None]
        loops.append(np.stack([cos, sin]) * w)
    energy = spectral_energy(spectrum, r)
    if energy <= scaled_tol(ENERGY_EPS, np.square(loops)):
        raise ZeroEnergy("rescaled spectrum has numerically zero energy")
    cos, sin = np.stack(loops, axis=1) / np.sqrt(energy)
    return ExactRescale(source.grid, Spectrum(spectrum.kind, tuple(cos), tuple(sin), 0.0))


@dataclass(frozen=True)
class BlowupSequence:
    """Normalized rescalings along decreasing radii with Cauchy defects.

    cauchy_defects[k] measures how far the rescales at radii k and k+1 lie
    apart: ``_cauchy_defect`` of two fields, ``_circle_defect`` of two exact
    rescales. fields holds one rescale per radius, or only the last (see
    blowup_sequence).
    """

    radii: tuple
    fields: tuple
    cauchy_defects: tuple


def _cauchy_defect(f: DiskField, g: DiskField) -> float:
    """Sup pair distance between f and g outside the center exclusion zone,
    taken RING_BLOCK rings at a time in buffers allocated once: the largest
    squared distance, then one square root, which is the largest distance
    bit for bit, since the square root is correctly rounded and monotone.
    (Temporaries allocated per block fault their pages in again: 2,224
    minor faults per defect of two 256x1024 fields against 288, and 5.8
    against 3.5 ms.)"""
    n = f.grid.n_r + 1
    block_rings = min(RING_BLOCK, n - CENTER_EXCLUSION_RINGS)
    buffers = pair_distance_buffers((block_rings,) + f.sheet1.shape[1:])
    block_max = []
    for lo in range(CENTER_EXCLUSION_RINGS, n, RING_BLOCK):
        rings = slice(lo, lo + RING_BLOCK)
        sheets = f.sheet1[rings], f.sheet2[rings], g.sheet1[rings], g.sheet2[rings]
        work = [buffer[: len(sheets[0])] for buffer in buffers]
        block_max.append(squared_pair_distance(*sheets, work).max())
    return float(np.sqrt(np.max(block_max)))


def _circle_defect(f: ExactRescale, g: ExactRescale) -> float:
    """Largest labelled distance (sheet 1 to sheet 1, sheet 2 to sheet 2)
    between two exact rescales on the unit circle at the grid's angles. The
    sheets' difference is harmonic (on the double cover in the swap class),
    so by the maximum principle the labelled distance, and with it the pair
    distance, is largest on the circle: up to the circle's sampling, the
    defect bounds the two fields' pair distance over the whole disk. The
    squared distance adds its four terms in the order of ``np.sum(...,
    axis=(0, 2))``, without the reduction (see ``minimizer._present``)."""
    d = np.square(f.ring - g.ring)
    return float(np.sqrt(np.max((d[0, :, 0] + d[0, :, 1]) + (d[1, :, 0] + d[1, :, 1]))))


def check_radii(radii, grid: PolarGrid) -> tuple:
    """The radii as floats; they must pass the grid's radius rule
    (``PolarGrid.rings``) and strictly decrease. They are not snapped: the
    rescale reads the field at the exact radius."""
    radii = tuple(float(r) for r in radii)
    grid.rings(radii)
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    return radii


def blowup_sequence(source, radii, keep_fields: bool = True) -> BlowupSequence:
    """The normalized rescales of ``source`` along the checked radii, with
    the Cauchy defect of each against the one before: ``rescale_normalize``
    and ``_cauchy_defect`` for a DiskField, ``rescale_exact`` and
    ``_circle_defect`` for a spectral source (a MinimizeResult). With
    keep_fields=False only the last rescale, the limit, is kept: at most two
    are alive at once, and ``fields`` holds the limit alone."""
    radii = check_radii(radii, source.grid)
    if isinstance(source, DiskField):
        rescale, defect = rescale_normalize, _cauchy_defect
    else:
        rescale, defect = rescale_exact, _circle_defect
    fields, defects = [], []
    for r in radii:
        g = rescale(source, r)
        if fields:
            defects.append(defect(fields[-1], g))
            if not keep_fields:
                fields.clear()
        fields.append(g)
    return BlowupSequence(radii, tuple(fields), tuple(defects))


_FIT_RADII = (0.25, 0.5, 0.75, 1.0)
# Classification tolerance of the tuples fitted from finite-resolution
# blow-up limits; exact input is classified far below this fit noise.
BLOWUP_FIT_TOL = 0.05


def check_fit_grid(grid: PolarGrid) -> None:
    """GridTooCoarse, naming the catalog fit radii, when the grid's radius
    rule refuses one of the radii ``identify_catalog`` reads."""
    try:
        grid.rings(_FIT_RADII)
    except GridTooCoarse as exc:
        radii = ", ".join(f"{r:g}" for r in _FIT_RADII)
        raise GridTooCoarse(f"the catalog fit reads radii {radii}: {exc}") from exc


def _fit_sheet_tuple(values: np.ndarray, thetas: np.ndarray, N: float) -> FourTuple:
    """Least-squares coefficients of one sheet's boundary ring at degree N."""
    basis = np.stack([np.cos(N * thetas), np.sin(N * thetas)], axis=1)
    sol, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return FourTuple(*sol.T.ravel().tolist())


def _profile(g, radii) -> FrequencyProfile:
    """The frequency profile of a rescale at the rings its grid reads for
    the radii: a field's quadrature, an exact rescale's closed form."""
    if isinstance(g, DiskField):
        return frequency_profile(g, radii)
    return spectral_profile(g.spectrum, g.grid.radii[g.grid.rings(radii)])


def _boundary_ring(g) -> tuple[np.ndarray, np.ndarray]:
    """Both sheets of a rescale on the unit circle at its grid's angles."""
    return (g.sheet1[-1], g.sheet2[-1]) if isinstance(g, DiskField) else tuple(g.ring)


def identify_catalog(g) -> tuple[HomogeneousPair, float, float]:
    """Fit a normalized blow-up limit, a DiskField or an ExactRescale, to a
    concrete catalog entry.

    Fits N as the median of the frequency profile at _FIT_RADII and rounds
    it to the nearest half-integer, fits each sheet's boundary trace to the
    degree-N mode family, and asks HomogeneousPair.validate whether the
    pair under the seam is a catalog entry. Returns the entry, the fitted N
    and the sup-norm boundary residual.
    Raises NoCatalogMatch when the fitted degree is farther than 0.1 from a
    half-integer, when the trace has almost no content at that degree, or
    with validate's reason when the fitted entry fails it at BLOWUP_FIT_TOL;
    GridTooCoarse (``check_fit_grid``) when the grid cannot resolve
    _FIT_RADII.
    """
    check_fit_grid(g.grid)
    # the median of the profile, taken by hand: np.median imports numpy.ma
    N = np.sort(_profile(g, _FIT_RADII).N)
    fitted = float((N[(len(N) - 1) // 2] + N[len(N) // 2]) / 2)
    rounded = round(2.0 * fitted) / 2.0
    if abs(fitted - rounded) > 0.1:
        raise NoCatalogMatch(
            f"fitted degree {fitted:.4f} is not within 0.1 of a half-integer"
        )

    thetas = g.grid.thetas
    ring1, ring2 = _boundary_ring(g)
    t1 = _fit_sheet_tuple(ring1, thetas, rounded)
    t2 = _fit_sheet_tuple(ring2, thetas, rounded)
    scale = max(np.abs(ring1).max(), np.abs(ring2).max(), 1e-30)
    if max(abs(x) for x in (*t1, *t2)) <= 0.1 * scale:
        raise NoCatalogMatch(
            "boundary trace has almost no content at the fitted degree"
        )

    entry = HomogeneousPair(rounded, t1, t2, g.seam)
    try:
        entry.validate(BLOWUP_FIT_TOL)
    except DegeneratePair as exc:
        raise NoCatalogMatch("fitted sheets are numerically zero") from exc
    except ValueError as exc:
        raise NoCatalogMatch(f"fitted {exc}") from exc
    fit1 = sheet_eval(t1, rounded, 1.0, thetas)
    fit2 = sheet_eval(t2, rounded, 1.0, thetas)
    residual = float(pair_distance_arrays(ring1, ring2, fit1, fit2).max())
    return entry, fitted, residual


def blowup_report(g, entry: HomogeneousPair, fitted_N: float, residual: float) -> dict:
    """JSON-ready summary of a blow-up identification. The boundary mass is
    H/D at rho = 1 of the limit ``g``: H(1) of a limit of unit energy."""
    profile = _profile(g, (1.0,))
    return {
        "fitted_N": fitted_N,
        "rounded_N": entry.N,
        "continuation": entry.continuation.value,
        "residual": residual,
        "boundary_mass": float(profile.H[0] / profile.D[0]),
        "1/N": 1.0 / entry.N,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
