"""Blow-up extraction and identification against the homogeneous catalog.

Rescaling a field to the disk of radius r and normalizing to unit Dirichlet
energy produces, along shrinking radii, approximations of the blow-up limit
at the origin. For minimizers vanishing at the origin the limit is
homogeneous of degree N(0), its boundary mass equals 1/N(0), and its sheets
belong to the conformal catalog. ``identify_catalog`` checks the first and
the last by fitting a catalog entry; ``blowup_report`` sets the boundary
mass beside 1/N(0). The rescales are exact (``rescale_exact``): each is a
spectrum, read in closed form and on the unit circle, never on a grid.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, GridTooCoarse, NoCatalogMatch, ZeroEnergy
from .field import FrequencyProfile, PolarGrid, scaled_tol
from .forms import Continuation, FourTuple, HomogeneousPair, sheet_eval
from .minimizer import Spectrum, _eval_modes, _present, spectral_energy, spectral_profile
from .qpoint import pair_distance_arrays

ENERGY_EPS = 1e-14


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

    cauchy_defects[k] is the ``_circle_defect`` of the rescales at radii k
    and k+1. fields holds one rescale per radius, or only the last (see
    blowup_sequence).
    """

    radii: tuple
    fields: tuple
    cauchy_defects: tuple


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
    rescale reads the spectrum at the exact radius."""
    radii = tuple(float(r) for r in radii)
    grid.rings(radii)
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    return radii


def blowup_sequence(source, radii, keep_fields: bool = True) -> BlowupSequence:
    """The normalized rescales (``rescale_exact``) of ``source``, a
    MinimizeResult or an ExactRescale, along the checked radii, with the
    ``_circle_defect`` of each against the one before. With
    keep_fields=False only the last rescale, the limit, is kept: at most two
    are alive at once, and ``fields`` holds the limit alone."""
    radii = check_radii(radii, source.grid)
    fields, defects = [], []
    for r in radii:
        g = rescale_exact(source, r)
        if fields:
            defects.append(_circle_defect(fields[-1], g))
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


def _profile(g: ExactRescale, radii) -> FrequencyProfile:
    """The closed-form frequency profile of a rescale at the rings its grid
    reads for the radii."""
    return spectral_profile(g.spectrum, g.grid.radii[g.grid.rings(radii)])


def identify_catalog(g: ExactRescale) -> tuple[HomogeneousPair, float, float]:
    """Fit a normalized blow-up limit to a concrete catalog entry.

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
    ring1, ring2 = g.ring
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


def blowup_report(
    g: ExactRescale, entry: HomogeneousPair, fitted_N: float, residual: float
) -> dict:
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
