"""Blow-up extraction and identification against the homogeneous catalog.

Rescaling a field to the disk of radius r and normalizing to unit Dirichlet
energy produces, along shrinking radii, approximations of the blow-up limit
at the origin. For minimizers vanishing at the origin the limit is
homogeneous of degree N(0), its boundary mass equals 1/N(0), and its sheets
belong to the conformal catalog. ``identify_catalog`` checks the first and
the last on the entry the limit's lowest mode makes, read exactly, not
fitted; ``blowup_report`` sets the boundary mass beside 1/N(0). The
rescales are exact (``rescale_exact``): each is a spectrum, read in closed
form and on the unit circle, never on a grid.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, NoCatalogMatch, ZeroEnergy
from .field import PolarGrid, scaled_tol
from .forms import Continuation, FourTuple, HomogeneousPair, sheet_eval
from .minimizer import (
    Spectrum,
    _eval_modes,
    _present,
    _unit_binade,
    lowest_mode,
    spectral_energy,
    spectral_profile,
)
from .qpoint import pair_distance_arrays, squared_norm

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
    of frequency nu times r^nu / sqrt(D), D the closed-form energy at r of
    the present modes alone. The others are left out, and the result's
    ``coeff_eps`` is 0. Raises ZeroEnergy when there is nothing to
    normalize. It is taken on ``_kept_modes(spectrum)``: the normalization
    undoes its exact division by a power of two, and no data scale makes it
    overflow."""
    return _rescale(source.grid, _kept_modes(source.spectrum), r)


def _kept_modes(spectrum: Spectrum) -> Spectrum:
    """``_unit_binade(spectrum)`` with every mode that is not present set to
    0.0, so that its ``spectral_energy`` is that of the modes a rescale
    keeps: no rounding-level mode below them takes it over as r -> 0."""
    spectrum = _unit_binade(spectrum)
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        absent = np.ones(len(cos), dtype=bool)
        absent[_present(cos, sin, spectrum.coeff_eps)] = False
        cos[absent] = sin[absent] = 0.0
    return spectrum


def _rescale(grid: PolarGrid, spectrum: Spectrum, r: float) -> ExactRescale:
    """``rescale_exact`` of a spectrum that ``_kept_modes`` returned."""
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
    return ExactRescale(grid, Spectrum(spectrum.kind, tuple(cos), tuple(sin), 0.0))


@dataclass(frozen=True)
class BlowupSequence:
    """Normalized rescalings along decreasing radii with Cauchy defects.

    cauchy_defects[k] is the ``_circle_defect`` of the rescales at radii k
    and k+1. fields holds one rescale per radius.
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
    axis=(0, 2))`` (``squared_norm`` per sheet, then the sheets)."""
    d = squared_norm(f.ring - g.ring)
    return float(np.sqrt(np.max(d[0] + d[1])))


def check_radii(radii) -> tuple:
    """The radii as floats; each must lie in (0, 1], and they must strictly
    decrease, a repeat being named. No grid enters: the rescale reads the
    spectrum at the exact radius, however close to the center."""
    radii = tuple(float(r) for r in radii)
    for r in radii:
        if not 0.0 < r <= 1.0:
            raise ValueError(f"radius {r} outside (0, 1]")
    for r1, r2 in zip(radii, radii[1:]):
        if r2 >= r1:
            raise ValueError(f"radius {r1} is given twice" if r2 == r1 else
                             "radii must be strictly decreasing")
    return radii


def blowup_sequence(source, radii) -> BlowupSequence:
    """The normalized rescales (``rescale_exact``) of ``source``, a
    MinimizeResult or an ExactRescale, along the checked radii, with the
    ``_circle_defect`` of each against the one before. The table of kept
    modes (``_kept_modes``) is built once, for every radius."""
    radii = check_radii(radii)
    spectrum = _kept_modes(source.spectrum)
    fields = tuple(_rescale(source.grid, spectrum, r) for r in radii)
    defects = tuple(_circle_defect(f, g) for f, g in zip(fields, fields[1:]))
    return BlowupSequence(radii, fields, defects)


_FIT_RADII = (0.25, 0.5, 0.75, 1.0)
# Classification tolerance of the limit's entry, absolute on a unit-energy
# entry: the higher modes a finite rescale keeps bend the limit's profile
# and sheets away from the exact entry, which is classified far below it.
BLOWUP_FIT_TOL = 0.05


def identify_catalog(g: ExactRescale) -> tuple[HomogeneousPair, float, float]:
    """Read a normalized blow-up limit as a concrete catalog entry.

    The entry is the limit's ``lowest_mode`` k, of degree N = k * unit:
    each loop's tuple (A_x, B_x, A_y, B_y) at mode k, divided by the square
    root of the entry's energy pi k sum_loops |A_k|^2 + |B_k|^2. In the swap
    class the second sheet is the first times (-1)^k. Returns the entry,
    the fitted N (the median of the closed-form N at the exact _FIT_RADII)
    and the sup over the grid's angles of the pair distance between the
    limit's ring and the entry's sheets. Raises NoCatalogMatch when the
    fitted N is farther than 0.1 from N, or with validate's reason when the
    entry fails it at BLOWUP_FIT_TOL.
    """
    spectrum = g.spectrum
    # the median of the profile, taken by hand: np.median imports numpy.ma
    profile = np.sort(spectral_profile(spectrum, _FIT_RADII).N)
    fitted = float((profile[(len(profile) - 1) // 2] + profile[len(profile) // 2]) / 2)
    k = lowest_mode(spectrum)
    N = k * spectrum.frequency_unit
    if abs(fitted - N) > 0.1:
        raise NoCatalogMatch(
            f"fitted degree {fitted:.4f} is not within 0.1 of the limit's degree {N:g}"
        )

    # per loop, mode k's (A_x, A_y) and (B_x, B_y); absent modes are 0.0
    modes = np.array([(cos[k], sin[k])
                      for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs)])
    # at degree 0 there is no energy to divide by, and validate names the degree
    norm = math.sqrt(np.pi * k * np.sum(np.square(modes))) or 1.0
    sheets = [FourTuple(*(m.T.ravel() / norm).tolist()) for m in modes]
    if g.seam is Continuation.SWAP:  # one turn on, mode k changes sign k times
        sheets.append(sheets[0].negated() if k % 2 else sheets[0])
    t1, t2 = sheets
    entry = HomogeneousPair(N, t1, t2, g.seam)
    try:
        entry.validate(BLOWUP_FIT_TOL)
    except DegeneratePair as exc:
        raise NoCatalogMatch("limit sheets are numerically zero") from exc
    except ValueError as exc:
        raise NoCatalogMatch(f"limit {exc}") from exc
    entry_ring = (sheet_eval(t, N, 1.0, g.grid.thetas) for t in (t1, t2))
    residual = float(pair_distance_arrays(*g.ring, *entry_ring).max())
    return entry, fitted, residual


def blowup_report(
    g: ExactRescale, entry: HomogeneousPair, fitted_N: float, residual: float
) -> dict:
    """JSON-ready summary of a blow-up identification. The boundary mass is
    H/D at rho = 1 of the limit ``g``: H(1) of a limit of unit energy."""
    profile = spectral_profile(g.spectrum, (1.0,))
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
