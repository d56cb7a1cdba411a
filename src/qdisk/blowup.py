"""Blow-up extraction and identification against the homogeneous catalog.

Rescaling a field to the disk of radius r and normalizing to unit Dirichlet
energy produces, along shrinking radii, approximations of the blow-up limit
at the origin. For minimizers vanishing at the origin the limit is
homogeneous of degree N(0), its boundary mass equals 1/N(0), and its sheets
belong to the conformal catalog. ``identify_catalog`` checks the first and
the last by fitting a catalog entry; ``boundary_mass_identity`` the second.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, NoCatalogMatch, ZeroEnergy
from .field import (
    CENTER_EXCLUSION_RINGS,
    RING_BLOCK,
    DiskField,
    _energy_ladder,
    boundary_mass,
    frequency_profile,
)
from .forms import FourTuple, HomogeneousPair, sheet_eval
from .qpoint import pair_distance_arrays

ENERGY_EPS = 1e-14


def rescale_normalize(field: DiskField, r: float) -> DiskField:
    """Dilate the disk of radius r to the unit disk and normalize energy.

    Node (rho, theta) of the result takes the field's value at
    (r * rho, theta). Those are the field's own grid angles, so the
    resample is linear in r between two whole rings at each angle and never
    crosses the seam. The result has unit discrete Dirichlet energy on the
    field's grid (exactly, by construction). Raises ZeroEnergy when there
    is nothing to normalize.
    """
    grid = field.grid
    if field._cumulative_energy[grid.ring_of(r)] <= ENERGY_EPS:
        raise ZeroEnergy(f"Dirichlet energy at r={r} is numerically zero")
    x = np.clip(r * grid.radii, 0.0, 1.0) * grid.n_r
    i0 = np.minimum(x.astype(int), grid.n_r - 1)
    fr = (x - i0)[:, None, None]
    # s[i0] * (1 - fr) + s[i0 + 1] * fr, RING_BLOCK output rings at a time.
    # The indices lie in [0, n_r], so mode="clip" changes nothing, but unlike
    # the default it writes into out without a temporary copy.
    low, i1 = 1 - fr, i0 + 1
    upper = np.empty((RING_BLOCK,) + field.sheet1.shape[1:])
    sheets = []
    for sheet in (field.sheet1, field.sheet2):
        lerp = np.empty(sheet.shape)
        for lo in range(0, grid.n_r + 1, RING_BLOCK):
            rings = slice(lo, lo + RING_BLOCK)
            out = lerp[rings]
            high = upper[: len(out)]
            np.take(sheet, i0[rings], axis=0, out=out, mode="clip")
            out *= low[rings]
            np.take(sheet, i1[rings], axis=0, out=high, mode="clip")
            high *= fr[rings]
            out += high
        sheets.append(lerp)
    scale = _energy_ladder(grid, *sheets, field.seam)[grid.n_r]
    if scale <= ENERGY_EPS:
        raise ZeroEnergy("rescaled field has numerically zero energy")
    root = np.sqrt(scale)
    for sheet in sheets:
        sheet /= root
    return DiskField(grid, *sheets, field.seam)


@dataclass(frozen=True)
class BlowupSequence:
    """Normalized rescalings along decreasing radii with Cauchy defects.

    cauchy_defects[k] is the sup pair distance between fields k and k+1
    over nodes outside the center exclusion zone.
    """

    radii: tuple
    fields: tuple
    cauchy_defects: tuple


def _cauchy_defect(f: DiskField, g: DiskField) -> float:
    """Sup pair distance between f and g outside the center exclusion zone,
    taken RING_BLOCK rings at a time."""
    n = f.grid.n_r + 1
    block_max = [
        pair_distance_arrays(
            f.sheet1[lo : lo + RING_BLOCK], f.sheet2[lo : lo + RING_BLOCK],
            g.sheet1[lo : lo + RING_BLOCK], g.sheet2[lo : lo + RING_BLOCK],
        ).max()
        for lo in range(CENTER_EXCLUSION_RINGS, n, RING_BLOCK)
    ]
    return float(np.max(block_max))


def check_radii(radii, n_r: int) -> tuple:
    """The radii as floats; ValueError unless all lie CENTER_EXCLUSION_RINGS
    rings out on an n_r-ring grid and strictly decrease."""
    radii = tuple(float(r) for r in radii)
    if any(r * n_r < CENTER_EXCLUSION_RINGS for r in radii):
        raise ValueError(f"blow-up radii below grid resolution ({CENTER_EXCLUSION_RINGS} rings)")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    return radii


def blowup_sequence(field: DiskField, radii) -> BlowupSequence:
    radii = check_radii(radii, field.grid.n_r)
    fields = tuple(rescale_normalize(field, r) for r in radii)
    defects = tuple(_cauchy_defect(f, g) for f, g in zip(fields, fields[1:]))
    return BlowupSequence(radii, fields, defects)


def boundary_mass_identity(g: DiskField, N0: float) -> tuple[float, float]:
    """Return (H(1), 1/N0); equal for unit-energy blow-up limits."""
    if N0 <= 0:
        raise ValueError("N0 must be positive")
    return boundary_mass(g, 1.0), 1.0 / N0


_FIT_RADII = (0.25, 0.5, 0.75, 1.0)


def _fit_sheet_tuple(values: np.ndarray, thetas: np.ndarray, N: float) -> FourTuple:
    """Least-squares coefficients of one sheet's boundary ring at degree N."""
    basis = np.stack([np.cos(N * thetas), np.sin(N * thetas)], axis=1)
    sol, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return FourTuple(*sol.T.ravel().tolist())


def identify_catalog(
    g: DiskField, tol: float
) -> tuple[HomogeneousPair, float, float]:
    """Fit a normalized blow-up limit to a concrete catalog entry.

    Fits N as the median of the frequency profile at _FIT_RADII and rounds
    it to the nearest half-integer, fits each sheet's boundary trace to the
    degree-N mode family, and asks HomogeneousPair.validate whether the
    pair under the field's seam is a catalog entry. Returns the entry, the
    fitted N and the sup-norm boundary residual.
    Raises NoCatalogMatch when the fitted degree is farther than 0.1 from a
    half-integer, when the trace has almost no content at that degree, or
    with validate's reason when the fitted entry fails it at ``tol``.
    """
    profile = frequency_profile(g, _FIT_RADII)
    fitted = float(np.median(profile.N))
    rounded = round(2.0 * fitted) / 2.0
    if abs(fitted - rounded) > 0.1:
        raise NoCatalogMatch(
            f"fitted degree {fitted:.4f} is not within 0.1 of a half-integer"
        )

    thetas = g.grid.thetas
    t1 = _fit_sheet_tuple(g.sheet1[-1], thetas, rounded)
    t2 = _fit_sheet_tuple(g.sheet2[-1], thetas, rounded)
    scale = max(np.abs(g.sheet1[-1]).max(), np.abs(g.sheet2[-1]).max(), 1e-30)
    if max(abs(x) for x in (*t1, *t2)) <= 0.1 * scale:
        raise NoCatalogMatch(
            "boundary trace has almost no content at the fitted degree"
        )

    entry = HomogeneousPair(rounded, t1, t2, g.seam)
    try:
        entry.validate(tol)
    except DegeneratePair as exc:
        raise NoCatalogMatch("fitted sheets are numerically zero") from exc
    except ValueError as exc:
        raise NoCatalogMatch(f"fitted {exc}") from exc
    fit1 = sheet_eval(t1, rounded, 1.0, thetas)
    fit2 = sheet_eval(t2, rounded, 1.0, thetas)
    residual = float(
        pair_distance_arrays(g.sheet1[-1], g.sheet2[-1], fit1, fit2).max()
    )
    return entry, fitted, residual


def blowup_report(
    g: DiskField, entry: HomogeneousPair, fitted_N: float, residual: float
) -> dict:
    """JSON-ready summary of a blow-up identification."""
    H1, inv_n = boundary_mass_identity(g, entry.N)
    return {
        "fitted_N": fitted_N,
        "rounded_N": entry.N,
        "continuation": entry.continuation.value,
        "residual": residual,
        "boundary_mass": H1,
        "1/N": inv_n,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
