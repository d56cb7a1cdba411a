"""Blow-up extraction and identification against the homogeneous catalog.

Rescaling a field to the disk of radius r and normalizing to unit Dirichlet
energy produces, along shrinking radii, approximations of the blow-up limit
at the origin. For minimizers vanishing at the origin the limit is
homogeneous of degree N(0), its boundary mass equals 1/N(0), and its sheets
belong to the conformal catalog. ``identify_catalog`` checks the first and
the last by fitting a catalog entry; ``blowup_report`` sets the boundary
mass beside 1/N(0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, GridTooCoarse, NoCatalogMatch, ZeroEnergy
from .field import (
    CENTER_EXCLUSION_RINGS,
    RING_BLOCK,
    DiskField,
    PolarGrid,
    _energy_ladder,
    boundary_mass,
    frequency_profile,
    scaled_tol,
)
from .forms import FourTuple, HomogeneousPair, sheet_eval
from .qpoint import pair_distance_arrays, pair_distance_buffers, squared_pair_distance

ENERGY_EPS = 1e-14


def rings_read(grid: PolarGrid, r: float) -> int:
    """The outermost source ring ``rescale_normalize`` reads at r: rings
    0..rings_read(grid, r) of a source are all it needs (n_r at r = 1)."""
    return int(grid.lerp(r)[0]) + 1


def rescale_normalize(field, r: float) -> DiskField:
    """Dilate the disk of radius r to the unit disk and normalize energy.

    ``field`` is a DiskField, or any source with its ``grid``, ``seam``,
    ``sheet1`` and ``sheet2`` whose sheets hold at least rings
    0..``rings_read(grid, r)``. Node (rho, theta) of the result takes the
    source's value at (r * rho, theta). Those are the grid's own angles, so
    the resample is linear in r between two whole rings at each angle and
    never crosses the seam. The result has unit discrete Dirichlet energy
    on the grid (exactly, by construction). Raises ZeroEnergy when there
    is nothing to normalize, ValueError when the source lacks a ring read.
    """
    grid = field.grid
    i0, fr = grid.lerp(r * grid.radii)
    fr = fr[:, None, None]
    if min(len(field.sheet1), len(field.sheet2)) < i0[-1] + 2:
        raise ValueError(f"the rescale at r={r} reads {i0[-1] + 2} rings of the source")
    # s[i0] * (1 - fr) + s[i0 + 1] * fr, RING_BLOCK output rings at a time.
    # The indices lie in the source's rings, so mode="clip" changes nothing,
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
class BlowupSequence:
    """Normalized rescalings along decreasing radii with Cauchy defects.

    cauchy_defects[k] is the sup pair distance between the fields at
    radii k and k+1 over nodes outside the center exclusion zone. fields
    holds one field per radius, or only the last (see blowup_sequence).
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


def check_radii(radii, grid: PolarGrid) -> tuple:
    """The radii as floats; they must pass the grid's radius rule
    (``PolarGrid.rings``) and strictly decrease. They are not snapped: the
    rescale reads the field at the exact radius."""
    radii = tuple(float(r) for r in radii)
    grid.rings(radii)
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    return radii


def blowup_sequence(field, radii, keep_fields: bool = True) -> BlowupSequence:
    """``rescale_normalize(field, r)`` along the checked radii, with the
    Cauchy defect of each field against the one before. ``field`` is a
    DiskField or a source that holds the rings the first radius reads. With
    keep_fields=False only the last field, the limit, is kept: at most two
    rescaled fields are alive at once, and ``fields`` holds the limit alone."""
    radii = check_radii(radii, field.grid)
    fields, defects = [], []
    for r in radii:
        g = rescale_normalize(field, r)
        if fields:
            defects.append(_cauchy_defect(fields[-1], g))
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


def identify_catalog(g: DiskField) -> tuple[HomogeneousPair, float, float]:
    """Fit a normalized blow-up limit to a concrete catalog entry.

    Fits N as the median of the frequency profile at _FIT_RADII and rounds
    it to the nearest half-integer, fits each sheet's boundary trace to the
    degree-N mode family, and asks HomogeneousPair.validate whether the
    pair under the field's seam is a catalog entry. Returns the entry, the
    fitted N and the sup-norm boundary residual.
    Raises NoCatalogMatch when the fitted degree is farther than 0.1 from a
    half-integer, when the trace has almost no content at that degree, or
    with validate's reason when the fitted entry fails it at BLOWUP_FIT_TOL;
    GridTooCoarse (``check_fit_grid``) when the grid cannot resolve
    _FIT_RADII.
    """
    check_fit_grid(g.grid)
    # the median of the profile, taken by hand: np.median imports numpy.ma
    N = np.sort(frequency_profile(g, _FIT_RADII).N)
    fitted = float((N[(len(N) - 1) // 2] + N[len(N) // 2]) / 2)
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
        entry.validate(BLOWUP_FIT_TOL)
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
    return {
        "fitted_N": fitted_N,
        "rounded_N": entry.N,
        "continuation": entry.continuation.value,
        "residual": residual,
        "boundary_mass": boundary_mass(g, 1.0),
        "1/N": 1.0 / entry.N,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
