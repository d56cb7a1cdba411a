"""Discrete two-valued fields on the unit disk and frequency analytics.

A field is stored on a polar grid over the slit disk (slit along the
positive x-axis, theta in [0, 2*pi)): two sheet arrays plus a seam rule
saying how the sheets connect across theta = 2*pi back to 0. The swap seam
encodes a branched continuation; all angular differencing routes through
the seam so the discrete energy does not see the slit.

The frequency function N(r) = r * D(r) / H(r) combines the Dirichlet
energy D over the disk of radius r with the squared-distance-to-zero mass
H on its boundary circle; for energy minimizers it is nondecreasing in r
and its limit at 0 is the homogeneity degree of the blow-up.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateField, GridTooCoarse, ZeroBoundaryMass
from .forms import Continuation, HomogeneousPair, sheet_eval
from .qpoint import pair_distance_arrays

EPS_BOUNDARY_MASS = 1e-14
# how far a sheet's center ring may depart from one value
CENTER_RING_ATOL = 1e-9
# innermost rings below grid resolution: PolarGrid.rings keeps the profile,
# blow-up and catalog fit radii outside them, since quadrature and
# interpolation noise amplify there
CENTER_EXCLUSION_RINGS = 3


def scaled_tol(eps: float, reference) -> float:
    """A threshold ``eps`` on data whose largest |value| lies in [1, 2),
    for data like ``reference`` (an array, or arrays of one shape): eps *
    2^k, where the largest |reference| lies in [2^k, 2^(k+1)). Data scaled
    by 2^j meets every comparison as the data did: both sides scale exactly."""
    _, exponent = np.frexp(np.max(np.abs(reference)))
    return math.ldexp(eps, int(exponent) - 1)


@dataclass(frozen=True)
class PolarGrid:
    """Uniform polar grid: rings r_i = i/n_r, angles theta_j = 2*pi*j/n_theta."""

    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 4:
            raise GridTooCoarse(f"n_r must be >= 4, got {self.n_r}")
        if self.n_theta < 8 or self.n_theta % 2:
            # half-integer modes need even angular resolution
            raise GridTooCoarse(f"n_theta must be even and >= 8, got {self.n_theta}")

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def radii(self) -> np.ndarray:
        return np.arange(self.n_r + 1) / self.n_r

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    def ring_of(self, r: float) -> int:
        """Nearest grid ring to the requested radius."""
        if not 0.0 < r <= 1.0:
            raise ValueError(f"radius {r} outside (0, 1]")
        return int(round(r * self.n_r))

    def rings(self, radii) -> list[int]:
        """The distinct rings nearest the radii, ascending: the one radius
        rule of profiles and blow-ups. GridTooCoarse when a ring lies inside
        the center exclusion zone."""
        rings = set()
        for r in radii:
            i = self.ring_of(r)
            if i < CENTER_EXCLUSION_RINGS:
                raise GridTooCoarse(f"radius {r} is below {CENTER_EXCLUSION_RINGS} grid rings")
            rings.add(i)
        return sorted(rings)

    def lerp(self, rho):
        """(i0, fr): radius rho, clipped to [0, 1], reads rings i0 and i0 + 1,
        the second with weight fr (elementwise; i0 ascends with rho)."""
        x = np.clip(rho, 0.0, 1.0) * self.n_r
        i0 = np.minimum(x.astype(int), self.n_r - 1)
        return i0, x - i0


@dataclass(frozen=True)
class DiskField:
    """Two sheet arrays of shape (n_r + 1, n_theta, 2) plus the seam rule.

    Ring 0 duplicates the (logically single) center value of each sheet
    across all angles. The sheets are read-only views, so the energy up to
    each ring, computed on first use, stays valid for the field's lifetime.
    """

    grid: PolarGrid
    sheet1: np.ndarray
    sheet2: np.ndarray
    seam: Continuation

    def __post_init__(self):
        expected = (self.grid.n_r + 1, self.grid.n_theta, 2)
        for name in ("sheet1", "sheet2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != expected:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
            if not np.allclose(arr[0], arr[0, 0], atol=scaled_tol(CENTER_RING_ATOL, arr[-1])):
                raise ValueError(f"{name} center ring is not angle independent")
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @functools.cached_property
    def _cumulative_energy(self) -> np.ndarray:
        """_energy_ladder of the sheets: computed once, read-only."""
        ladder = _energy_ladder(self.grid, self.sheet1, self.sheet2, self.seam)
        ladder.flags.writeable = False
        return ladder

    @classmethod
    def from_stacks(cls, grid: PolarGrid, stacks, seam: Continuation) -> "DiskField":
        """Field from angularly periodic stacks.

        Identity seam: each sheet is periodic on its own, one stack per sheet.
        Swap seam: one stack on the double cover (period 4*pi), sheet 1 then
        sheet 2 along the angle, so plain column wraparound implements the
        branched continuation. Takes the arrays: identity-class stacks become
        the sheets without a copy, so the caller must not write to them
        afterwards; the halves of a swap-class cover are copied."""
        if seam is Continuation.IDENTITY:
            sheet1, sheet2 = stacks
        else:
            (cover,) = stacks
            sheet1, sheet2 = cover[:, : grid.n_theta], cover[:, grid.n_theta :]
        return cls(grid, sheet1, sheet2, seam)


def sample_field(entry: HomogeneousPair, grid: PolarGrid) -> DiskField:
    """Evaluate a homogeneous catalog entry on a polar grid."""
    r = grid.radii[:, None]
    theta = grid.thetas[None, :]
    return DiskField(
        grid,
        sheet_eval(entry.t1, entry.N, r, theta),
        sheet_eval(entry.t2, entry.N, r, theta),
        entry.continuation,
    )


def _ring_sums(d: np.ndarray) -> np.ndarray:
    """Sum of squares of each ring (axis 0) of a difference array. einsum
    sets no floating-point flag, so a sum that is not finite raises
    FloatingPointError here, as an overflowing square does elsewhere."""
    sums = np.einsum("ijk,ijk->i", d, d)
    if not np.isfinite(sums).all():
        raise FloatingPointError("overflow in a ring's sum of squares")
    return sums


# Rings per block of every blocked pass (_ring_energy and the mode
# evaluation): a difference array of a block is 512 KiB at n_theta = 1024.
RING_BLOCK = 32


def _ring_energy(
    grid: PolarGrid, s1: np.ndarray, s2: np.ndarray, seam: Continuation
) -> np.ndarray:
    """Angular integral of |grad|^2 * r per ring, summed over both sheets.

    Central differences in r and theta, one-sided in r at the outer
    boundary. The center ring contributes nothing: the polar Jacobian
    vanishes there. Angular differences wrap across the slit onto the same
    sheet (identity seam) or the other sheet (swap seam), as on the
    periodic stacks, read here from slices without building them. Rings
    are taken RING_BLOCK at a time; each ring's sums do not depend on the
    block.
    """
    n_r = grid.n_r
    radial = np.zeros(n_r + 1)
    angular = np.zeros(n_r + 1)
    swap = seam is Continuation.SWAP
    for sheet, across in ((s1, s2 if swap else s1), (s2, s1 if swap else s2)):
        for lo in range(1, n_r + 1, RING_BLOCK):
            hi = min(lo + RING_BLOCK, n_r + 1)
            inner = min(hi, n_r)  # rings with a neighbour on both sides
            d = sheet[lo + 1 : inner + 1] - sheet[lo - 1 : inner - 1]
            radial[lo:inner] += _ring_sums(d) / (2 * grid.dr) ** 2
            rings = sheet[lo:hi]
            angular[lo:hi] += _ring_sums(rings[:, 2:] - rings[:, :-2])
            # first and last angle: their neighbours lie across the slit
            first = rings[:, 1] - across[lo:hi, -1]
            last = across[lo:hi, 0] - rings[:, -2]
            angular[lo:hi] += _ring_sums(np.stack([first, last], axis=1))
        radial[-1:] += _ring_sums(sheet[-1:] - sheet[-2:-1]) / grid.dr**2
    angular[1:] /= (2 * grid.dtheta * grid.radii[1:]) ** 2
    return (radial + angular) * grid.dtheta * grid.radii


def _energy_ladder(
    grid: PolarGrid, s1: np.ndarray, s2: np.ndarray, seam: Continuation
) -> np.ndarray:
    """Trapezoid-accumulated Dirichlet energy up to each ring (one sweep).

    An Euler-Maclaurin endpoint correction removes the trapezoid's O(h^2)
    bias, which otherwise reaches percents on the steep ring profiles
    (integrand ~ rho^(2N-1)) of high-degree fields at inner radii.
    """
    g = _ring_energy(grid, s1, s2, seam)
    h = grid.dr
    out = np.zeros_like(g)
    out[1:] = np.cumsum(0.5 * (g[:-1] + g[1:]) * h)
    slope = np.gradient(g, h)
    out[1:] -= (h * h / 12.0) * (slope[1:] - slope[0])
    return np.maximum(out, 0.0)


def dirichlet_energy(field: DiskField, r: float) -> float:
    """Dirichlet energy of both sheets over the disk of radius r.

    r snaps to the nearest grid ring; quadrature is trapezoidal in both
    polar variables with the Jacobian rho.
    """
    return float(field._cumulative_energy[field.grid.ring_of(r)])


def boundary_mass(field: DiskField, r: float) -> float:
    """Squared-distance-to-zero mass on the circle of radius r."""
    grid = field.grid
    i = grid.ring_of(r)
    total = float(np.sum(field.sheet1[i] ** 2) + np.sum(field.sheet2[i] ** 2))
    return total * grid.dtheta * grid.radii[i]


@dataclass(frozen=True)
class FrequencyProfile:
    """Sampled map r -> (D, H, N).

    monotonicity_defect is the largest decrease of N between consecutive
    radii; positive values flag a violation of monotonicity.
    """

    radii: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray
    monotonicity_defect: float

    @classmethod
    def of(cls, radii, D, H, eps: float) -> "FrequencyProfile":
        """The profile of D and H at ascending radii, N = r D / H; a boundary
        mass H at most eps raises ZeroBoundaryMass."""
        for r, h_val in zip(radii, H):
            if h_val <= eps:
                raise ZeroBoundaryMass(f"boundary mass {h_val:.3e} at r={r}")
        N = radii * D / H
        defect = float(np.max(N[:-1] - N[1:])) if len(N) > 1 else 0.0
        return cls(radii, D, H, N, defect)

    def to_csv(self, path) -> None:
        """r, D, H, N rows as %.17g, lines ending in CRLF."""
        values = np.column_stack([self.radii, self.D, self.H, self.N])
        rows = "%.17g,%.17g,%.17g,%.17g\r\n" * len(values)
        with output_file(path) as fh:
            fh.write(("r,D,H,N\r\n" + rows % tuple(values.ravel().tolist())).encode())


def frequency_profile(field: DiskField, radii) -> FrequencyProfile:
    """Evaluate D, H, N once on each ring ``PolarGrid.rings`` reads for the
    radii, ascending.

    ``radii`` of the result are those rings' radii; fields vanishing on one
    of the rings (EPS_BOUNDARY_MASS, scaled) raise ZeroBoundaryMass.
    """
    grid = field.grid
    rings = grid.rings(radii)
    if not rings:
        raise ValueError("a frequency profile needs at least one radius")
    r = grid.radii[rings]
    H = np.array([boundary_mass(field, x) for x in r])
    eps = scaled_tol(EPS_BOUNDARY_MASS, np.square((field.sheet1[-1], field.sheet2[-1])))
    return FrequencyProfile.of(r, field._cumulative_energy[rings], H, eps)


def values_at(field: DiskField, r, theta) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation of both sheets at arbitrary (r, theta).

    Angular wraparound is seam aware: under a swap seam the interpolation
    runs on the double cover, so crossing the slit picks up the other
    sheet. Broadcasts over array input; returns (v1, v2) with trailing
    axis 2. At a node (ring radius, grid angle) it returns the stored
    values exactly.
    """
    grid = field.grid
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float)) % (2.0 * np.pi)

    i0, fr = grid.lerp(r)

    def interp(stack: np.ndarray, angles: np.ndarray) -> np.ndarray:
        cols = stack.shape[1]
        y = angles / grid.dtheta
        # a grid angle divides to within a few ulps of its node: read the node
        node = np.rint(y)
        y = np.where(np.abs(y - node) <= 4 * np.spacing(node), node, y)
        j0 = y.astype(int) % cols
        fj = (y - y.astype(int))[..., None]
        j1 = (j0 + 1) % cols
        low = stack[i0, j0] * (1 - fj) + stack[i0, j1] * fj
        high = stack[i0 + 1, j0] * (1 - fj) + stack[i0 + 1, j1] * fj
        return low * (1 - fr[..., None]) + high * fr[..., None]

    if field.seam is Continuation.IDENTITY:
        return interp(field.sheet1, theta), interp(field.sheet2, theta)
    cover = np.concatenate([field.sheet1, field.sheet2], axis=1)
    return interp(cover, theta), interp(cover, theta + 2.0 * np.pi)


def holder_fit(field: DiskField, samples: int, rng=None) -> float:
    """Cross-scale growth exponent fitted near the origin.

    Samples pairs (p, q) with |p| log-uniform over the resolved near-origin
    range and q much closer to the origin, then fits the least-squares
    slope of log pair-distance against log |p - q|. For an N-homogeneous
    field the cross-scale slope is N (pairs at a fixed scale ratio would
    cap it at 1).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(0) if rng is None else rng
    grid = field.grid
    lo = min(4 * grid.dr, 0.2)  # stay resolved, even on very coarse grids

    s = np.exp(rng.uniform(np.log(lo), np.log(0.4), size=samples))
    phi_p = rng.uniform(0.0, 2 * np.pi, size=samples)
    phi_q = rng.uniform(0.0, 2 * np.pi, size=samples)
    rq = s * rng.uniform(0.0, 0.05, size=samples)

    p1, p2 = values_at(field, s, phi_p)
    q1, q2 = values_at(field, rq, phi_q)
    dist = pair_distance_arrays(p1, p2, q1, q2)

    px = s * np.cos(phi_p) - rq * np.cos(phi_q)
    py = s * np.sin(phi_p) - rq * np.sin(phi_q)
    sep = np.hypot(px, py)

    keep = dist > 1e-13
    if not np.any(keep):
        raise DegenerateField("all sampled pair distances vanish")
    slope, _ = np.polyfit(np.log(sep[keep]), np.log(dist[keep]), 1)
    return float(slope)


def energy_decay_check(field: DiskField, s: float, r: float) -> tuple[float, float]:
    """Return (D(s*r), s*D(r)); minimizers satisfy lhs <= rhs.

    In two dimensions with lowest admissible homogeneity 1/2 the decay
    exponent is exactly 1.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    return dirichlet_energy(field, s * r), s * dirichlet_energy(field, r)


# --- serialization ----------------------------------------------------------


# Rows per block of save_field: a block is as many whole rings of one sheet
# as fit in DUMP_ROWS rows, or one ring when n_theta is larger. A block of a
# 256x1024 field peaks at about 250 bytes per row (2 MiB, tracemalloc); on
# that field 8192 rows were faster than 2048, 4096, 16384 or 32768.
DUMP_ROWS = 8192
DUMP_COLUMNS = ("ring_index", "angle_index", "sheet", "x", "y")

# Exact "%.17g" text of whole arrays. Each value's text is laid out in
# VALUE_WORDS uint32 words of NUL-padded ASCII in fixed columns; deleting the
# NUL bytes leaves the text:
#
#   words 0-1    the head: the sign; "0." and the zeros after it when
#                |x| < 1 in fixed notation; d0; and "." when d0 is the only
#                integer digit and a fraction digit follows
#   words 2-5    d1 ... d16: the integer digits after d0
#   word 6       "." after them, when a fraction digit follows
#   words 7-10   the same 16 digit places: the fraction digits, without the
#                trailing zeros
#   word 11      exponent, "e-05" or "e-06"
#
# d0 ... d16 and the exponent k come exactly from float64 arithmetic
# (_decimal17) for 1e-6 < |x| < 1e15. That is k in [-6, 14], fixed notation
# for k >= -4 and exponent notation (integer part d0) below. A zero takes
# d = 0 and k = 0, whose head is "0" or "-0" and whose other words are empty.
# Every other value (subnormals, tiny or huge values, inf, nan) takes the
# text of "%.17g" % x one value at a time, left-aligned over the staged words.
#
# A block (one column of _csv_rows) stages only the words that some value of
# it can fill: those a value of any exponent between the least and the
# greatest k of its fast values can use (_text_tables' `used`), and as many
# leading words as its longest zero or slow text needs. A block of k <= 0
# leaves out words 2-6, word 1 unless its range holds one of -4, -3, -2, and
# the exponent word unless it reaches below -4.
VALUE_WORDS = 12
_K_MIN, _K_MAX = -6, 14


def _label_words(texts) -> np.ndarray:
    """ASCII labels as (words, len(texts)) uint32 words, NUL-padded."""
    raw = [text.encode() for text in texts]
    width = 4 * -(-max(map(len, raw)) // 4)
    return np.array(raw, dtype=f"S{width}").view(np.uint32).reshape(len(raw), -1).T


def _veltkamp(a):
    """Split a into hi + lo of 26 bits each, whose products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _text_tables() -> SimpleNamespace:
    """Lookup tables of the formatter, built on first use (in memory byte
    order, so the words read back as text on any host)."""
    pow10 = 10.0 ** np.arange(23)  # exact in binary64 up to 10**22
    pow_hi, pow_lo = _veltkamp(pow10)
    quad = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = (quad[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)  # trailing zeros of a 4-digit group
    k = np.arange(_K_MIN, _K_MAX + 1)
    split = np.where(k < -4, 0, k)  # index of the last integer digit
    place = np.arange(1, 17)  # digit index of each byte of words 2-5 and 7-10
    integer = place <= split[:, None]
    # fraction digits kept, per (k, trailing zeros of the 17 digits)
    fraction = (place > split[:, None])[:, None, :] & (place < 17 - np.arange(17)[:, None])
    # per (k, sign, d0, whether a fraction digit follows)
    head = _label_words(
        "-" * negative + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "") + str(d0)
        + ("." if more and (e == 0 or e < -4) else "")
        for e in range(_K_MIN, _K_MAX + 1)
        for negative in (0, 1) for d0 in range(10) for more in (0, 1)
    )
    point = _label_words(["." if e > 0 else "" for e in k])[0]
    exponent = _label_words([f"e-0{-e}" if e < -4 else "" for e in k])[0]
    # the words a value of each exponent can fill
    used = np.concatenate([
        (head != 0).reshape(2, len(k), -1).any(axis=2).T,
        integer.reshape(len(k), 4, 4).any(axis=2),
        point[:, None] != 0,
        fraction.reshape(len(k), 17, 4, 4).any(axis=(1, 3)),
        exponent[:, None] != 0,
    ], axis=1)
    comma, crlf = _label_words([",", "\r\n"])[0]
    return SimpleNamespace(
        pow10=pow10, pow_hi=pow_hi, pow_lo=pow_lo,
        quad=(48 + quad).astype(np.uint8).view(np.uint32).ravel(),
        zeros=zeros,
        integer=(integer * 255).astype(np.uint8).view(np.uint32).T.copy(),
        fraction=(fraction * 255).astype(np.uint8).view(np.uint32).reshape(-1, 4).T.copy(),
        fraction_digits=16 - split,
        head=head, point=point, exponent=exponent, used=used,
        comma=comma, crlf=crlf,
    )


def _rounded(a, p, t):
    """a * 10**p rounded to an integer, ties to even, as int64.

    Dekker's TwoProduct gives hi + lo == a * 10**p exactly; for p <= 22 and
    a product >= 2**53, hi is an even integer, so hi + rint(lo) is the
    rounding of the exact product."""
    ah, al = _veltkamp(a)
    bh, bl = t.pow_hi[p], t.pow_lo[p]
    hi = a * t.pow10[p]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal17(a, t):
    """17 significant digits of each a in (1e-6, 1e15), correctly rounded.

    Returns int64 d in [10**16, 10**17) and the decimal exponent k in
    [-6, 14]: a rounds to d * 10**(k - 16), ties to even, as in "%.17g".
    d is the rounding of a * 10**(16 - k), with 16 - k in [2, 22]. It has
    17 digits exactly when k is right: with k one too small it is at least
    10**17; with k one too large the product lies more than 0.8 below
    10**16, and with k right more than 8 below 10**17, because the largest
    double below each power of ten in the range lies that far below it.
    """
    k = np.log10(a)
    np.floor(k, out=k)
    np.clip(k, -6, 14, out=k)  # keeps 10**p exact; the check below corrects k
    k = k.astype(np.intp)
    d = _rounded(a, 16 - k, t)
    # one unsigned compare: d - 10**16 wraps above 9 * 10**16 when d < 10**16
    wrong = (d - 10**16).view(np.uint64) >= 9 * 10**16
    if wrong.any():
        redo = np.flatnonzero(wrong)
        k[redo] += np.where(d[redo] < 10**16, -1, 1)
        d[redo] = _rounded(a[redo], 16 - k[redo], t)
    return d, k


def _text_words(x: np.ndarray, out: np.ndarray) -> int:
    """Write the "%.17g" text of each x into the first rows of out, uint32
    of at least VALUE_WORDS rows and len(x) columns: one row per word the
    block x stages, in order. Returns how many rows it wrote."""
    t = _text_tables()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e15)
    # the tables write a zero's text from d = 0 and k = 0; a slow value's
    # text replaces what they write for it
    other = np.flatnonzero(~fast)
    width = 1 if len(other) else 0  # words of the longest zero or slow text
    slow = other[a[other] != 0]
    if len(slow):
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=bytes)
        width = -(-text.itemsize // 4)
    a[other] = 1.0
    d, k = _decimal17(a, t)
    d[other] = 0
    row = k - _K_MIN
    # 17 digits as d0, d1-d4, ..., d13-d16, from one split at 10**8
    high = d // 10**8
    low = d - high * 10**8
    d0 = high // 10**8
    high -= d0 * 10**8
    groups = [d0]
    for half in (high, low):
        g = half // 10**4
        groups += [g, half - g * 10**4]
    # trailing zeros of d: from the last group, and further left only where
    # that group is 0
    zeros = t.zeros[groups[4]]
    redo = np.flatnonzero(groups[4] == 0)
    for g in groups[3:0:-1]:
        zeros[redo] += t.zeros[g[redo]]
        redo = redo[g[redo] == 0]
    more = zeros < t.fraction_digits[row]  # a fraction digit follows
    used = t.used[
        k.min(initial=_K_MAX, where=fast) - _K_MIN
        : k.max(initial=_K_MIN, where=fast) - _K_MIN + 1
    ].any(axis=0)
    used[:width] = True
    words = np.flatnonzero(used)
    # rows whose fraction words are not all digits
    partial = np.flatnonzero((k > 0) | (zeros > 0))
    kept = row[partial] * 17 + zeros[partial]
    head = ((row * 2 + np.signbit(x)) * 10 + d0) * 2 + more
    for col, w in zip(out, words):
        if w < 2:
            np.take(t.head[w], head, out=col, mode="clip")
        elif w < 6:
            np.take(t.quad, groups[w - 1], out=col, mode="clip")
            col &= t.integer[w - 2][row]
        elif w == 6:
            np.multiply(t.point[row], more, out=col)
        elif w < 11:
            np.take(t.quad, groups[w - 6], out=col, mode="clip")
            col[partial] &= t.fraction[w - 7][kept]
        else:
            np.take(t.exponent, row, out=col, mode="clip")
    if len(slow):
        text = text.astype(f"S{4 * len(words)}").view(np.uint32)
        out[: len(words), slow] = text.reshape(-1, len(words)).T
    return len(words)


def _csv_rows(values: np.ndarray, rings: np.ndarray, angles: np.ndarray) -> bytes:
    """CSV lines of a dump block: values (rings, angles, columns) of whole
    rings, one line per node, CRLF-ended. A line is its ring's label, its
    angle's label, then the "%.17g" text of its columns, comma-separated.

    rings and angles are (words, count) NUL-padded label text. The stage is
    word-major, one row per word of the layout: the labels broadcast into it
    and _text_words writes contiguous rows; one transposing copy interleaves
    them into lines.
    """
    t = _text_tables()
    n_rings, n_angles, cols = values.shape
    at = len(rings) + len(angles)
    stage = np.empty((at + cols * (VALUE_WORDS + 1), n_rings, n_angles), dtype=np.uint32)
    stage[: len(rings)] = rings[:, :, None]
    stage[len(rings) : at] = angles[:, None, :]
    stage = stage.reshape(len(stage), -1)
    values = values.reshape(-1, cols)
    for c in range(cols):
        at += _text_words(values[:, c], stage[at:])
        stage[at] = t.comma if c < cols - 1 else t.crlf
        at += 1
    staged = stage[:at].T.tobytes()
    del stage  # a dump that holds less at once leaves less heap to the work after it
    return staged.translate(None, b"\0")


@contextlib.contextmanager
def output_file(path):
    """Open path to write bytes; when a write or the close fails, remove
    the file before the error propagates, so no part of it is left. An open
    that fails creates nothing and removes nothing."""
    fh = open(path, "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def dump_files(csv_path) -> tuple[Path, Path]:
    """The two files of a field dump: the CSV and its JSON header sidecar."""
    csv_path = Path(csv_path)
    return csv_path, csv_path.with_suffix(".json")


def save_field(field: DiskField, csv_path) -> None:
    """Write a field dump: CSV node rows plus a JSON header sidecar.

    One row per node, sheet 1 before sheet 2, ring by ring, angle by angle;
    values as %.17g (which round-trips every double), lines end in CRLF.
    A dump that fails leaves neither file.
    """
    csv_path, sidecar = dump_files(csv_path)
    header = {
        "n_r": field.grid.n_r,
        "n_theta": field.grid.n_theta,
        "seam": field.seam.value,
    }
    with output_file(sidecar) as fh:
        fh.write((json.dumps(header, indent=2) + "\n").encode())
    n_r, cols = field.grid.n_r, field.grid.n_theta
    rings = _label_words(f"{i}," for i in range(n_r + 1))
    step = max(1, DUMP_ROWS // cols)  # whole rings per block
    try:
        with output_file(csv_path) as fh:
            fh.write(",".join(DUMP_COLUMNS).encode() + b"\r\n")
            for sheet_id, sheet in ((1, field.sheet1), (2, field.sheet2)):
                angles = _label_words(f"{j},{sheet_id}," for j in range(cols))
                for lo in range(0, n_r + 1, step):
                    fh.write(_csv_rows(sheet[lo : lo + step], rings[:, lo : lo + step], angles))
    except BaseException:
        sidecar.unlink()  # no sidecar without its dump
        raise


def load_field(csv_path) -> DiskField:
    """Read a save_field dump back bit-exactly.

    Raises ValueError unless the CSV has the dump header and exactly one row
    per (sheet, ring, angle) of the sidecar's grid, in the order save_field
    writes them; a truncated or edited dump never loads.
    """
    csv_path, sidecar = dump_files(csv_path)
    header = json.loads(sidecar.read_text())
    grid = PolarGrid(header["n_r"], header["n_theta"])
    seam = Continuation(header["seam"])
    rings, cols = grid.n_r + 1, grid.n_theta
    nodes = rings * cols
    with open(csv_path) as fh:
        if fh.readline().rstrip("\n") != ",".join(DUMP_COLUMNS):
            raise ValueError(f"{csv_path}: missing field dump header")
        with warnings.catch_warnings():
            # an empty body fails the row count below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (2 * nodes, len(DUMP_COLUMNS)):
        raise ValueError(
            f"{csv_path}: {rows.shape[0]} rows of {rows.shape[1]} columns, "
            f"expected {2 * nodes} of {len(DUMP_COLUMNS)}"
        )
    row = np.arange(2 * nodes)
    expected = np.column_stack([row % nodes // cols, row % cols, row // nodes + 1])
    if not np.array_equal(rows[:, :3], expected):
        raise ValueError(f"{csv_path}: rows do not list every node once in dump order")
    sheets = rows[:, 3:].reshape(2, rings, cols, 2)
    return DiskField(grid, sheets[0], sheets[1], seam)
