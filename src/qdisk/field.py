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

import functools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateField, GridTooCoarse, ZeroBoundaryMass
from .forms import Continuation, HomogeneousPair, sheet_eval
from .qpoint import pair_distance_arrays

EPS_BOUNDARY_MASS = 1e-14
# innermost rings below grid resolution: PolarGrid.rings keeps the profile
# and blow-up radii outside them and the blow-up's sup norms skip them,
# since interpolation noise amplifies there
CENTER_EXCLUSION_RINGS = 3


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
            if not np.allclose(arr[0], arr[0, 0], atol=1e-9):
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

    def stacks(self) -> list[np.ndarray]:
        """Angularly periodic views of the field.

        Identity seam: each sheet is periodic on its own. Swap seam: the two
        sheets concatenate into one array on the double cover (period 4*pi),
        so plain column wraparound implements the branched continuation.
        Always copies; callers may mutate the result.
        """
        if self.seam is Continuation.IDENTITY:
            return [self.sheet1.copy(), self.sheet2.copy()]
        return [np.concatenate([self.sheet1, self.sheet2], axis=1)]

    @classmethod
    def from_stacks(cls, grid: PolarGrid, stacks, seam: Continuation) -> "DiskField":
        """Field from periodic stacks (the inverse of ``stacks``). Takes the
        arrays: identity-class stacks become the sheets without a copy, so
        the caller must not write to them afterwards."""
        if seam is Continuation.IDENTITY:
            sheet1, sheet2 = stacks
        else:
            (cover,) = stacks
            sheet1 = cover[:, : grid.n_theta]
            sheet2 = cover[:, grid.n_theta :]
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
    """Sum of squares of each ring (axis 0) of a difference array."""
    return np.einsum("ijk,ijk->i", d, d)


# Rings per block of every blocked pass (_ring_energy, the mode evaluation,
# the blow-up's rescale and Cauchy defects): a difference array of a block
# is 512 KiB at n_theta = 1024.
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


def frequency(field: DiskField, r: float) -> float:
    """Frequency N(r) = r * D(r) / H(r) at the grid ring nearest r: the
    one-radius ``frequency_profile``, with its errors."""
    return float(frequency_profile(field, [r]).N[0])


@dataclass(frozen=True)
class FrequencyProfile:
    """Sampled map r -> (D, H, N) with extrapolated N(0).

    monotonicity_defect is the largest decrease of N between consecutive
    radii; positive values flag a violation of monotonicity.
    """

    radii: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray
    N0: float
    monotonicity_defect: float

    def to_csv(self, path) -> None:
        """r, D, H, N rows as %.17g, lines ending in CRLF."""
        values = np.column_stack([self.radii, self.D, self.H, self.N])
        with open(path, "wb") as fh:
            fh.write(b"r,D,H,N\r\n" + _csv_rows(values))


def frequency_profile(field: DiskField, radii) -> FrequencyProfile:
    """Evaluate D, H, N once on each ring ``PolarGrid.rings`` reads for the
    radii, ascending; extrapolate N(0) linearly.

    ``radii`` of the result are those rings' radii. The extrapolation is
    Richardson style from the two innermost rings; fields vanishing on one
    of the rings raise ZeroBoundaryMass.
    """
    grid = field.grid
    rings = grid.rings(radii)
    if not rings:
        raise ValueError("a frequency profile needs at least one radius")
    r = grid.radii[rings]
    H = np.array([boundary_mass(field, x) for x in r])
    for x, h_val in zip(r, H):
        if h_val <= EPS_BOUNDARY_MASS:
            raise ZeroBoundaryMass(f"boundary mass {h_val:.3e} at r={x}")
    D = field._cumulative_energy[rings]
    N = r * D / H

    slope = (N[1] - N[0]) / (r[1] - r[0]) if len(N) > 1 else 0.0
    n0 = float(N[0] - slope * r[0])
    defect = float(np.max(N[:-1] - N[1:])) if len(N) > 1 else 0.0
    return FrequencyProfile(r, D, H, N, n0, defect)


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

    x = np.clip(r, 0.0, 1.0) * grid.n_r
    i0 = np.minimum(x.astype(int), grid.n_r - 1)
    fr = x - i0

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
    (cover,) = field.stacks()
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


# Rings per block of save_field. A block holds about 380 bytes of text and
# temporaries per node (3 MiB at n_theta = 1024). On 256x1024, 8 rings were
# faster than 2, 4 or 16, and 32 raised peak RSS by 6 MiB.
DUMP_BLOCK = 8
DUMP_COLUMNS = ("ring_index", "angle_index", "sheet", "x", "y")

# Exact "%.17g" text of whole arrays. Each value's text is laid out in
# VALUE_WORDS uint32 words of NUL-padded ASCII in fixed columns; deleting the
# NUL bytes leaves the text:
#
#   words 0-4    "\0\0" sign d0 d1 ... d16: the integer digits
#   words 5-6    the point: "." (blank when no fraction digit is left), or
#                "0." and the zeros after it when |x| < 1
#   words 7-11   the same 17 digit places: the fraction digits, without the
#                trailing zeros
#   word 12      exponent, "e-05" or "e-06"
#
# d0 ... d16 and the exponent k come exactly from float64 arithmetic
# (_decimal17) for 1e-6 < |x| < 1e15. That is k in [-6, 14], fixed notation
# for k >= -4 and exponent notation (integer part d0) below. Every other
# value (zeros, subnormals, tiny or huge values, inf, nan) takes the text of
# "%.17g" % x one value at a time, left-aligned over the whole field.
VALUE_WORDS = 13
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
    n = np.arange(10000)
    quad = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    zeros = np.where(n == 0, 4, 0)  # trailing zeros of a 4-digit group
    for m in (10, 100, 1000):
        zeros += (n % m == 0) & (n != 0)
    k = np.arange(_K_MIN, _K_MAX + 1)
    split = np.where(k < -4, 0, k)  # index of the last integer digit
    place = np.arange(20) - 3  # digit index of each byte of words 0-4
    integer = (place >= 0) & (place <= split[:, None])
    fraction = (place >= 0) & (place > split[:, None])
    # fraction digits kept, per (k, trailing zeros of the 17 digits)
    fraction = fraction[:, None, :] & (place < 17 - np.arange(17)[:, None])
    point = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "." for e in k]
    exponent = [f"e-0{-e}" if e < -4 else "" for e in k]
    comma, crlf = _label_words([",", "\r\n"])[0]
    return SimpleNamespace(
        pow10=pow10, pow_hi=pow_hi, pow_lo=pow_lo,
        quad=(48 + quad).astype(np.uint8).view(np.uint32).ravel(),
        minus=_label_words(["\0\0-"])[0, 0],
        zeros=zeros,
        integer=(integer * 255).astype(np.uint8).view(np.uint32).T.copy(),
        fraction=(fraction * 255).astype(np.uint8).view(np.uint32).reshape(-1, 5).T.copy(),
        fraction_digits=16 - split,
        point=_label_words(point),
        exponent=_label_words(exponent)[0],
        comma=comma, crlf=crlf,
    )


def _product(a, p, t):
    """hi, lo with hi + lo == a * 10**p exactly (Dekker's TwoProduct)."""
    ah, al = _veltkamp(a)
    bh, bl = t.pow_hi[p], t.pow_lo[p]
    hi = a * t.pow10[p]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def _decimal17(a, t):
    """17 significant digits of each a in (1e-6, 1e15), correctly rounded.

    Returns int64 d in [10**16, 10**17) and the decimal exponent k in
    [-6, 14]: a rounds to d * 10**(k - 16), ties to even, as in "%.17g".
    With p = 16 - k in [2, 22], hi + lo == a * 10**p exactly, and
    hi >= 2**53 is an even integer. So hi + floor(lo) is the floor of the
    exact product, which has 17 digits exactly when k is right, and
    hi + rint(lo) is its rounding. That rounding never reaches 10**17: the
    largest double below each power of ten in the range lies more than 8
    units of the 17th digit below it.
    """
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, -6, 14, out=k)  # keeps 10**p exact; the check below corrects k
    hi, lo = _product(a, 16 - k, t)
    floor = hi.astype(np.int64) + np.floor(lo).astype(np.int64)
    off = (floor >= 10**17).astype(np.intp) - (floor < 10**16)
    redo = np.flatnonzero(off)
    k[redo] += off[redo]
    hi[redo], lo[redo] = _product(a[redo], 16 - k[redo], t)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def _text_words(x: np.ndarray, out: np.ndarray) -> None:
    """Write the "%.17g" text of each x into out, (VALUE_WORDS, len(x)) uint32."""
    t = _text_tables()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e15)
    d, k = _decimal17(np.where(fast, a, 1.0), t)
    row = k - _K_MIN
    groups = []  # d0, d1-d4, ..., d13-d16 as numbers
    rest = d
    for div in (10**16, 10**12, 10**8, 10**4):
        groups.append(rest // div)
        rest -= groups[-1] * div
    groups.append(rest)
    zeros = t.zeros[groups[1]]  # trailing zeros of d
    for g in groups[2:]:
        zeros = np.where(g == 0, zeros + 4, t.zeros[g])
    kept = row * 17 + zeros
    for j, g in enumerate(groups):
        digits = t.quad[g]  # word 0 reads "000" d0; the masks blank the "000"
        np.bitwise_and(digits, t.integer[j][row], out=out[j])
        np.bitwise_and(digits, t.fraction[j][kept], out=out[7 + j])
    out[0] |= np.signbit(x) * t.minus
    has_fraction = zeros < t.fraction_digits[row]
    np.multiply(t.point[0][row], has_fraction, out=out[5])
    np.multiply(t.point[1][row], has_fraction, out=out[6])
    np.take(t.exponent, row, out=out[12])
    slow = np.flatnonzero(~fast)
    text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{4 * VALUE_WORDS}")
    out[:, slow] = text.view(np.uint32).reshape(-1, VALUE_WORDS).T


def _csv_rows(values: np.ndarray, prefix: np.ndarray | None = None) -> bytes:
    """CSV lines of the "%.17g" text of values (rows, columns), CRLF-ended.

    prefix, if given, is (words, rows) NUL-padded text put before each line.
    """
    t = _text_tables()
    rows, cols = values.shape
    if prefix is None:
        prefix = np.empty((0, rows), dtype=np.uint32)
    head = len(prefix)
    stage = np.empty((head + cols * (VALUE_WORDS + 1), rows), dtype=np.uint32)
    stage[:head] = prefix
    for c in range(cols):
        at = head + c * (VALUE_WORDS + 1)
        _text_words(values[:, c], stage[at : at + VALUE_WORDS])
        stage[at + VALUE_WORDS] = t.comma if c < cols - 1 else t.crlf
    return stage.T.tobytes().translate(None, b"\0")


def dump_files(csv_path) -> tuple[Path, Path]:
    """The two files of a field dump: the CSV and its JSON header sidecar."""
    csv_path = Path(csv_path)
    return csv_path, csv_path.with_suffix(".json")


def save_field(field: DiskField, csv_path) -> None:
    """Write a field dump: CSV node rows plus a JSON header sidecar.

    One row per node, sheet 1 before sheet 2, ring by ring, angle by angle;
    values as %.17g (which round-trips every double), lines end in CRLF.
    """
    csv_path, sidecar = dump_files(csv_path)
    header = {
        "n_r": field.grid.n_r,
        "n_theta": field.grid.n_theta,
        "seam": field.seam.value,
    }
    sidecar.write_text(json.dumps(header, indent=2) + "\n")
    cols = field.grid.n_theta
    rings = _label_words(f"{i}," for i in range(field.grid.n_r + 1))
    try:
        fh = open(csv_path, "wb")
    except OSError:
        sidecar.unlink()  # no sidecar without its dump
        raise
    with fh:
        fh.write(",".join(DUMP_COLUMNS).encode() + b"\r\n")
        for sheet_id, arr in ((1, field.sheet1), (2, field.sheet2)):
            angles = _label_words(f"{j},{sheet_id}," for j in range(cols))
            for lo in range(0, len(arr), DUMP_BLOCK):
                block = arr[lo : lo + DUMP_BLOCK]
                n = len(block)
                prefix = np.concatenate([
                    np.broadcast_to(rings[:, lo : lo + n, None], (len(rings), n, cols)),
                    np.broadcast_to(angles[:, None, :], (len(angles), n, cols)),
                ])
                fh.write(_csv_rows(block.reshape(n * cols, 2), prefix.reshape(-1, n * cols)))


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
