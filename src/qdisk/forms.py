"""Exact algebra of homogeneous degree-N candidate sheets.

A candidate sheet is r^N (a cos(N theta) + b sin(N theta),
                          c cos(N theta) + d sin(N theta))
for a coefficient 4-tuple (a, b, c, d). Energy minimality forces each sheet
to be conformal, which pins the coefficients to

    a^2 + c^2 - b^2 - d^2 = 0   and   a*b + c*d = 0.

In complex coordinates the sheet is alpha z^N + beta zbar^N, alpha =
((a + d) + i(c - b))/2 and beta = ((a - d) + i(c + b))/2, and the pair is
alpha * conj(beta) = 0. Its real solutions are seven linear families: F1,
F4 and F5 are holomorphic (beta = 0) with alpha real, imaginary or general;
F2, F3 and F6 are antiholomorphic (alpha = 0) with beta real, imaginary or
general; F7 is zero. A two-valued function made of
two such sheets must in addition close up across the slit at theta = 0 vs
theta = 2*pi, either sheet-to-same-sheet (identity continuation) or
sheet-to-other-sheet (swap continuation), and the average of the two sheets
must itself be one of the seven families. This module classifies tuples,
states catalog membership once (HomogeneousPair.validate), builds the full
matching table by asking it, and enumerates concrete admissible entries.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePair

# Admissible frequency classes of a seam system.
FREQ_INTEGERS = "integers"  # N = k for positive integers k
FREQ_ODD_HALVES = "odd-halves"  # N = k/2 for odd positive integers k


class FourTuple(NamedTuple):
    """Sheet coefficients (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float

    def plus(self, other: "FourTuple") -> "FourTuple":
        return FourTuple(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def negated(self) -> "FourTuple":
        # 0.0 - x rather than -x keeps structural zeros +0.0
        return FourTuple(*(0.0 - x for x in self))


class Continuation(enum.Enum):
    """How the sheets connect across the slit from theta=2*pi back to 0."""

    IDENTITY = "identity"
    SWAP = "swap"


# Parameter names of F1..F7. Holomorphic (beta = 0): F1 alpha = d, F4
# alpha = -ib, F5 alpha = l c + ic. Antiholomorphic (alpha = 0): F2 beta = -d,
# F3 beta = ib, F6 beta = l c + ic.
_PARAM_NAMES = {1: ("d",), 2: ("d",), 3: ("b",), 4: ("b",), 5: ("l", "c"), 6: ("l", "c"), 7: ()}


def _family_parts(t) -> dict:
    """Per family F1..F7, in that order: the residuals that vanish on it and
    its coordinates at t, the parts of alpha or beta it keeps (F2 -Re beta,
    F4 -Im alpha)."""
    a, b, c, d = t
    re_alpha, im_alpha = 0.5 * (a + d), 0.5 * (c - b)
    re_beta, im_beta = 0.5 * (a - d), 0.5 * (b + c)
    return {
        1: ((a - d, b, c), (re_alpha,)),
        2: ((a + d, b, c), (0.5 * (d - a),)),
        3: ((a, d, b - c), (im_beta,)),
        4: ((a, d, b + c), (0.5 * (b - c),)),
        5: ((b + c, a - d), (re_alpha, im_alpha)),
        6: ((b - c, a + d), (re_beta, im_beta)),
        7: ((a, b, c, d), ()),
    }


@dataclass(frozen=True)
class FormClass:
    """A conformal family tag (1..7) with its free parameters.

    tag 0 is the non-conformal sentinel NOT_CONFORMAL; _PARAM_NAMES names
    the parameters.
    """

    tag: int
    params: tuple = ()

    @property
    def is_conformal(self) -> bool:
        return self.tag != 0

    @property
    def label(self) -> str:
        return f"F{self.tag}" if self.tag else "not-conformal"

    def param_names(self) -> tuple:
        return _PARAM_NAMES.get(self.tag, ())

    def to_tuple(self) -> FourTuple:
        """The family's sheet, written out so that the zeros the family
        forces are +0.0 and a negated parameter keeps its sign bit."""
        names = _PARAM_NAMES.get(self.tag)
        if names is None or len(self.params) != len(names):
            raise ValueError(f"cannot reconstruct from {self!r}")
        if self.tag in (5, 6):
            l, c = self.params
            lc = l * c
            return FourTuple(lc, -c, c, lc) if self.tag == 5 else FourTuple(lc, c, c, -lc)
        x = self.params[0] if self.params else 0.0
        return FourTuple(*{1: (x, 0.0, 0.0, x), 2: (-x, 0.0, 0.0, x), 3: (0.0, x, x, 0.0),
                           4: (0.0, x, -x, 0.0), 7: (0.0, 0.0, 0.0, 0.0)}[self.tag])

    def __str__(self):
        if not self.is_conformal:
            return "not-conformal"
        if not self.params:
            return self.label
        inner = ", ".join(
            f"{n}={v:.6g}" for n, v in zip(self.param_names(), self.params)
        )
        return f"{self.label}({inner})"


NOT_CONFORMAL = FormClass(0)


def conformal_defect(t: FourTuple) -> tuple[float, float]:
    """Residuals of the two conformality constraints; (0, 0) iff conformal.

    The tuple is scaled by 2^-k into [1, 2) before squaring and the
    residuals by 2^k twice after, which is exact unless a product is
    subnormal: a residual beyond the float range comes out infinite, never
    NaN, for finite input.
    """
    k = math.frexp(max(map(abs, t)))[1] - 1
    a, b, c, d = (math.ldexp(x, -k) for x in t)
    s = 2.0**k
    return ((a * a + c * c - b * b - d * d) * s * s, (a * b + c * d) * s * s)


def classify_form(t: FourTuple, tol: float = 1e-9) -> FormClass:
    """Classify a coefficient tuple into one of the seven conformal families.

    Returns NOT_CONFORMAL when the conformality defect exceeds ``tol``
    (absolute, on both constraints). Family side conditions (nonzero
    parameters) are enforced strictly at the same tolerance, so tuples on a
    family boundary are tagged with the lower-parameter family; candidates
    are tried in the order F1..F7. Raises ValueError for a non-finite entry
    or a ``tol`` that is not a number >= 0.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    t = FourTuple(*map(float, t))
    if not all(map(math.isfinite, t)):
        raise ValueError(f"non-finite coefficient in {t}")
    d1, d2 = conformal_defect(t)
    if max(abs(d1), abs(d2)) > tol:
        return NOT_CONFORMAL

    candidates = _on_families(t, tol)
    # Defect within tol but no family within tol of the tuple is treated as
    # not conformal rather than forced into a bad parameter fit.
    first = next(candidates, NOT_CONFORMAL)
    # The strict side conditions make the families disjoint on exact input.
    if tol <= 0 and next(candidates, None) is not None:
        raise RuntimeError(f"ambiguous exact classification of {t}")
    return first


def _on_families(t: FourTuple, tol: float):
    """Yield, in the order F1..F7, the form of each family whose residuals
    vanish on t and whose coordinates are nonzero, both within tol. The
    parameters (l, c) of F5 and F6 are read off their coordinates (l c, c)."""
    for tag, (residuals, coords) in _family_parts(t).items():
        if all(abs(x) <= tol for x in residuals) and all(abs(x) > tol for x in coords):
            yield FormClass(tag, (coords[0] / coords[1], coords[1]) if tag in (5, 6) else coords)


def sheet_eval(t: FourTuple, N: float, r, theta):
    """Evaluate the sheet r^N (a cos(N th) + b sin(N th), c cos... ).

    Broadcasts over array-valued ``r`` and ``theta``; the result has one
    trailing axis of length 2.
    """
    a, b, c, d = t
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    cs = np.cos(N * theta)
    sn = np.sin(N * theta)
    radial = np.power(r, N)
    out = np.stack(
        [radial * (a * cs + b * sn), radial * (c * cs + d * sn)], axis=-1
    )
    return out


def sheet_gradient(t: FourTuple, N: float, r, theta):
    """Cartesian Jacobian [[df1/dx, df1/dy], [df2/dx, df2/dy]] of a sheet.

    Closed form with phi = (N-1)*theta:
        df1/dx = N r^(N-1) (a cos phi + b sin phi)
        df2/dx = N r^(N-1) (c cos phi + d sin phi)
        df1/dy = N r^(N-1) (b cos phi - a sin phi)
        df2/dy = N r^(N-1) (d cos phi - c sin phi)
    For conformal tuples the columns are orthogonal with equal norms.
    """
    a, b, c, d = t
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r <= 0):
        raise ValueError("sheet_gradient requires r > 0")
    phi = (N - 1.0) * theta
    cs = np.cos(phi)
    sn = np.sin(phi)
    scale = N * np.power(r, N - 1.0)
    row1 = np.stack([scale * (a * cs + b * sn), scale * (b * cs - a * sn)], axis=-1)
    row2 = np.stack([scale * (c * cs + d * sn), scale * (d * cs - c * sn)], axis=-1)
    return np.stack([row1, row2], axis=-2)


def seam_solutions(t1: FourTuple, t2: FourTuple, tol: float = 1e-9):
    """Frequency class at which the two sheets close across the slit under
    the swap continuation.

    At degree N a sheet's value at theta = 2*pi is (a cos psi + b sin psi,
    c cos psi + d sin psi) with the seam angle psi = 2*pi*N. At N = k/2
    that angle is k*pi, so the value is (-1)^k (a, c), the sheet's slit
    value (its value at theta = 0) times (-1)^k. Swap closure holds at
    integers when the two slit values agree (FREQ_INTEGERS), at odd halves
    when they are opposite (FREQ_ODD_HALVES), and otherwise at no
    half-integer (None). Both comparisons are within
    tol * max(1, largest |coefficient|). Identity closure, every sheet back
    to itself, holds at every integer N; HomogeneousPair.validate states
    it.
    """
    atol = tol * max(1.0, max(abs(x) for x in t1 + t2))
    if max(abs(t2.a - t1.a), abs(t2.c - t1.c)) <= atol:
        return FREQ_INTEGERS
    if max(abs(t2.a + t1.a), abs(t2.c + t1.c)) <= atol:
        return FREQ_ODD_HALVES
    return None


def _swap_constraints(f1: FormClass, f2: FormClass) -> tuple:
    """Forced parameter relations of a swap closure, second-sheet parameters
    primed, e.g. ("d'=-d",).

    Swap closure ties the second sheet's slit value to the first's; for
    same-family pairs that is a sign relation between the parameter sets,
    read off here by comparing the parameters to 1e-9 * max(1, |p|).
    """
    if f1.tag != f2.tag or not f1.is_conformal or f1.tag == 7:
        return ()
    out = []
    for name, p, q in zip(f1.param_names(), f1.params, f2.params):
        tol = 1e-9 * max(1.0, abs(p))
        if abs(q + p) <= tol:
            out.append(f"{name}'=-{name}")
        elif abs(q - p) <= tol:
            out.append(f"{name}'={name}")
    return tuple(out)


# --- matching table over all form pairs -----------------------------------

# Fixed generic witness parameters: two independent sets with no accidental
# relations (p2 != +-p1 and no parameter equal to a sum of others), so the
# computed admissibility pattern is the generic one.
_WITNESS_1 = {"d": 0.83, "b": 0.67, "l": 1.29, "c": 0.54}
_WITNESS_2 = {"d": 0.59, "b": 1.71, "l": 0.86, "c": 1.13}
_WITNESS_3 = {"d": 1.37, "b": 0.41, "l": 0.52, "c": 1.93}


def _witness_form(tag: int, values: dict) -> FormClass:
    return FormClass(tag, tuple(values[n] for n in _PARAM_NAMES[tag]))


def _params_from_slit_value(tag: int, value: tuple[float, float]):
    """Invert the value-at-the-slit map for one family, if possible.

    Returns the parameter tuple of family ``tag`` whose sheet takes the
    given value (a, c) at theta=0, or None when the value is off the
    family's locus (respecting the nonzero side conditions exactly; witness
    values keep structural zeros exact). The slit value is alpha + beta =
    a + ic: F1 and F2 read d = +-a at c = 0, F3 and F4 b = +-c at a = 0, and
    F5 and F6 (l, c) = (a/c, c).
    """
    a, c = value
    if tag == 7:
        return None if a or c else ()
    if tag >= 5:
        return (a / c, c) if a and c else None
    kept, other = (a, c) if tag <= 2 else (c, a)
    if other or not kept:
        return None
    return (-kept,) if tag in (2, 4) else (kept,)


@dataclass(frozen=True)
class TableRow:
    """One matching-table row: a form pair under one continuation."""

    form_i: int
    form_j: int
    continuation: str  # "identity" | "swap" | "doubled"
    frequency_class: str  # FREQ_INTEGERS | FREQ_ODD_HALVES | "none" | "excluded"
    constraints: str

    def as_record(self) -> dict:
        return {
            "form_i": f"F{self.form_i}",
            "form_j": f"F{self.form_j}",
            "continuation": self.continuation,
            "frequency_class": self.frequency_class,
            "constraints": self.constraints,
        }


def _closes(N: float, f1: FormClass, f2: FormClass, continuation: Continuation) -> bool:
    """Whether validate accepts the sheets of two witness forms. Those are
    conformal and never both zero, so only the closure rules can refuse."""
    try:
        HomogeneousPair(N, f1.to_tuple(), f2.to_tuple(), continuation).validate()
    except ValueError:
        return False
    return True


def build_match_table() -> list[TableRow]:
    """Matching outcomes for all 28 unordered form pairs plus the six
    doubled single-sheet cases, each class asked of HomogeneousPair.validate.

    The identity row asks validate at N = 1 on generic witness parameters
    (three independent sets, paired twice and checked to agree: the
    inadmissible pairs are inadmissible for every admissible parameter
    choice). The swap row asks it at N = 1/2 of the first witness sheet and
    the family-j sheet whose slit value is its negative, and is "none" when
    family j has no such sheet.
    """
    rows: list[TableRow] = []
    for i in range(1, 8):
        for j in range(i, 8):
            if (i, j) == (7, 7):
                rows.append(TableRow(7, 7, "identity", "excluded", "degenerate-pair"))
                rows.append(TableRow(7, 7, "swap", "excluded", "degenerate-pair"))
                continue
            f_i = _witness_form(i, _WITNESS_1)
            admissible, check = (
                _closes(1.0, f, _witness_form(j, w), Continuation.IDENTITY)
                for f, w in ((f_i, _WITNESS_2), (_witness_form(i, _WITNESS_2), _WITNESS_3))
            )
            if admissible != check:
                raise RuntimeError(f"witness-dependent sum for ({i},{j})")
            if not admissible:
                note = "sum-not-admissible"
                rows.append(TableRow(i, j, "identity", "none", note))
                rows.append(TableRow(i, j, "swap", "none", note))
                continue
            rows.append(TableRow(i, j, "identity", FREQ_INTEGERS, ""))

            t_i = f_i.to_tuple()
            params_j = _params_from_slit_value(j, (-t_i.a, -t_i.c))
            f_j = None if params_j is None else FormClass(j, params_j)
            swap = f_j is not None and _closes(0.5, f_i, f_j, Continuation.SWAP)
            constraints = ";".join(_swap_constraints(f_i, f_j)) if swap else ""
            rows.append(TableRow(i, j, "swap", FREQ_ODD_HALVES if swap else "none", constraints))

    # Doubled single-sheet cases g = 2[[g1]]: one family, identity closure
    # only, integer homogeneity.
    rows += [TableRow(tag, tag, "doubled", FREQ_INTEGERS, "") for tag in range(1, 7)]
    return rows


def table_to_csv(rows: list[TableRow]) -> str:
    lines = ["form_i,form_j,continuation,frequency_class,constraints"]
    lines += [",".join(row.as_record().values()) for row in rows]
    return "\n".join(lines) + "\n"


def table_to_json(rows: list[TableRow]) -> str:
    return json.dumps([row.as_record() for row in rows], indent=2) + "\n"


# --- concrete catalog entries ----------------------------------------------


@dataclass(frozen=True)
class HomogeneousPair:
    """A concrete candidate: degree N, two sheets, continuation.

    ``validate`` is the one statement of catalog membership: 2N a positive
    integer, both sheets conformal, and the pair closing across the slit
    under its continuation, which for swap means odd 2N and opposite slit
    values, and for identity integer N and a conformal sum.
    """

    N: float
    t1: FourTuple
    t2: FourTuple
    continuation: Continuation

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ValueError naming the first rule the pair breaks, or
        DegeneratePair when both sheets are zero; return None for an entry."""
        k = 2.0 * self.N
        if abs(k - round(k)) > tol or round(k) < 1:
            raise ValueError(f"degree N={self.N:g} is not a positive half-integer")
        if not all(classify_form(t, tol).is_conformal for t in (self.t1, self.t2)):
            raise ValueError(f"tuples not conformal at tol={tol:g}: {self.t1}, {self.t2}")
        swap = self.continuation is Continuation.SWAP
        name = self.continuation.value
        if round(k) % 2 != swap:
            raise ValueError(
                f"degree N={self.N:g} does not suit {name} continuation, "
                f"which requires {'odd' if swap else 'even'} 2N"
            )
        t1, t2 = (FourTuple(*map(float, t)) for t in (self.t1, self.t2))
        scale = max(1.0, max(abs(x) for x in t1 + t2))
        if all(abs(x) <= tol * scale for x in t1 + t2):
            raise DegeneratePair("both sheets are the zero form")
        # the sheets' average must itself be a minimizer: their sum is conformal
        if not classify_form(t1.plus(t2), tol).is_conformal:
            raise ValueError(f"tuples do not close under {name}: their sum is not conformal")
        if swap and seam_solutions(t1, t2, tol) != FREQ_ODD_HALVES:
            raise ValueError("tuples do not close under swap: their slit values are not opposite")


def _draw_sheet(rng, tag: int) -> FourTuple:
    """A family-``tag`` sheet with parameters uniform on +-[0.1, 2]."""
    params = []
    for _ in _PARAM_NAMES[tag]:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        params.append(sign * rng.uniform(0.1, 2.0))
    return FormClass(tag, tuple(params)).to_tuple()


def enumerate_entries(k_max: int, parameter_seed=0) -> list[HomogeneousPair]:
    """Concrete admissible entries for every frequency N = k/2, k <= k_max.

    Odd k: one swap entry per family F1..F6 with the forced sign relations.
    Even k: identity entries from each same-family pair with independent
    parameters, the six admissible cross-family pairs, and two pairs with a
    zero sheet. Every entry passes validate; parameters are drawn from the
    given seed (or numpy Generator).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rng = (
        parameter_seed
        if isinstance(parameter_seed, np.random.Generator)
        else np.random.default_rng(parameter_seed)
    )
    identity_pairs = [(tag, tag) for tag in range(1, 7)]
    identity_pairs += [
        (row.form_i, row.form_j)
        for row in build_match_table()
        if row.continuation == "identity"
        and row.frequency_class == FREQ_INTEGERS
        and row.form_i < row.form_j < 7
    ]
    identity_pairs += [(1, 7), (3, 7)]
    entries: list[HomogeneousPair] = []
    for k in range(1, k_max + 1):
        N = k / 2.0
        if k % 2 == 1:
            for tag in range(1, 7):
                t = _draw_sheet(rng, tag)
                entries.append(HomogeneousPair(N, t, t.negated(), Continuation.SWAP))
        else:
            for i, j in identity_pairs:
                t1 = _draw_sheet(rng, i)
                t2 = _draw_sheet(rng, j)
                entries.append(HomogeneousPair(N, t1, t2, Continuation.IDENTITY))
    for entry in entries:
        entry.validate()
    return entries
