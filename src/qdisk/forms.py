"""Exact algebra of homogeneous degree-N candidate sheets.

A candidate sheet is r^N (a cos(N theta) + b sin(N theta),
                          c cos(N theta) + d sin(N theta))
for a coefficient 4-tuple (a, b, c, d). Energy minimality forces each sheet
to be conformal, which pins the coefficients to

    a^2 + c^2 - b^2 - d^2 = 0   and   a*b + c*d = 0.

The real solutions of this pair fall into exactly seven linear families,
F1..F7, each defined once in ``_FAMILIES`` by the rows that span it and the
rows that vanish on it; classification, reconstruction and the inverse of
the value at the slit all read that table. A two-valued function made of
two such sheets must in addition close up across the slit at theta = 0 vs
theta = 2*pi, either sheet-to-same-sheet (identity continuation) or
sheet-to-other-sheet (swap continuation), and the average of the two sheets
must itself be one of the seven families. This module classifies tuples,
decides seam closure, builds the full matching table, and enumerates
concrete admissible entries.
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


class _Family(NamedTuple):
    """One conformal family: the span of ``basis`` (rows over (a, b, c, d)
    with entries in {0, +-1} and exactly one nonzero among a and c), cut
    out by the vanishing of ``residuals``. The coordinates of a tuple are
    half its dot products with the basis rows; two-coordinate families
    carry the parameters (l, c) for the coordinates (l*c, c)."""

    names: tuple
    basis: tuple
    residuals: tuple


_FAMILIES = {
    1: _Family(("d",), ((1, 0, 0, 1),), ((1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0))),
    2: _Family(("d",), ((-1, 0, 0, 1),), ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))),
    3: _Family(("b",), ((0, 1, 1, 0),), ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, -1, 0))),
    4: _Family(("b",), ((0, 1, -1, 0),), ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0))),
    5: _Family(("l", "c"), ((1, 0, 0, 1), (0, -1, 1, 0)), ((0, 1, 1, 0), (1, 0, 0, -1))),
    6: _Family(("l", "c"), ((1, 0, 0, -1), (0, 1, 1, 0)), ((0, 1, -1, 0), (1, 0, 0, 1))),
    7: _Family((), (), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
}


def _dot(row, values):
    """Dot product summing only the terms of nonzero entries, negated for
    -1: no 0*x term turns -0.0 into +0.0, so results are bitwise those of
    the written-out sums (d - a == -a + d, -(l*c) == (-l)*c)."""
    total = None
    for w, x in zip(row, values):
        if w:
            term = x if w > 0 else -x
            total = term if total is None else total + term
    return 0.0 if total is None else total


def _params_of(coords) -> tuple:
    """Family parameters of basis coordinates: (l, c) for (l*c, c)."""
    if len(coords) == 2:
        return (coords[0] / coords[1], coords[1])
    return tuple(coords)


def _coords_of(params) -> tuple:
    """Inverse of _params_of."""
    if len(params) == 2:
        return (params[0] * params[1], params[1])
    return tuple(params)


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


@dataclass(frozen=True)
class FormClass:
    """A conformal family tag (1..7) with its free parameters.

    tag 0 is the non-conformal sentinel NOT_CONFORMAL. Parameter order:
    F1/F2 -> (d,), F3/F4 -> (b,), F5/F6 -> (l, c), F7 -> (), as in _FAMILIES.
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
        family = _FAMILIES.get(self.tag)
        return family.names if family else ()

    def to_tuple(self) -> FourTuple:
        family = _FAMILIES.get(self.tag)
        if family is None or len(self.params) != len(family.names):
            raise ValueError(f"cannot reconstruct from {self!r}")
        coords = _coords_of(self.params)
        return FourTuple(*(_dot([row[k] for row in family.basis], coords) for k in range(4)))

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
    vanish on t and whose coordinates are nonzero, both within tol."""
    for tag, family in _FAMILIES.items():
        if any(abs(_dot(row, t)) > tol for row in family.residuals):
            continue
        coords = [0.5 * _dot(row, t) for row in family.basis]
        if all(abs(x) > tol for x in coords):
            yield FormClass(tag, _params_of(coords))


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


@dataclass(frozen=True)
class MatchOutcome:
    """Matching result for an ordered pair of sheets.

    ``sum_admissible`` is the family of the summed tuple, or None when the
    sum is not conformal. An admissible pair closes under identity at the
    integers; ``swap_class`` is FREQ_INTEGERS, FREQ_ODD_HALVES or None, and
    None whenever the sum is inadmissible. ``constraints`` records forced
    parameter relations of the swap closure (second-sheet parameters
    primed), e.g. ("d'=-d",).
    """

    swap_class: str | None
    constraints: tuple
    sum_admissible: FormClass | None

    def __post_init__(self):
        if self.sum_admissible is None and self.swap_class is not None:
            raise ValueError("an inadmissible sum admits no closure class")


def _swap_constraints(f1: FormClass, f2: FormClass, tol: float) -> tuple:
    """Forced parameter relations when a swap closure exists.

    Swap closure ties the second sheet's slit value to the first's; for
    same-family pairs that is a sign relation between the parameter sets,
    read off here by comparing the recovered parameters.
    """
    if f1.tag != f2.tag or not f1.is_conformal or f1.tag == 7:
        return ()
    out = []
    for name, p, q in zip(f1.param_names(), f1.params, f2.params):
        if abs(q + p) <= tol * max(1.0, abs(p)):
            out.append(f"{name}'=-{name}")
        elif abs(q - p) <= tol * max(1.0, abs(p)):
            out.append(f"{name}'={name}")
    return tuple(out)


def match_pair(t1: FourTuple, t2: FourTuple, tol: float = 1e-9) -> MatchOutcome:
    """Combine sum admissibility with the swap seam rule."""
    t1 = FourTuple(*map(float, t1))
    t2 = FourTuple(*map(float, t2))
    scale = max(1.0, max(abs(x) for x in t1 + t2))
    if all(abs(x) <= tol * scale for x in t1 + t2):
        raise DegeneratePair("both sheets are the zero form")

    # the sheets' average must itself be a minimizer: their sum is conformal
    sum_cls = classify_form(t1.plus(t2), tol)
    if not sum_cls.is_conformal:
        return MatchOutcome(None, (), None)

    swap = seam_solutions(t1, t2, tol)
    constraints = ()
    if swap is not None:
        constraints = _swap_constraints(
            classify_form(t1, tol), classify_form(t2, tol), tol
        )
    return MatchOutcome(swap, constraints, sum_cls)


# --- matching table over all form pairs -----------------------------------

# Fixed generic witness parameters: two independent sets with no accidental
# relations (p2 != +-p1 and no parameter equal to a sum of others), so the
# computed admissibility pattern is the generic one.
_WITNESS_1 = {"d": 0.83, "b": 0.67, "l": 1.29, "c": 0.54}
_WITNESS_2 = {"d": 0.59, "b": 1.71, "l": 0.86, "c": 1.13}
_WITNESS_3 = {"d": 1.37, "b": 0.41, "l": 0.52, "c": 1.93}


def _witness_form(tag: int, values: dict) -> FormClass:
    return FormClass(tag, tuple(values[n] for n in _FAMILIES[tag].names))


def _params_from_slit_value(tag: int, value: tuple[float, float]):
    """Invert the value-at-the-slit map for one family, if possible.

    Returns the parameter tuple of family ``tag`` whose sheet takes the
    given value (a, c) at theta=0, or None when the value is off the
    family's locus (respecting the nonzero side conditions exactly; witness
    values keep structural zeros exact). Each basis row reads one of a and
    c, so its coordinate is that slit value, negated for a -1 entry.
    """
    rows = [(row[0], row[2]) for row in _FAMILIES[tag].basis]
    coords = [_dot(row, value) for row in rows]
    unread = [v for k, v in enumerate(value) if not any(row[k] for row in rows)]
    if any(unread) or 0.0 in coords:
        return None
    return _params_of(coords)


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


def build_match_table() -> list[TableRow]:
    """Matching outcomes for all 28 unordered form pairs plus the six
    doubled single-sheet cases, each class read from match_pair.

    Sum admissibility is computed on generic witness parameters (three
    independent sets, paired twice and checked to agree: the inadmissible
    pairs are inadmissible for every admissible parameter choice). The swap row
    matches the first witness sheet with the family-j sheet whose slit value
    is its negative, and is "none" when family j has no such sheet.
    """
    rows: list[TableRow] = []
    for i in range(1, 8):
        for j in range(i, 8):
            if (i, j) == (7, 7):
                rows.append(TableRow(7, 7, "identity", "excluded", "degenerate-pair"))
                rows.append(TableRow(7, 7, "swap", "excluded", "degenerate-pair"))
                continue
            t_i = _witness_form(i, _WITNESS_1).to_tuple()
            outcome = match_pair(t_i, _witness_form(j, _WITNESS_2).to_tuple())
            check = match_pair(
                _witness_form(i, _WITNESS_2).to_tuple(),
                _witness_form(j, _WITNESS_3).to_tuple(),
            )
            if (outcome.sum_admissible is None) != (check.sum_admissible is None):
                raise RuntimeError(f"witness-dependent sum for ({i},{j})")
            if outcome.sum_admissible is None:
                note = "sum-not-admissible"
                rows.append(TableRow(i, j, "identity", "none", note))
                rows.append(TableRow(i, j, "swap", "none", note))
                continue
            rows.append(TableRow(i, j, "identity", FREQ_INTEGERS, ""))

            params_j = _params_from_slit_value(j, (-t_i.a, -t_i.c))
            swap = (
                MatchOutcome(None, (), None)
                if params_j is None
                else match_pair(t_i, FormClass(j, params_j).to_tuple())
            )
            rows.append(
                TableRow(i, j, "swap", swap.swap_class or "none", ";".join(swap.constraints))
            )

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
        outcome = match_pair(self.t1, self.t2, tol)
        if outcome.sum_admissible is None:
            raise ValueError(f"tuples do not close under {name}: their sum is not conformal")
        if swap and outcome.swap_class != FREQ_ODD_HALVES:
            raise ValueError("tuples do not close under swap: their slit values are not opposite")


def _draw_sheet(rng, tag: int) -> FourTuple:
    """A family-``tag`` sheet with parameters uniform on +-[0.1, 2]."""
    params = []
    for _ in _FAMILIES[tag].names:
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
