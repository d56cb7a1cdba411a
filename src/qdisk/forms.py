"""Exact algebra of homogeneous degree-N candidate sheets.

A candidate sheet is r^N (a cos(N theta) + b sin(N theta),
                          c cos(N theta) + d sin(N theta))
for a coefficient 4-tuple (a, b, c, d). Energy minimality forces each sheet
to be conformal, which pins the coefficients to

    a^2 + c^2 - b^2 - d^2 = 0   and   a*b + c*d = 0.

The real solutions of this pair fall into exactly seven parametric families
(F1..F7 below). A two-valued function made of two such sheets must in
addition close up across the slit at theta = 0 vs theta = 2*pi, either
sheet-to-same-sheet (identity continuation) or sheet-to-other-sheet (swap
continuation), and the average of the two sheets must itself be one of the
seven families. This module classifies tuples, decides seam closure,
builds the full matching table, and enumerates concrete admissible entries.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePair

# Admissible frequency classes of a seam system.
FREQ_INTEGERS = "integers"  # N = k for positive integers k
FREQ_ODD_HALVES = "odd-halves"  # N = k/2 for odd positive integers k

_FORM_PARAM_NAMES = {
    1: ("d",),
    2: ("d",),
    3: ("b",),
    4: ("b",),
    5: ("l", "c"),
    6: ("l", "c"),
    7: (),
}


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
    F1/F2 -> (d,), F3/F4 -> (b,), F5/F6 -> (l, c), F7 -> ().
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
        return _FORM_PARAM_NAMES.get(self.tag, ())

    def to_tuple(self) -> FourTuple:
        if self.tag == 1:
            (d,) = self.params
            return FourTuple(d, 0.0, 0.0, d)
        if self.tag == 2:
            (d,) = self.params
            return FourTuple(-d, 0.0, 0.0, d)
        if self.tag == 3:
            (b,) = self.params
            return FourTuple(0.0, b, b, 0.0)
        if self.tag == 4:
            (b,) = self.params
            return FourTuple(0.0, b, -b, 0.0)
        if self.tag == 5:
            l, c = self.params
            return FourTuple(l * c, -c, c, l * c)
        if self.tag == 6:
            l, c = self.params
            return FourTuple(l * c, c, c, -l * c)
        if self.tag == 7:
            return FourTuple(0.0, 0.0, 0.0, 0.0)
        raise ValueError(f"cannot reconstruct from {self!r}")

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
    """Residuals of the two conformality constraints; (0, 0) iff conformal."""
    a, b, c, d = t
    return (a * a + c * c - b * b - d * d, a * b + c * d)


def classify_form(t: FourTuple, tol: float = 1e-9) -> FormClass:
    """Classify a coefficient tuple into one of the seven conformal families.

    Returns NOT_CONFORMAL when the conformality defect exceeds ``tol``
    (absolute, on both constraints). Family side conditions (nonzero
    parameters) are enforced strictly at the same tolerance, so tuples on a
    family boundary are tagged with the lower-parameter family; candidates
    are tried in the order F1..F7.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    t = FourTuple(*map(float, t))
    d1, d2 = conformal_defect(t)
    if max(abs(d1), abs(d2)) > tol:
        return NOT_CONFORMAL
    a, b, c, d = t

    candidates = []
    # F1: (d, 0, 0, d)
    p = 0.5 * (a + d)
    res = max(abs(a - d), abs(b), abs(c))
    if res <= tol and abs(p) > tol:
        candidates.append(FormClass(1, (p,)))
    # F2: (-d, 0, 0, d)
    p = 0.5 * (d - a)
    res = max(abs(a + d), abs(b), abs(c))
    if res <= tol and abs(p) > tol:
        candidates.append(FormClass(2, (p,)))
    # F3: (0, b, b, 0)
    p = 0.5 * (b + c)
    res = max(abs(a), abs(d), abs(b - c))
    if res <= tol and abs(p) > tol:
        candidates.append(FormClass(3, (p,)))
    # F4: (0, b, -b, 0)
    p = 0.5 * (b - c)
    res = max(abs(a), abs(d), abs(b + c))
    if res <= tol and abs(p) > tol:
        candidates.append(FormClass(4, (p,)))
    # F5: (l*c, -c, c, l*c)
    cc = 0.5 * (c - b)
    aa = 0.5 * (a + d)
    res = max(abs(b + c), abs(a - d))
    if res <= tol and abs(cc) > tol and abs(aa) > tol:
        candidates.append(FormClass(5, (aa / cc, cc)))
    # F6: (l*c, c, c, -l*c)
    cc = 0.5 * (b + c)
    aa = 0.5 * (a - d)
    res = max(abs(b - c), abs(a + d))
    if res <= tol and abs(cc) > tol and abs(aa) > tol:
        candidates.append(FormClass(6, (aa / cc, cc)))
    # F7: the zero tuple
    if max(abs(a), abs(b), abs(c), abs(d)) <= tol:
        candidates.append(FormClass(7))

    if not candidates:
        # Defect within tol but no family within tol of the tuple; treat as
        # not conformal rather than force a bad parameter fit.
        return NOT_CONFORMAL
    # The strict side conditions make the families disjoint on exact input.
    if len(candidates) > 1 and tol <= 0:
        raise RuntimeError(f"ambiguous exact classification of {t}")
    return candidates[0]


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


def seam_solutions(
    t1: FourTuple, t2: FourTuple, cont: Continuation, tol: float = 1e-9
):
    """Frequency class at which the two sheets close across the slit.

    At degree N a sheet's value at theta = 2*pi is (a cos psi + b sin psi,
    c cos psi + d sin psi) with the seam angle psi = 2*pi*N. At N = k/2
    that angle is k*pi, so the value is (-1)^k (a, c), the sheet's slit
    value (its value at theta = 0) times (-1)^k. Identity closure
    holds at every integer N: FREQ_INTEGERS. Swap closure holds at integers
    when the two slit values agree (FREQ_INTEGERS), at odd halves when they
    are opposite (FREQ_ODD_HALVES), and otherwise at no half-integer (None).
    Both comparisons are within tol * max(1, largest |coefficient|).
    """
    t1 = FourTuple(*map(float, t1))
    t2 = FourTuple(*map(float, t2))
    atol = tol * max(1.0, max(abs(x) for x in t1 + t2))
    if all(abs(x) <= atol for x in t1 + t2):
        raise DegeneratePair("both sheets are the zero form")
    if cont is Continuation.IDENTITY:
        return FREQ_INTEGERS
    if max(abs(t2.a - t1.a), abs(t2.c - t1.c)) <= atol:
        return FREQ_INTEGERS
    if max(abs(t2.a + t1.a), abs(t2.c + t1.c)) <= atol:
        return FREQ_ODD_HALVES
    return None


@dataclass(frozen=True)
class MatchOutcome:
    """Matching result for an ordered pair of sheets.

    identity_class / swap_class are FREQ_INTEGERS, FREQ_ODD_HALVES or None;
    both are forced to None when the summed tuple is inadmissible.
    ``constraints`` records forced parameter relations of the swap closure
    (second-sheet parameters primed), e.g. ("d'=-d",).
    """

    identity_class: str | None
    swap_class: str | None
    constraints: tuple
    sum_admissible: FormClass | None

    def __post_init__(self):
        if self.sum_admissible is None and (
            self.identity_class is not None or self.swap_class is not None
        ):
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
    """Combine sum admissibility with the seam rule for both continuations."""
    t1 = FourTuple(*map(float, t1))
    t2 = FourTuple(*map(float, t2))
    scale = max(1.0, max(abs(x) for x in t1 + t2))
    if all(abs(x) <= tol * scale for x in t1 + t2):
        raise DegeneratePair("both sheets are the zero form")

    # the sheets' average must itself be a minimizer: their sum is conformal
    sum_cls = classify_form(t1.plus(t2), tol)
    if not sum_cls.is_conformal:
        return MatchOutcome(None, None, (), None)

    identity = seam_solutions(t1, t2, Continuation.IDENTITY, tol)
    swap = seam_solutions(t1, t2, Continuation.SWAP, tol)
    constraints = ()
    if swap is not None:
        constraints = _swap_constraints(
            classify_form(t1, tol), classify_form(t2, tol), tol
        )
    return MatchOutcome(identity, swap, constraints, sum_cls)


# --- matching table over all form pairs -----------------------------------

# Fixed generic witness parameters: two independent sets with no accidental
# relations (p2 != +-p1 and no parameter equal to a sum of others), so the
# computed admissibility pattern is the generic one.
_WITNESS_1 = {"d": 0.83, "b": 0.67, "l": 1.29, "c": 0.54}
_WITNESS_2 = {"d": 0.59, "b": 1.71, "l": 0.86, "c": 1.13}
_WITNESS_3 = {"d": 1.37, "b": 0.41, "l": 0.52, "c": 1.93}


def _witness_form(tag: int, values: dict) -> FormClass:
    return FormClass(tag, tuple(values[n] for n in _FORM_PARAM_NAMES[tag]))


def _params_from_slit_value(tag: int, value: tuple[float, float]):
    """Invert the value-at-the-slit map for one family, if possible.

    Returns the parameter tuple of family ``tag`` whose sheet takes the
    given value at theta=0, or None when the value is off the family's
    locus (respecting the nonzero side conditions exactly; witness values
    keep structural zeros exact).
    """
    a0, c0 = value
    if tag == 1:
        return (a0,) if c0 == 0.0 and a0 != 0.0 else None
    if tag == 2:
        return (-a0,) if c0 == 0.0 and a0 != 0.0 else None
    if tag == 3:
        return (c0,) if a0 == 0.0 and c0 != 0.0 else None
    if tag == 4:
        return (-c0,) if a0 == 0.0 and c0 != 0.0 else None
    if tag in (5, 6):
        return (a0 / c0, c0) if c0 != 0.0 and a0 != 0.0 else None
    if tag == 7:
        return () if a0 == 0.0 and c0 == 0.0 else None
    raise ValueError(tag)


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
            rows.append(TableRow(i, j, "identity", outcome.identity_class, ""))

            params_j = _params_from_slit_value(j, (-t_i.a, -t_i.c))
            swap = (
                MatchOutcome(None, None, (), None)
                if params_j is None
                else match_pair(t_i, FormClass(j, params_j).to_tuple())
            )
            rows.append(
                TableRow(i, j, "swap", swap.swap_class or "none", ";".join(swap.constraints))
            )

    # Doubled single-sheet cases g = 2[[g1]]: one family, identity closure
    # only, integer homogeneity.
    for tag in range(1, 7):
        t = _witness_form(tag, _WITNESS_1).to_tuple()
        rows.append(TableRow(tag, tag, "doubled", match_pair(t, t).identity_class, ""))
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
    """A concrete admissible candidate: degree N, two sheets, continuation.

    Valid entries have 2N a positive integer, and swap continuations
    require 2N odd.
    """

    N: float
    t1: FourTuple
    t2: FourTuple
    continuation: Continuation

    def validate(self, tol: float = 1e-9) -> None:
        k = 2.0 * self.N
        if abs(k - round(k)) > tol or round(k) < 1:
            raise ValueError(f"2N must be a positive integer, got N={self.N}")
        outcome = match_pair(self.t1, self.t2, tol)
        if self.continuation is Continuation.SWAP:
            if int(round(k)) % 2 == 0:
                raise ValueError("swap continuation requires odd 2N")
            if outcome.swap_class != FREQ_ODD_HALVES:
                raise ValueError("sheet pair does not close under swap")
        else:
            if abs(self.N - round(self.N)) > tol:
                raise ValueError("identity continuation requires integer N")
            if outcome.identity_class != FREQ_INTEGERS:
                raise ValueError("sheet pair does not close under identity")


def _draw_params(rng, tag: int) -> tuple:
    """Parameters uniform on +-[0.1, 2], respecting the nonzero conditions."""
    out = []
    for _ in _FORM_PARAM_NAMES[tag]:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        out.append(sign * rng.uniform(0.1, 2.0))
    return tuple(out)


def enumerate_entries(k_max: int, parameter_seed=0) -> list[HomogeneousPair]:
    """Concrete admissible entries for every frequency N = k/2, k <= k_max.

    Odd k: one swap entry per family F1..F6 with the forced sign relations.
    Even k: identity entries from each same-family pair with independent
    parameters, the six admissible cross-family pairs, and two pairs with a
    zero sheet. Every entry passes match_pair; parameters are drawn from
    the given seed (or numpy Generator).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rng = (
        parameter_seed
        if isinstance(parameter_seed, np.random.Generator)
        else np.random.default_rng(parameter_seed)
    )
    cross_pairs = [
        (row.form_i, row.form_j)
        for row in build_match_table()
        if row.continuation == "identity"
        and row.frequency_class == FREQ_INTEGERS
        and row.form_i < row.form_j < 7
    ]
    entries: list[HomogeneousPair] = []
    for k in range(1, k_max + 1):
        N = k / 2.0
        if k % 2 == 1:
            for tag in range(1, 7):
                t = FormClass(tag, _draw_params(rng, tag)).to_tuple()
                entry = HomogeneousPair(N, t, t.negated(), Continuation.SWAP)
                entry.validate()
                entries.append(entry)
        else:
            for tag in range(1, 7):
                entry = HomogeneousPair(
                    N,
                    FormClass(tag, _draw_params(rng, tag)).to_tuple(),
                    FormClass(tag, _draw_params(rng, tag)).to_tuple(),
                    Continuation.IDENTITY,
                )
                entry.validate()
                entries.append(entry)
            for tag_i, tag_j in cross_pairs:
                entry = HomogeneousPair(
                    N,
                    FormClass(tag_i, _draw_params(rng, tag_i)).to_tuple(),
                    FormClass(tag_j, _draw_params(rng, tag_j)).to_tuple(),
                    Continuation.IDENTITY,
                )
                entry.validate()
                entries.append(entry)
            for tag in (1, 3):
                entry = HomogeneousPair(
                    N,
                    FormClass(tag, _draw_params(rng, tag)).to_tuple(),
                    FormClass(7).to_tuple(),
                    Continuation.IDENTITY,
                )
                entry.validate()
                entries.append(entry)
    return entries
