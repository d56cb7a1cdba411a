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
seven families. This module classifies tuples, solves the seam systems,
builds the full matching table, and enumerates concrete admissible entries.
"""

from __future__ import annotations

import enum
import itertools
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
        return FourTuple(-self.a, -self.b, -self.c, -self.d)


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


def _seam_system(t1: FourTuple, t2: FourTuple, cont: Continuation):
    """Linear system M @ (cos psi, sin psi) = v for the seam condition.

    Each sheet contributes two rows: its value at theta = 2*pi, which is
    (a cos psi + b sin psi, c cos psi + d sin psi) with psi = 2*pi*N, must
    equal the value at theta = 0 of its continuation partner, which is
    simply (a, c) of that partner.
    """
    a1, b1, c1, d1 = t1
    a2, b2, c2, d2 = t2
    M = np.array([[a1, b1], [c1, d1], [a2, b2], [c2, d2]], dtype=float)
    if cont is Continuation.IDENTITY:
        v = np.array([a1, c1, a2, c2], dtype=float)
    else:
        v = np.array([a2, c2, a1, c1], dtype=float)
    return M, v


_CANDIDATES = ((1.0, 0.0), (-1.0, 0.0))


def seam_solutions(
    t1: FourTuple, t2: FourTuple, cont: Continuation, tol: float = 1e-9
):
    """Solve the seam-matching system for one continuation.

    Returns FREQ_INTEGERS when the system forces (cos psi, sin psi) = (1, 0)
    (so N is any positive integer), FREQ_ODD_HALVES for (-1, 0) (N = k/2
    with k odd), and None when the system has no solution on the unit
    circle. A nondegenerate 2x2 subsystem is eliminated first and the
    remaining rows checked for consistency; rank-deficient systems fall back
    to testing the two candidate solutions directly, so an inconsistent
    residual always yields None rather than a spurious class.
    """
    t1 = FourTuple(*map(float, t1))
    t2 = FourTuple(*map(float, t2))
    scale = max(1.0, max(abs(x) for x in t1 + t2))
    atol = tol * scale
    if all(abs(x) <= atol for x in t1) and all(abs(x) <= atol for x in t2):
        raise DegeneratePair("both sheets are the zero form")

    M, v = _seam_system(t1, t2, cont)

    best = None
    for i, j in itertools.combinations(range(4), 2):
        det = M[i, 0] * M[j, 1] - M[i, 1] * M[j, 0]
        if best is None or abs(det) > abs(best[0]):
            best = (det, i, j)
    det, i, j = best

    if abs(det) > atol:
        rhs = np.array([v[i], v[j]])
        sub = np.array([[M[i, 0], M[i, 1]], [M[j, 0], M[j, 1]]])
        cos_psi, sin_psi = np.linalg.solve(sub, rhs)
        residual = float(np.max(np.abs(M @ (cos_psi, sin_psi) - v)))
        on_circle = abs(cos_psi**2 + sin_psi**2 - 1.0) <= 100 * atol
        if residual > 100 * atol or not on_circle:
            return None
        for (cs, sn), klass in zip(_CANDIDATES, (FREQ_INTEGERS, FREQ_ODD_HALVES)):
            if abs(cos_psi - cs) <= 1e-6 and abs(sin_psi - sn) <= 1e-6:
                return klass
        # Solvable, but not at one of the two closure points every conformal
        # pairing lands on; report as unmatchable.
        return None

    for (cs, sn), klass in zip(_CANDIDATES, (FREQ_INTEGERS, FREQ_ODD_HALVES)):
        residual = float(np.max(np.abs(M @ (cs, sn) - v)))
        if residual <= 100 * atol:
            return klass
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

    With sin psi = 0 the seam equations reduce to relations between the two
    parameter sets; for same-family pairs these are sign relations, read off
    here by comparing the recovered parameters.
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
    """Combine sum admissibility with the seam systems for both continuations."""
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


def _value_at_slit(tag: int, params: tuple) -> tuple[float, float]:
    """Sheet value at theta=0 (components (a, c) of the tuple)."""
    t = FormClass(tag, params).to_tuple()
    return (t.a, t.c)


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


def _symbolic_swap(tag_i: int, tag_j: int):
    """Generic swap closure for a form pair, with forced relations.

    With sin psi = 0 the swap seam system says the second sheet's value at
    the slit is cos psi times the first sheet's. cos psi = -1 gives the
    odd-half class; solvability is checked by inverting the slit-value map
    of family j on the negated generic value of family i. (cos psi = +1
    would force the two sheets equal, i.e. the doubled single-sheet case
    handled separately, so it is not reported as a swap class.)
    """
    params_i = tuple(_WITNESS_1[n] for n in _FORM_PARAM_NAMES[tag_i])
    a0, c0 = _value_at_slit(tag_i, params_i)
    params_j = _params_from_slit_value(tag_j, (-a0, -c0))
    if params_j is None:
        return None, ()
    if tag_i != tag_j:
        return FREQ_ODD_HALVES, ()
    relations = []
    for name, p, q in zip(_FORM_PARAM_NAMES[tag_i], params_i, params_j):
        relations.append(f"{name}'=-{name}" if q == -p else f"{name}'={name}")
    return FREQ_ODD_HALVES, tuple(relations)


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
    doubled single-sheet cases.

    Sum admissibility is computed on generic witness parameters (three
    independent sets, checked to agree: the inadmissible pairs are
    inadmissible for every admissible parameter choice). Identity closures
    are solved numerically on the witnesses; swap closures and their forced
    sign relations come from the exact slit-value analysis.
    """
    rows: list[TableRow] = []
    for i in range(1, 8):
        for j in range(i, 8):
            if (i, j) == (7, 7):
                rows.append(TableRow(7, 7, "identity", "excluded", "degenerate-pair"))
                rows.append(TableRow(7, 7, "swap", "excluded", "degenerate-pair"))
                continue
            verdicts = []
            for w1, w2 in ((_WITNESS_1, _WITNESS_2), (_WITNESS_2, _WITNESS_3)):
                s = classify_form(
                    _witness_form(i, w1).to_tuple().plus(_witness_form(j, w2).to_tuple())
                )
                verdicts.append(s.is_conformal)
            if verdicts[0] != verdicts[1]:
                raise RuntimeError(f"witness-dependent sum for ({i},{j})")
            if not verdicts[0]:
                note = "sum-not-admissible"
                rows.append(TableRow(i, j, "identity", "none", note))
                rows.append(TableRow(i, j, "swap", "none", note))
                continue

            t1 = _witness_form(i, _WITNESS_1).to_tuple()
            t2 = _witness_form(j, _WITNESS_2).to_tuple()
            identity = seam_solutions(t1, t2, Continuation.IDENTITY)
            if identity != FREQ_INTEGERS:
                raise RuntimeError(f"identity closure of ({i},{j}) is {identity}")
            rows.append(TableRow(i, j, "identity", identity, ""))

            swap, relations = _symbolic_swap(i, j)
            rows.append(
                TableRow(i, j, "swap", swap if swap else "none", ";".join(relations))
            )

    # Doubled single-sheet cases g = 2[[g1]]: one family, identity closure
    # only, integer homogeneity.
    for tag in range(1, 7):
        t = _witness_form(tag, _WITNESS_1).to_tuple()
        klass = seam_solutions(t, t, Continuation.IDENTITY)
        if klass != FREQ_INTEGERS:
            raise RuntimeError(f"doubled closure of F{tag} is {klass}")
        rows.append(TableRow(tag, tag, "doubled", klass, ""))
    return rows


def table_to_csv(rows: list[TableRow]) -> str:
    lines = ["form_i,form_j,continuation,frequency_class,constraints"]
    for row in rows:
        rec = row.as_record()
        lines.append(
            ",".join(
                rec[k]
                for k in (
                    "form_i",
                    "form_j",
                    "continuation",
                    "frequency_class",
                    "constraints",
                )
            )
        )
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


def _negated_params(tag: int, params: tuple) -> tuple:
    # The swap sign relations: primary parameter negated, l preserved.
    if tag in (5, 6):
        l, c = params
        return (l, -c)
    return tuple(-p for p in params)


_CROSS_IDENTITY_PAIRS = ((1, 4), (1, 5), (2, 3), (2, 6), (3, 6), (4, 5))


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
    entries: list[HomogeneousPair] = []
    for k in range(1, k_max + 1):
        N = k / 2.0
        if k % 2 == 1:
            for tag in range(1, 7):
                params = _draw_params(rng, tag)
                entry = HomogeneousPair(
                    N,
                    FormClass(tag, params).to_tuple(),
                    FormClass(tag, _negated_params(tag, params)).to_tuple(),
                    Continuation.SWAP,
                )
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
            for tag_i, tag_j in _CROSS_IDENTITY_PAIRS:
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
