"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output) and enforces its runtime budget.
"""

import time

import numpy as np
import pytest

from conftest import random_trace

from qdisk.blowup import blowup_sequence, identify_catalog
from qdisk.field import (
    PolarGrid,
    boundary_mass,
    dirichlet_energy,
    energy_decay_check,
    frequency_profile,
    holder_fit,
    sample_field,
)
from qdisk.forms import (
    FREQ_INTEGERS,
    FREQ_ODD_HALVES,
    Continuation,
    FormClass,
    FourTuple,
    HomogeneousPair,
    build_match_table,
    enumerate_entries,
    sheet_eval,
    sheet_gradient,
)
from qdisk.minimizer import (
    BoundaryTrace,
    analyze_spectrum,
    frequency_from_spectrum,
    harmonic_extension,
    lift_boundary,
    minimize,
    relax_oracle,
    spectral_profile,
)

GRID = PolarGrid(64, 256)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


# Hand-transcribed matching table: 28 unordered form pairs under both
# continuations, plus the six doubled single-sheet rows. "none" rows carry
# the reason in the constraints column; (7,7) is excluded outright.
_INADMISSIBLE = {(1, 2), (1, 3), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)}
_SWAP_CONSTRAINTS = {
    1: "d'=-d",
    2: "d'=-d",
    3: "b'=-b",
    4: "b'=-b",
    5: "l'=l;c'=-c",
    6: "l'=l;c'=-c",
}


def _golden_table():
    rows = []
    for i in range(1, 8):
        for j in range(i, 8):
            if (i, j) == (7, 7):
                rows.append((7, 7, "identity", "excluded", "degenerate-pair"))
                rows.append((7, 7, "swap", "excluded", "degenerate-pair"))
            elif (i, j) in _INADMISSIBLE:
                rows.append((i, j, "identity", "none", "sum-not-admissible"))
                rows.append((i, j, "swap", "none", "sum-not-admissible"))
            else:
                rows.append((i, j, "identity", FREQ_INTEGERS, ""))
                if i == j:
                    rows.append((i, j, "swap", FREQ_ODD_HALVES, _SWAP_CONSTRAINTS[i]))
                else:
                    rows.append((i, j, "swap", "none", ""))
    for tag in range(1, 7):
        rows.append((tag, tag, "doubled", FREQ_INTEGERS, ""))
    return rows


def test_criterion_1_match_table_fidelity():
    start = time.perf_counter()
    rows = [
        (r.form_i, r.form_j, r.continuation, r.frequency_class, r.constraints)
        for r in build_match_table()
    ]
    elapsed = time.perf_counter() - start
    golden = _golden_table()
    ok = sorted(rows) == sorted(golden) and elapsed < 1.0
    detail = f"(62 rows, {elapsed * 1e3:.0f} ms)"
    if rows != golden:
        diff = set(map(tuple, rows)) ^ set(golden)
        detail += f" diff={sorted(diff)[:4]}"
    _report(1, ok, detail)


def test_criterion_2_half_integer_frequency():
    start = time.perf_counter()
    entries = enumerate_entries(8, 0)
    order = np.random.default_rng(0).permutation(len(entries))[:50]
    worst = 0.0
    worst_defect = -np.inf
    for idx in order:
        entry = entries[idx]
        field = sample_field(entry, GRID)
        profile = frequency_profile(field, (0.25, 0.5, 0.75, 1.0))
        worst = max(worst, float(np.max(np.abs(profile.N - entry.N))))
        worst_defect = max(worst_defect, profile.monotonicity_defect)
    elapsed = time.perf_counter() - start
    _report(2, worst <= 0.02 and worst_defect <= 0.02 and elapsed < 60,
            f"(50 entries, max |N(r)-k/2| = {worst:.4f}, "
            f"max defect = {worst_defect:.4f}, {elapsed:.1f} s)")


def test_criterion_3_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    radii = np.linspace(0.25, 1.0, 16)
    worst = -np.inf
    for i in range(20):
        kind = Continuation.IDENTITY if i % 2 == 0 else Continuation.SWAP
        trace = random_trace(rng, kind)  # no constant mode: vanishes at 0
        result = minimize(trace, GRID)
        profile = frequency_profile(result.field, radii)
        worst = max(worst, profile.monotonicity_defect)
    elapsed = time.perf_counter() - start
    _report(3, worst <= 0.02 and elapsed < 120,
            f"(20 traces, max defect = {worst:.4f}, {elapsed:.1f} s)")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(20):
        kind = Continuation.IDENTITY if i < 10 else Continuation.SWAP
        trace = random_trace(rng, kind)
        spectral = minimize(trace, GRID)
        relaxed = relax_oracle(spectral.spectrum, GRID)
        gap = abs(dirichlet_energy(relaxed, 1.0) - spectral.energy) / spectral.energy
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(4, worst <= 0.01 and elapsed < 600,
            f"(20 traces, max gap = {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_5_blowup_identity():
    start = time.perf_counter()
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack(
        [
            np.cos(1.5 * cover) + 0.2 * np.cos(3.5 * cover),
            np.sin(1.5 * cover) + 0.2 * np.sin(3.5 * cover),
        ],
        axis=1,
    )
    trace = BoundaryTrace.from_values(loop[:n], loop[n:])
    # the CLI's route: exact rescales of the minimizer's spectrum
    limit = blowup_sequence(minimize(trace, GRID), (0.4, 0.2, 0.1)).fields[-1]
    entry, fitted, _residual = identify_catalog(limit)
    profile = spectral_profile(limit.spectrum, GRID.radii[GRID.rings((0.25, 0.5, 0.75, 1.0))])
    assert fitted == float(np.median(profile.N))
    H1 = float(profile.H[-1])  # H(1) of a limit of unit energy
    # cross-check: the quadrature's H(1) of the limit's grid field
    H1_grid = boundary_mass(harmonic_extension(limit.spectrum, GRID), 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(fitted - 1.5) <= 0.02
        and entry.N == 1.5
        and entry.continuation is Continuation.SWAP
        and all(abs(h - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0) for h in (H1, H1_grid))
    )
    _report(5, ok, f"(N fitted {fitted:.4f}, H(1) = {H1:.4f} closed form, "
                   f"{H1_grid:.4f} quadrature, vs 2/3, {elapsed:.1f} s)")


def test_criterion_6_dichotomy():
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    center = np.array([0.8, -0.3])
    trace = BoundaryTrace.from_values(center + 0.4 * z, center - 0.4 * z)
    spec_freq = frequency_from_spectrum(analyze_spectrum(lift_boundary(trace)))
    field = minimize(trace, GRID).field
    radii = np.linspace(4 / GRID.n_r, 1.0, 16)
    profile = frequency_profile(field, radii)
    ok = spec_freq == 0.0 and profile.N[0] <= 0.05
    _report(6, ok, f"(spectrum frequency {spec_freq}, N({radii[0]:.3f}) = {profile.N[0]:.4f})")


def test_criterion_7_holder_and_decay():
    start = time.perf_counter()
    half = HomogeneousPair(
        0.5, FourTuple(1, 0, 0, 1), FourTuple(-1, 0, 0, -1), Continuation.SWAP
    )
    slope = holder_fit(sample_field(half, GRID), 400, np.random.default_rng(3))
    decay_ok = True
    worst_ratio = 0.0
    for entry in enumerate_entries(8, 0):
        field = sample_field(entry, GRID)
        for s in (0.25, 0.5):
            lhs, rhs = energy_decay_check(field, s, 1.0)
            if rhs > 0:
                worst_ratio = max(worst_ratio, lhs / rhs)
            decay_ok = decay_ok and lhs <= rhs * 1.02
    elapsed = time.perf_counter() - start
    ok = abs(slope - 0.5) <= 0.05 and decay_ok
    _report(7, ok,
            f"(holder slope {slope:.4f}, max decay ratio {worst_ratio:.4f}, {elapsed:.1f} s)")


def test_criterion_8_conformality_and_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(4)

    # exact conformal identities on all six nonzero families
    ident_worst = 0.0
    for _ in range(200):
        tag = int(rng.integers(1, 7))
        n_params = 2 if tag in (5, 6) else 1
        params = tuple(rng.choice([-1, 1]) * rng.uniform(0.1, 2) for _ in range(n_params))
        t = FormClass(tag, params).to_tuple()
        N = rng.integers(1, 9) / 2.0
        jac = sheet_gradient(t, N, rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi))
        scale = float(np.sum(jac[:, 0] ** 2))
        ident_worst = max(
            ident_worst,
            abs(float(np.dot(jac[:, 0], jac[:, 1]))) / scale,
            abs(float(np.sum(jac[:, 0] ** 2) - np.sum(jac[:, 1] ** 2))) / scale,
        )

    # closed-form Jacobian vs central differences at 1000 random points
    fd_worst = 0.0
    step = 1e-6
    for _ in range(1000):
        t = FourTuple(*rng.uniform(-2, 2, size=4))
        N = rng.integers(1, 9) / 2.0
        r = rng.uniform(0.3, 1.2)
        th = rng.uniform(0.2, 2 * np.pi - 0.2)
        x, y = r * np.cos(th), r * np.sin(th)

        def eval_xy(px, py):
            rr = np.hypot(px, py)
            tt = np.arctan2(py, px) % (2 * np.pi)
            return sheet_eval(t, N, rr, tt)

        fd = np.empty((2, 2))
        fd[:, 0] = (eval_xy(x + step, y) - eval_xy(x - step, y)) / (2 * step)
        fd[:, 1] = (eval_xy(x, y + step) - eval_xy(x, y - step)) / (2 * step)
        jac = sheet_gradient(t, N, r, th)
        fd_worst = max(
            fd_worst, float(np.max(np.abs(jac - fd)) / max(np.max(np.abs(jac)), 1e-30))
        )
    elapsed = time.perf_counter() - start
    ok = ident_worst <= 1e-12 and fd_worst <= 1e-6
    _report(8, ok,
            f"(identity residual {ident_worst:.2e}, FD residual {fd_worst:.2e}, {elapsed:.1f} s)")
