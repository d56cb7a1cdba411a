import hashlib
import itertools
import struct

import numpy as np
import pytest

from qdisk.errors import DegeneratePair
from qdisk.forms import (
    FREQ_INTEGERS,
    FREQ_ODD_HALVES,
    Continuation,
    FormClass,
    FourTuple,
    HomogeneousPair,
    NOT_CONFORMAL,
    _FAMILIES,
    _params_from_slit_value,
    build_match_table,
    classify_form,
    conformal_defect,
    enumerate_entries,
    match_pair,
    seam_solutions,
    sheet_eval,
    sheet_gradient,
)
from qdisk.qpoint import QPoint, pair_distance


def test_conformal_defect_examples():
    assert conformal_defect(FourTuple(1, 0, 0, 1)) == (0, 0)
    assert conformal_defect(FourTuple(1, 1, 1, 1)) == (0, 2)
    assert conformal_defect(FourTuple(3, -1, 1, 3)) == (0, 0)
    # squares beyond the float range: exact residuals, or infinite ones
    assert conformal_defect(FourTuple(1e200, 0, 0, 1e200)) == (0, 0)
    assert conformal_defect(FourTuple(1e160, 1e160, 1e160, -1e160)) == (0, 0)
    assert conformal_defect(FourTuple(1e200, 0, 0, 0)) == (float("inf"), 0)
    assert conformal_defect(FourTuple(0, 1e200, 0, 0)) == (float("-inf"), 0)
    assert conformal_defect(FourTuple(1e200, 1e200, 0, 0)) == (0, float("inf"))


def test_classify_form_examples():
    assert classify_form(FourTuple(1, 0, 0, 1)) == FormClass(1, (1.0,))
    assert classify_form(FourTuple(0, 2, -2, 0)) == FormClass(4, (2.0,))
    assert classify_form(FourTuple(1, 1, 1, 1)) is NOT_CONFORMAL
    assert classify_form(FourTuple(0, 0, 0, 0)) == FormClass(7)


def test_classify_all_families_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(500):
        tag = rng.integers(1, 8)
        n_params = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 0}[tag]
        params = tuple(
            float(s * rng.uniform(0.1, 2.0))
            for s in rng.choice([-1.0, 1.0], size=n_params)
        )
        form = FormClass(int(tag), params)
        t = form.to_tuple()
        got = classify_form(t)
        assert got.tag == form.tag
        np.testing.assert_allclose(got.params, params, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.to_tuple(), t, rtol=1e-12, atol=1e-12)


def test_constraint_form_equivalence_random():
    """Random tuples are conformal iff they classify into a family."""
    rng = np.random.default_rng(1)
    tuples = rng.uniform(-2, 2, size=(10**5, 4))
    d1 = tuples[:, 0] ** 2 + tuples[:, 2] ** 2 - tuples[:, 1] ** 2 - tuples[:, 3] ** 2
    d2 = tuples[:, 0] * tuples[:, 1] + tuples[:, 2] * tuples[:, 3]
    defect_ok = np.maximum(np.abs(d1), np.abs(d2)) <= 1e-9
    assert not defect_ok.any()  # the conformal variety has measure zero
    for row, ok in zip(tuples, defect_ok):
        assert classify_form(FourTuple(*row)).is_conformal == bool(ok)


def test_family_table_invariants():
    """Each family is the span of its basis rows and the null space of its
    residual rows; each basis row reads exactly one of a and c (the slit
    value); every combination of basis rows is conformal."""
    assert list(_FAMILIES) == list(range(1, 8))
    for family in _FAMILIES.values():
        basis = np.array(family.basis, dtype=float).reshape(-1, 4)
        residuals = np.array(family.residuals, dtype=float).reshape(-1, 4)
        assert len(basis) == len(family.names)
        assert set(np.concatenate([basis, residuals]).ravel()) <= {-1.0, 0.0, 1.0}
        assert not (residuals @ basis.T).any()
        assert np.linalg.matrix_rank(np.vstack([basis, residuals])) == 4
        assert all(np.count_nonzero(row[[0, 2]]) == 1 for row in basis)
        # a quadratic form that vanishes on a 5-point grid in each coordinate
        # vanishes identically; small integers keep the arithmetic exact
        for coords in itertools.product(range(-2, 3), repeat=len(basis)):
            t = FourTuple(*(np.array(coords, dtype=float) @ basis))
            assert conformal_defect(t) == (0, 0)


def test_to_tuple_signed_zeros():
    """Structural zeros are +0.0 and negated coordinates keep their sign
    bit: no 0*x term enters a reconstructed entry."""

    def bits(t):
        return struct.pack("<4d", *t)

    assert bits(FormClass(2, (0.0,)).to_tuple()) == bits((-0.0, 0.0, 0.0, 0.0))
    assert bits(FormClass(4, (-0.0,)).to_tuple()) == bits((0.0, -0.0, 0.0, 0.0))
    assert bits(FormClass(6, (-1.5, 0.0)).to_tuple()) == bits((-0.0, 0.0, 0.0, 0.0))
    assert bits(FormClass(7).to_tuple()) == bits((0.0, 0.0, 0.0, 0.0))


def test_params_from_slit_value():
    """The inverse of the value at the slit, (a, c), per family: exact on
    the family's locus, None off it or where a parameter would vanish."""
    forms = [FormClass(1, (0.75,)), FormClass(2, (0.75,)), FormClass(3, (-0.5,)),
             FormClass(4, (0.5,)), FormClass(5, (1.5, 0.5)), FormClass(6, (-1.25, 0.25)),
             FormClass(7)]
    for form in forms:
        t = form.to_tuple()
        assert _params_from_slit_value(form.tag, (t.a, t.c)) == form.params
    assert _params_from_slit_value(1, (0.75, 0.125)) is None  # F1 has c = 0
    assert _params_from_slit_value(4, (0.125, 0.5)) is None  # F4 has a = 0
    assert _params_from_slit_value(2, (0.0, 0.0)) is None  # d != 0
    assert _params_from_slit_value(6, (0.0, 0.5)) is None  # l*c != 0
    assert _params_from_slit_value(7, (0.0, 1e-300)) is None


def test_sheet_eval_examples():
    np.testing.assert_allclose(
        sheet_eval(FourTuple(1, 0, 0, 1), 1.0, 1.0, 0.0), [1, 0], atol=1e-15
    )
    # the half-integer sign flip after one turn
    np.testing.assert_allclose(
        sheet_eval(FourTuple(1, 0, 0, 1), 0.5, 1.0, 2 * np.pi), [-1, 0], atol=1e-12
    )
    np.testing.assert_allclose(
        sheet_eval(FourTuple(0, 2, 2, 0), 2.0, 0.0, 1.234), [0, 0], atol=1e-15
    )


def test_sheet_gradient_at_theta_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = FourTuple(*rng.normal(size=4))
        N = rng.uniform(0.5, 4)
        jac = sheet_gradient(t, N, 1.0, 0.0)
        np.testing.assert_allclose(
            jac, N * np.array([[t.a, t.b], [t.c, t.d]]), rtol=1e-12, atol=1e-12
        )


def test_sheet_gradient_identity_map():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r, th = rng.uniform(0.1, 2), rng.uniform(0, 2 * np.pi)
        jac = sheet_gradient(FourTuple(1, 0, 0, 1), 1.0, r, th)
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-14)


def test_gradient_conformality_identities():
    """Columns orthogonal with equal norms, to 1e-12 relative."""
    rng = np.random.default_rng(4)
    for entry in enumerate_entries(6, rng):
        for t in (entry.t1, entry.t2):
            if max(map(abs, t)) == 0:
                continue
            r = rng.uniform(0.2, 1.5)
            th = rng.uniform(0, 2 * np.pi)
            jac = sheet_gradient(t, entry.N, r, th)
            col1, col2 = jac[:, 0], jac[:, 1]
            scale = np.dot(col1, col1)
            assert abs(np.dot(col1, col2)) <= 1e-12 * scale
            assert abs(np.dot(col1, col1) - np.dot(col2, col2)) <= 1e-12 * scale


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    step = 1e-6
    for _ in range(200):
        tag = int(rng.integers(1, 7))
        n_params = 2 if tag in (5, 6) else 1
        form = FormClass(tag, tuple(rng.uniform(0.2, 1.5, size=n_params)))
        t = form.to_tuple()
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
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


F1 = FormClass(1, (0.8,)).to_tuple()
F1B = FormClass(1, (-1.3,)).to_tuple()
F4B = FormClass(4, (0.6,)).to_tuple()
F5B = FormClass(5, (1.7, 0.9)).to_tuple()
F7T = FormClass(7).to_tuple()


def test_seam_solutions_examples():
    # swap closes only with the negated parameter
    neg = FormClass(1, (-0.8,)).to_tuple()
    assert seam_solutions(F1, neg) == FREQ_ODD_HALVES
    assert seam_solutions(F1, F1B) is None
    assert seam_solutions(F1, F4B) is None
    assert seam_solutions(F1, F5B) is None
    # noisy slit values: compared within tol * max(1, largest |coefficient|)
    for da, dc in ((0.01, 0.0), (0.0, -0.01)):
        noisy = FourTuple(neg.a + da, neg.b, neg.c + dc, neg.d)
        assert seam_solutions(F1, noisy, 0.05) == FREQ_ODD_HALVES
    for da, dc in ((0.1, 0.0), (0.0, -0.1)):
        noisy = FourTuple(neg.a + da, neg.b, neg.c + dc, neg.d)
        assert seam_solutions(F1, noisy, 0.05) is None
    big = FormClass(1, (8.0,)).to_tuple()  # tolerance scales with the coefficients
    noisy = FourTuple(-8.3, 0.0, 0.0, -8.0)
    assert seam_solutions(big, noisy, 0.05) == FREQ_ODD_HALVES
    noisy = FourTuple(neg.a + 1e-8, neg.b, neg.c, neg.d)
    assert seam_solutions(F1, noisy, 1e-9) is None
    assert seam_solutions(F1, FourTuple(0.81, 0.0, 0.0, 0.8), 0.05) == FREQ_INTEGERS
    # identity closure is validate's: every integer N, admissible sums only
    for t2 in (F1B, F5B):
        for N in (1.0, 2.0, 3.0):
            HomogeneousPair(N, F1, t2, Continuation.IDENTITY).validate()
        with pytest.raises(ValueError, match="requires even 2N"):
            HomogeneousPair(1.5, F1, t2, Continuation.IDENTITY).validate()


def test_validate_degenerate_pair():
    """Zero sheets are conformal (F7), so validate reaches match_pair's
    zero-pair check."""
    for cont, N in ((Continuation.IDENTITY, 1.0), (Continuation.SWAP, 0.5)):
        with pytest.raises(DegeneratePair):
            HomogeneousPair(N, F7T, F7T, cont).validate()


@pytest.mark.parametrize("cont, N", [(Continuation.SWAP, 1.5), (Continuation.IDENTITY, 2.0)])
def test_validate_rejects_non_conformal_sheet(cont, N):
    """(1, 0, 0, 0.3) has conformal defect 0.91; paired with its negative
    it passes the closure rules of both continuations, but is no entry."""
    t = FourTuple(1.0, 0.0, 0.0, 0.3)
    assert conformal_defect(t) == pytest.approx((0.91, 0.0))
    entry = HomogeneousPair(N, t, t.negated(), cont)
    with pytest.raises(ValueError) as exc:
        entry.validate(0.05)
    assert str(exc.value) == (
        "tuples not conformal at tol=0.05: FourTuple(a=1.0, b=0.0, c=0.0, d=0.3), "
        "FourTuple(a=-1.0, b=0.0, c=0.0, d=-0.3)"
    )
    outcome = match_pair(t, t.negated(), 0.05)  # the closure rules alone accept it
    assert outcome.sum_admissible == FormClass(7)
    assert outcome.swap_class == FREQ_ODD_HALVES


def test_sum_form_examples():
    assert not classify_form(F1.plus(FormClass(2, (0.5,)).to_tuple())).is_conformal
    got = classify_form(F1.plus(F4B))
    assert got.tag == 5
    got = classify_form(F1.plus(F7T))
    assert got == FormClass(1, (0.8,))


def test_match_pair_same_form_swap():
    t1 = FormClass(3, (1.1,)).to_tuple()
    t2 = FormClass(3, (-1.1,)).to_tuple()
    outcome = match_pair(t1, t2)
    assert outcome.sum_admissible == FormClass(7)
    assert outcome.swap_class == FREQ_ODD_HALVES
    assert outcome.constraints == ("b'=-b",)


def test_match_pair_inadmissible_sum():
    outcome = match_pair(
        FormClass(2, (0.7,)).to_tuple(), FormClass(4, (0.9,)).to_tuple()
    )
    assert outcome.sum_admissible is None
    assert outcome.swap_class is None


def test_match_pair_f5_relations():
    t1 = FormClass(5, (1.4, 0.6)).to_tuple()
    t2 = FormClass(5, (1.4, -0.6)).to_tuple()
    outcome = match_pair(t1, t2)
    assert outcome.swap_class == FREQ_ODD_HALVES
    assert set(outcome.constraints) == {"l'=l", "c'=-c"}


def test_match_pair_degenerate():
    with pytest.raises(DegeneratePair):
        match_pair(F7T, F7T)


def test_table_shape_and_patterns():
    rows = build_match_table()
    assert len(rows) == 2 * 28 + 6
    by_key = {(r.form_i, r.form_j, r.continuation): r for r in rows}
    assert len(by_key) == len(rows)
    # identity closures of admissible sums always land on integers
    for row in rows:
        if row.continuation == "identity" and row.frequency_class == FREQ_INTEGERS:
            assert row.constraints == ""
        if row.continuation == "swap" and row.frequency_class == FREQ_ODD_HALVES:
            assert row.form_i == row.form_j
    for tag in range(1, 7):
        assert by_key[(tag, tag, "doubled")].frequency_class == FREQ_INTEGERS


def test_enumerate_entries_examples():
    entries = enumerate_entries(3, 0)
    n_half = [e for e in entries if e.N == 0.5]
    assert all(e.continuation is Continuation.SWAP for e in n_half)
    f1_half = [e for e in n_half if classify_form(e.t1).tag == 1]
    assert f1_half and all(
        classify_form(e.t2).tag == 1
        and classify_form(e.t2).params[0] == -classify_form(e.t1).params[0]
        for e in f1_half
    )
    assert any(
        e.N == 1.5 and classify_form(e.t1).tag == 5 for e in entries
    )
    assert all(e.N == 1.0 for e in entries if e.continuation is Continuation.IDENTITY)


def test_enumerate_entries_bits_pinned():
    """Swap partners by negation and cross pairs read from the table give
    the same entries, bit for bit, as the hand-written lists they replaced."""
    entries = enumerate_entries(2, 0)
    cross = [(classify_form(e.t1).tag, classify_form(e.t2).tag) for e in entries[12:18]]
    assert cross == [(1, 4), (1, 5), (2, 3), (2, 6), (3, 6), (4, 5)]
    digest = hashlib.sha256()
    for e in enumerate_entries(8, 0):
        digest.update(struct.pack("<9d", e.N, *e.t1, *e.t2))
        digest.update(e.continuation.value.encode())
    assert digest.hexdigest() == (
        "2df6a65a06e11de919ed85cc534e7ec207d1a893280d4a2b6b2f74d278ed58f8"
    )


def test_enumerated_entries_validate_and_half_integer():
    entries = enumerate_entries(8, 42)
    for e in entries:
        e.validate()
        k = 2 * e.N
        assert abs(k - round(k)) < 1e-12 and k >= 1
        if e.continuation is Continuation.SWAP:
            assert int(round(k)) % 2 == 1
        else:
            assert float(e.N).is_integer()


def test_enumerated_entries_seam_closure():
    """The literal closure condition: values at 2*pi match values at 0."""
    entries = enumerate_entries(8, 3)
    for e in entries:
        for r in (0.3, 0.7, 1.0):
            at0 = QPoint(sheet_eval(e.t1, e.N, r, 0.0), sheet_eval(e.t2, e.N, r, 0.0))
            at2pi = QPoint(
                sheet_eval(e.t1, e.N, r, 2 * np.pi),
                sheet_eval(e.t2, e.N, r, 2 * np.pi),
            )
            assert pair_distance(at0, at2pi) <= 1e-12


def test_invalid_entry_rejected():
    bad = HomogeneousPair(0.5, F1, F1, Continuation.SWAP)  # needs d' = -d
    with pytest.raises(ValueError):
        bad.validate()
    bad_n = HomogeneousPair(0.7, F1, F1B, Continuation.IDENTITY)
    with pytest.raises(ValueError):
        bad_n.validate()


def _closes_at(t1, t2, cont, N, tol=1e-9):
    """Brute-force closure check: compare sheet values at 0 and 2*pi."""
    a0 = np.array([sheet_eval(t1, N, 1.0, 0.0), sheet_eval(t2, N, 1.0, 0.0)])
    a1 = np.array(
        [sheet_eval(t1, N, 1.0, 2 * np.pi), sheet_eval(t2, N, 1.0, 2 * np.pi)]
    )
    if cont is Continuation.IDENTITY:
        res = max(np.abs(a1 - a0).max(), 0.0)
    else:
        res = np.abs(a1 - a0[::-1]).max()
    return res <= tol * max(1.0, np.abs(a0).max())


def test_seam_solutions_against_brute_force():
    """The predicted swap class matches direct closure evaluation, and so
    do validate's identity decisions.

    integers: every integer N closes, no strict half-integer does;
    odd-halves: odd k/2 close, integers do not; none: nothing closes.
    """
    rng = np.random.default_rng(6)
    degrees = [k / 2.0 for k in range(1, 11)]
    for _ in range(300):
        tag1, tag2 = rng.integers(1, 7, size=2)
        p1 = tuple(rng.choice([-1, 1]) * rng.uniform(0.1, 2) for _ in range(2 if tag1 in (5, 6) else 1))
        if rng.random() < 0.5 and tag1 == tag2:
            # half the same-family draws use the exact swap relations
            p2 = (p1[0], -p1[1]) if tag1 in (5, 6) else (-p1[0],)
        else:
            p2 = tuple(rng.choice([-1, 1]) * rng.uniform(0.1, 2) for _ in range(2 if tag2 in (5, 6) else 1))
        t1 = FormClass(int(tag1), p1).to_tuple()
        t2 = FormClass(int(tag2), p2).to_tuple()
        predicted = seam_solutions(t1, t2)
        closing = {N for N in degrees if _closes_at(t1, t2, Continuation.SWAP, N)}
        if predicted == FREQ_INTEGERS:
            assert {1.0, 2.0, 3.0, 4.0, 5.0} <= closing
            assert not any(2 * N % 2 == 1 for N in closing)
        elif predicted == FREQ_ODD_HALVES:
            assert {0.5, 1.5, 2.5, 3.5, 4.5} <= closing
            assert not any(float(N).is_integer() for N in closing)
        else:
            # no canonical class: no half-integer degree may close
            assert closing == set()
        # identity closes at exactly the integers; validate accepts those
        # degrees when the sum is admissible, and no other
        closing = {N for N in degrees if _closes_at(t1, t2, Continuation.IDENTITY, N)}
        assert closing == {1.0, 2.0, 3.0, 4.0, 5.0}
        admissible = classify_form(t1.plus(t2)).is_conformal
        for N in degrees:
            entry = HomogeneousPair(N, t1, t2, Continuation.IDENTITY)
            if N in closing and admissible:
                entry.validate()
            else:
                with pytest.raises(ValueError):
                    entry.validate()


def _noisy_family_tuples(count, seed):
    """Family tuples with parameters of magnitude 1e-10..2, three in four
    perturbed by noise of size 1e-12..1e-6: they straddle the defect gate,
    the residual gate and the nonzero side conditions at every tolerance."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tag = int(rng.integers(1, 8))
        params = tuple(
            float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-10, 0.3))
            for _ in FormClass(tag).param_names()
        )
        noise = np.zeros(4)
        if rng.random() < 0.75:
            noise = 10 ** rng.uniform(-12, -6) * rng.normal(size=4)
        yield FourTuple(*(np.asarray(FormClass(tag, params).to_tuple()) + noise).tolist())


def test_classify_form_bits_pinned():
    """Tag, parameter bits and printed form of noisy family tuples at four
    tolerances, as computed by the per-family classifier the table replaced."""
    tuples = list(_noisy_family_tuples(2500, 12))
    digest = hashlib.sha256()
    for tol in (0.0, 1e-9, 1e-7, 0.05):
        for t in tuples:
            try:
                form = classify_form(t, tol)
            except RuntimeError:
                digest.update(b"ambiguous")
                continue
            digest.update(struct.pack(f"<b{len(form.params)}d", form.tag, *form.params))
            digest.update(str(form).encode())
    assert digest.hexdigest() == (
        "17dfc57d2d28e3e707e80f9088ccb8602ba5dc202286c2d6fabc504f2e08c4c9"
    )
