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
    _family_parts,
    _params_from_slit_value,
    _swap_constraints,
    build_match_table,
    classify_form,
    conformal_defect,
    enumerate_entries,
    seam_solutions,
    sheet_eval,
    sheet_gradient,
)
from qdisk.qpoint import pair_distance_arrays


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
    """The families come in the order F1..F7. On each family's sheets its
    residuals vanish and its coordinates give back its parameters, (l, c)
    through (l c, c); every sheet is conformal."""
    assert list(_family_parts(FourTuple(0.0, 0.0, 0.0, 0.0))) == list(range(1, 8))
    for tag in range(1, 8):
        # a polynomial of degree at most 2 in each parameter that vanishes
        # on a 5-point grid in each parameter vanishes identically; small
        # integers keep the arithmetic exact
        for params in itertools.product(range(-2, 3), repeat=len(FormClass(tag).param_names())):
            params = tuple(map(float, params))
            t = FormClass(tag, params).to_tuple()
            assert conformal_defect(t) == (0, 0)
            residuals, coords = _family_parts(t)[tag]
            assert not any(residuals)
            assert coords == ((params[0] * params[1], params[1]) if tag in (5, 6) else params)


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
    """Zero sheets are conformal (F7), so validate reaches its zero-pair
    check."""
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
    # the closure rules alone accept it: a zero sum and opposite slit values
    assert classify_form(t.plus(t.negated()), 0.05) == FormClass(7)
    assert seam_solutions(t, t.negated(), 0.05) == FREQ_ODD_HALVES


def test_sum_form_examples():
    assert not classify_form(F1.plus(FormClass(2, (0.5,)).to_tuple())).is_conformal
    got = classify_form(F1.plus(F4B))
    assert got.tag == 5
    got = classify_form(F1.plus(F7T))
    assert got == FormClass(1, (0.8,))


def test_match_pair_same_form_swap():
    """Two F3 sheets with b' = -b: a zero sum, swap closure at the odd
    halves, and b'=-b as the only constraint."""
    f1, f2 = FormClass(3, (1.1,)), FormClass(3, (-1.1,))
    t1, t2 = f1.to_tuple(), f2.to_tuple()
    assert classify_form(t1.plus(t2)) == FormClass(7)
    assert seam_solutions(t1, t2) == FREQ_ODD_HALVES
    HomogeneousPair(0.5, t1, t2, Continuation.SWAP).validate()
    assert _swap_constraints(f1, f2) == ("b'=-b",)
    assert _swap_constraints(f1, FormClass(4, (1.1,))) == ()  # other families: none


def test_match_pair_f5_relations():
    f1, f2 = FormClass(5, (1.4, 0.6)), FormClass(5, (1.4, -0.6))
    t1, t2 = f1.to_tuple(), f2.to_tuple()
    assert seam_solutions(t1, t2) == FREQ_ODD_HALVES
    HomogeneousPair(0.5, t1, t2, Continuation.SWAP).validate()
    assert _swap_constraints(f1, f2) == ("l'=l", "c'=-c")


def test_match_pair_degenerate():
    """The zero pair is refused as degenerate, and the table excludes it
    under both continuations."""
    with pytest.raises(DegeneratePair):
        HomogeneousPair(0.5, F7T, F7T, Continuation.SWAP).validate()
    rows = [r for r in build_match_table() if (r.form_i, r.form_j) == (7, 7)]
    assert [(r.continuation, r.frequency_class, r.constraints) for r in rows] == [
        ("identity", "excluded", "degenerate-pair"),
        ("swap", "excluded", "degenerate-pair"),
    ]


@pytest.mark.parametrize(
    "cont, N", [(Continuation.IDENTITY, 1.0), (Continuation.SWAP, 0.5)], ids=["identity", "swap"]
)
def test_validate_refuses_inadmissible_sum(cont, N):
    """F2 + F4 is not conformal, so neither continuation closes."""
    t1, t2 = FormClass(2, (0.7,)).to_tuple(), FormClass(4, (0.9,)).to_tuple()
    assert not classify_form(t1.plus(t2)).is_conformal
    with pytest.raises(ValueError) as exc:
        HomogeneousPair(N, t1, t2, cont).validate()
    assert str(exc.value) == f"tuples do not close under {cont.value}: their sum is not conformal"


def test_swap_rows_constraints_close_under_validate():
    """Each closing swap row of the table constrains every parameter; random
    same-family parameters obeying its constraints pass validate at every odd
    half up to 7/2, and fail its slit rule once one constraint is broken."""
    rng = np.random.default_rng(21)
    rows = [r for r in build_match_table()
            if r.continuation == "swap" and r.frequency_class == FREQ_ODD_HALVES]
    assert [(r.form_i, r.form_j) for r in rows] == [(tag, tag) for tag in range(1, 7)]
    for row in rows:
        names = FormClass(row.form_i).param_names()
        signs = {}
        for relation in row.constraints.split(";"):
            name, rhs = relation.split("'=")
            signs[name] = -1.0 if rhs.startswith("-") else 1.0
        assert list(signs) == list(names)
        for _ in range(20):
            p1 = [rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) for _ in names]
            p2 = [signs[n] * p for n, p in zip(names, p1)]
            t1 = FormClass(row.form_i, tuple(p1)).to_tuple()
            t2 = FormClass(row.form_i, tuple(p2)).to_tuple()
            broken = []
            for k in range(len(names)):
                for factor in (-1.0, rng.uniform(1.2, 2.0)):
                    q = list(p2)
                    q[k] *= factor
                    broken.append(FormClass(row.form_i, tuple(q)).to_tuple())
            for N in (0.5, 1.5, 2.5, 3.5):
                HomogeneousPair(N, t1, t2, Continuation.SWAP).validate()
                for t in broken:
                    with pytest.raises(ValueError, match="slit values are not opposite"):
                        HomogeneousPair(N, t1, t, Continuation.SWAP).validate()


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
    r = np.array([0.3, 0.7, 1.0])
    for e in entries:
        gap = pair_distance_arrays(
            sheet_eval(e.t1, e.N, r, 0.0),
            sheet_eval(e.t2, e.N, r, 0.0),
            sheet_eval(e.t1, e.N, r, 2 * np.pi),
            sheet_eval(e.t2, e.N, r, 2 * np.pi),
        )
        assert np.all(gap <= 1e-12)


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


# Per family: its sheet at its coordinates (the parts of alpha or beta it
# keeps), base coordinates of magnitude <= 0.375, and per residual the
# direction in (a, b, c, d) that moves that residual alone by 1.
_BOUNDARY_FAMILIES = {
    1: (lambda x: (x, 0.0, 0.0, x), [(0.5, 0, 0, -0.5), (0, 1, 0, 0), (0, 0, 1, 0)]),
    2: (lambda x: (-x, 0.0, 0.0, x), [(0.5, 0, 0, 0.5), (0, 1, 0, 0), (0, 0, 1, 0)]),
    3: (lambda x: (0.0, x, x, 0.0), [(1, 0, 0, 0), (0, 0, 0, 1), (0, 0.5, -0.5, 0)]),
    4: (lambda x: (0.0, x, -x, 0.0), [(1, 0, 0, 0), (0, 0, 0, 1), (0, 0.5, 0.5, 0)]),
    5: (lambda x, y: (x, -y, y, x), [(0, 0.5, 0.5, 0), (0.5, 0, 0, -0.5)]),
    6: (lambda x, y: (x, y, y, -x), [(0, 0.5, -0.5, 0), (0.5, 0, 0, 0.5)]),
    7: (lambda: (0.0, 0.0, 0.0, 0.0), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
}


def _boundary_pairs(tol):
    """Per family boundary at tol, the tuples on its two sides: one
    residual at +-tol * (1 - 2^-10), inside, and +-tol * (1 + 2^-10),
    outside; or one coordinate at the same two values, below and above.
    The rest of the family's coordinates are 0.25 and -0.375, so the defect
    of each tuple stays below tol and the residual and coordinate gates
    decide."""
    for tag, (sheet, directions) in _BOUNDARY_FAMILIES.items():
        base = [0.25, -0.375][: len(FormClass(tag).param_names())]
        for sign in (1.0, -1.0):
            edge = [sign * tol * (1.0 + e * 2.0**-10) for e in (-1.0, 1.0)]
            for direction in directions:
                yield tag, "residual", [
                    FourTuple(*(x + v * w for x, w in zip(sheet(*base), direction)))
                    for v in edge
                ]
            for k in range(len(base)):
                yield tag, "coordinate", [
                    FourTuple(*sheet(*base[:k], v, *base[k + 1:])) for v in edge
                ]


def test_classify_form_on_every_family_boundary():
    """Tag, parameter bits and printed form on both sides of every residual
    and coordinate boundary of F1..F7 at two tolerances, as classified
    before the families were stated through alpha and beta. A tuple inside
    a residual boundary, or above a coordinate boundary, is of the family,
    and one on the other side is not."""
    digest = hashlib.sha256()
    for tol in (1e-9, 0.05):
        for tag, gate, (inner, outer) in _boundary_pairs(tol):
            forms = [classify_form(t, tol) for t in (inner, outer)]
            if gate == "residual":
                assert forms[0].tag == tag != forms[1].tag
            else:
                assert forms[0].tag != tag == forms[1].tag
            for form in forms:
                digest.update(struct.pack(f"<b{len(form.params)}d", form.tag, *form.params))
                digest.update(str(form).encode())
    assert digest.hexdigest() == (
        "ef3afba33384f0499bb1bed9cb3ee2ac090e802c18ea7675e76e1b855bb0482d"
    )
