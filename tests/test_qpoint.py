import numpy as np

from qdisk.qpoint import (
    QPoint,
    dist_to_zero_sq,
    eta,
    pair_distance,
    pair_distance_arrays,
    support_card,
)


def test_pair_distance_examples():
    assert pair_distance(QPoint((1, 0), (-1, 0)), QPoint((-1, 0), (1, 0))) == 0.0
    np.testing.assert_allclose(
        pair_distance(QPoint((1, 0), (-1, 0)), QPoint((0, 0), (0, 0))), np.sqrt(2)
    )
    # both pairings evaluated by hand: min(sqrt(4+1), sqrt(1+0)) = 1
    np.testing.assert_allclose(
        pair_distance(QPoint((2, 0), (0, 0)), QPoint((0, 0), (1, 0))), 1.0
    )


def test_eta_examples():
    np.testing.assert_allclose(eta(QPoint((1, 0), (-1, 0))), [0, 0])
    np.testing.assert_allclose(eta(QPoint((2, 2), (0, 0))), [1, 1])
    np.testing.assert_allclose(eta(QPoint((0.3, -0.7), (0.3, -0.7))), [0.3, -0.7])


def test_dist_to_zero_sq_examples():
    assert dist_to_zero_sq(QPoint((0, 0), (0, 0))) == 0.0
    assert dist_to_zero_sq(QPoint((1, 0), (0, 1))) == 2.0
    assert dist_to_zero_sq(QPoint((3, 4), (0, 0))) == 25.0


def test_support_card():
    assert support_card(QPoint((1, 1), (1, 1)), tol=0.0) == 1
    assert support_card(QPoint((1, 0), (-1, 0)), tol=1e-9) == 2
    assert support_card(QPoint((1, 0), (1, 1e-12)), tol=1e-9) == 1


def _random_qpoints(rng, count):
    pts = rng.uniform(-5, 5, size=(count, 4))
    return [QPoint(row[:2], row[2:]) for row in pts]


def test_metric_axioms_random():
    rng = np.random.default_rng(7)
    pts = _random_qpoints(rng, 3 * 10**4)
    for P, Q, R in zip(pts[::3], pts[1::3], pts[2::3]):
        d_pq = pair_distance(P, Q)
        assert d_pq == pair_distance(Q, P)
        # triangle inequality
        assert d_pq <= pair_distance(P, R) + pair_distance(R, Q) + 1e-12


def test_zero_iff_unordered_equal():
    rng = np.random.default_rng(8)
    for P in _random_qpoints(rng, 100):
        assert pair_distance(P, P) == 0.0
        assert pair_distance(P, P.swapped()) == 0.0
        shifted = QPoint(P.p1 + 1e-3, P.p2)
        assert pair_distance(P, shifted) > 0.0


def test_dist_to_zero_matches_pair_distance():
    rng = np.random.default_rng(9)
    zero = QPoint((0, 0), (0, 0))
    for P in _random_qpoints(rng, 200):
        np.testing.assert_allclose(
            dist_to_zero_sq(P), pair_distance(P, zero) ** 2, rtol=1e-12
        )


def test_eta_commutes_with_rotation():
    rng = np.random.default_rng(10)
    for P in _random_qpoints(rng, 50):
        angle = rng.uniform(0, 2 * np.pi)
        R = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        rotated = QPoint(R @ P.p1, R @ P.p2)
        np.testing.assert_allclose(eta(rotated), R @ eta(P), atol=1e-12)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(40, 2))
    b = rng.normal(size=(40, 2))
    c = rng.normal(size=(40, 2))
    d = rng.normal(size=(40, 2))
    vec = pair_distance_arrays(a, b, c, d)
    for i in range(40):
        np.testing.assert_allclose(
            vec[i], pair_distance(QPoint(a[i], b[i]), QPoint(c[i], d[i]))
        )


def test_vectorized_equals_summed_squares():
    """Bit-equal to the np.sum form it replaced, on the field shape blow-up
    defects use."""
    rng = np.random.default_rng(12)
    a, b, c, d = rng.normal(size=(4, 17, 64, 2))

    def sq(x, y):
        return np.sum((x - y) ** 2, axis=-1)

    want = np.sqrt(np.minimum(sq(a, c) + sq(b, d), sq(a, d) + sq(b, c)))
    assert np.array_equal(pair_distance_arrays(a, b, c, d), want)
