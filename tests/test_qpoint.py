import numpy as np

from qdisk.qpoint import pair_distance_arrays


def _pairs(rng, count):
    """count random pairs as two (count, 2) arrays of points."""
    pts = rng.uniform(-5, 5, size=(count, 4))
    return pts[:, :2], pts[:, 2:]


def test_pair_distance_examples():
    p1, p2, q1, q2 = np.array(
        [
            [[1, 0], [-1, 0], [-1, 0], [1, 0]],
            [[1, 0], [-1, 0], [0, 0], [0, 0]],
            # both pairings evaluated by hand: min(sqrt(4+1), sqrt(1+0)) = 1
            [[2, 0], [0, 0], [0, 0], [1, 0]],
        ],
        dtype=float,
    ).transpose(1, 0, 2)
    d = pair_distance_arrays(p1, p2, q1, q2)
    assert d[0] == 0.0
    np.testing.assert_allclose(d[1:], [np.sqrt(2), 1.0])


def test_metric_axioms_random():
    rng = np.random.default_rng(7)
    (p1, p2), (q1, q2), (r1, r2) = (_pairs(rng, 10**4) for _ in range(3))
    d_pq = pair_distance_arrays(p1, p2, q1, q2)
    assert np.array_equal(d_pq, pair_distance_arrays(q1, q2, p1, p2))
    # triangle inequality
    d_pr = pair_distance_arrays(p1, p2, r1, r2)
    d_rq = pair_distance_arrays(r1, r2, q1, q2)
    assert np.all(d_pq <= d_pr + d_rq + 1e-12)


def test_zero_iff_unordered_equal():
    rng = np.random.default_rng(8)
    p1, p2 = _pairs(rng, 100)
    assert np.all(pair_distance_arrays(p1, p2, p1, p2) == 0.0)
    assert np.all(pair_distance_arrays(p1, p2, p2, p1) == 0.0)
    assert np.all(pair_distance_arrays(p1, p2, p1 + 1e-3, p2) > 0.0)
    assert np.all(pair_distance_arrays(p1, p2, p2, p1 + 1e-3) > 0.0)


def test_dist_to_zero_sq_examples():
    """Worked squared distances to the doubled origin: 0, 2 and 25."""
    pairs = np.array([[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[3, 4], [0, 0]]], dtype=float)
    p1, p2 = pairs.transpose(1, 0, 2)
    zero = np.zeros_like(p1)
    assert np.array_equal(pair_distance_arrays(p1, p2, zero, zero), np.sqrt([0.0, 2.0, 25.0]))


def test_dist_to_zero_matches_pair_distance():
    """Both pairings agree with the doubled origin: the squared distance is
    the sum of the squares of the four coordinates."""
    rng = np.random.default_rng(9)
    p1, p2 = _pairs(rng, 200)
    zero = np.zeros_like(p1)
    np.testing.assert_allclose(
        np.sum(p1**2, axis=1) + np.sum(p2**2, axis=1),
        pair_distance_arrays(p1, p2, zero, zero) ** 2,
        rtol=1e-12,
    )


def test_vectorized_matches_scalar():
    """A batch gives, bit for bit, the distances of its pairs taken one at a
    time as single points of shape (2,)."""
    rng = np.random.default_rng(11)
    a, b, c, d = rng.normal(size=(4, 40, 2))
    vec = pair_distance_arrays(a, b, c, d)
    for i in range(40):
        one = pair_distance_arrays(a[i], b[i], c[i], d[i])
        assert np.shape(one) == () and one == vec[i]


def test_vectorized_equals_summed_squares():
    """Bit-equal to the np.sum form it replaced, on the shape of a field's
    sheets."""
    rng = np.random.default_rng(12)
    a, b, c, d = rng.normal(size=(4, 17, 64, 2))

    def sq(x, y):
        return np.sum((x - y) ** 2, axis=-1)

    want = np.sqrt(np.minimum(sq(a, c) + sq(b, d), sq(a, d) + sq(b, c)))
    assert np.array_equal(pair_distance_arrays(a, b, c, d), want)
