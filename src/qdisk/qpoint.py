"""The matching metric on unordered pairs of points in the plane.

A two-valued function takes values in Q_2(R^2): unordered pairs {p1, p2}.
The pairs are stored as given (no canonical ordering); the metric takes the
better of the two sheet pairings, so there is no hidden normalization to get
out of sync with.
"""

import numpy as np


def squared_norm(p):
    """|p|^2 over the trailing axis of length 2, the one rule for coordinate
    pairs: ``np.sum(np.square(p), axis=-1)`` bit for bit, as x^2 + y^2,
    without that reduction, which costs 20-50 times its two terms."""
    sq = np.square(p)
    return sq[..., 0] + sq[..., 1]


def pair_distance_arrays(p1, p2, q1, q2):
    """Matching metric over arrays of shape (..., 2): the minimum over the
    two sheet pairings of the root-sum-square displacement, zero exactly
    when the pairs agree as sets."""
    straight = squared_norm(p1 - q1) + squared_norm(p2 - q2)
    crossed = squared_norm(p1 - q2) + squared_norm(p2 - q1)
    return np.sqrt(np.minimum(straight, crossed))
