"""The matching metric on unordered pairs of points in the plane.

A two-valued function takes values in Q_2(R^2): unordered pairs {p1, p2}.
The pairs are stored as given (no canonical ordering); the metric takes the
better of the two sheet pairings, so there is no hidden normalization to get
out of sync with.
"""

import numpy as np


def _squared_distance(a, b):
    """|a - b|^2 over the trailing axis of length 2, summed as x^2 + y^2
    (as np.sum orders two terms, without its reduction overhead)."""
    diff = np.square(a - b)
    return diff[..., 0] + diff[..., 1]


def pair_distance_arrays(p1, p2, q1, q2):
    """Matching metric over arrays of shape (..., 2): the minimum over the
    two sheet pairings of the root-sum-square displacement, zero exactly
    when the pairs agree as sets."""
    straight = _squared_distance(p1, q1) + _squared_distance(p2, q2)
    crossed = _squared_distance(p1, q2) + _squared_distance(p2, q1)
    return np.sqrt(np.minimum(straight, crossed))
