"""The matching metric on unordered pairs of points in the plane.

A two-valued function takes values in Q_2(R^2): unordered pairs {p1, p2}.
The pairs are stored as given (no canonical ordering); the metric takes the
better of the two sheet pairings, so there is no hidden normalization to get
out of sync with.
"""

import numpy as np


def _squared_distance(a, b, out, diff):
    """|a - b|^2 over the trailing axis of length 2 into out, summed as
    x^2 + y^2 (as np.sum orders two terms, without its reduction overhead);
    diff, of the shape of a - b, holds the squared differences."""
    np.subtract(a, b, out=diff)
    np.square(diff, out=diff)
    return np.add(diff[..., 0], diff[..., 1], out=out)


def pair_distance_buffers(shape: tuple) -> tuple[np.ndarray, ...]:
    """Work arrays of ``squared_pair_distance`` for points of ``shape``
    (..., 2): the squared differences, then per point the straight sum, the
    crossed sum and one term. Their leading slices ``[:n]`` fit the first n
    rows of such points."""
    return (np.empty(shape),) + tuple(np.empty(shape[:-1]) for _ in range(3))


def squared_pair_distance(p1, p2, q1, q2, buffers=None) -> np.ndarray:
    """The square of ``pair_distance_arrays``: the minimum over the two sheet
    pairings of the summed squared displacements. It is computed in
    ``buffers`` (``pair_distance_buffers`` of the broadcast shape) when
    given, and the result is then the straight sum's buffer."""
    if buffers is None:
        buffers = pair_distance_buffers(np.broadcast_shapes(*map(np.shape, (p1, p2, q1, q2))))
    diff, straight, crossed, term = buffers
    _squared_distance(p1, q1, straight, diff)
    straight += _squared_distance(p2, q2, term, diff)
    _squared_distance(p1, q2, crossed, diff)
    crossed += _squared_distance(p2, q1, term, diff)
    return np.minimum(straight, crossed, out=straight)


def pair_distance_arrays(p1, p2, q1, q2):
    """Matching metric over arrays of shape (..., 2): the minimum over the
    two sheet pairings of the root-sum-square displacement, zero exactly
    when the pairs agree as sets."""
    return np.sqrt(squared_pair_distance(p1, p2, q1, q2))
