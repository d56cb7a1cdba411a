"""Value algebra for unordered pairs of points in the plane.

A two-valued function takes values in Q_2(R^2): unordered pairs {p1, p2}.
The pair is stored as given (no canonical ordering); order insensitivity is
enforced by the operations themselves, so there is no hidden normalization
to get out of sync with.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class QPoint:
    """An unordered pair of points in R^2."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float))
        object.__setattr__(self, "p2", np.asarray(self.p2, dtype=float))
        if self.p1.shape != (2,) or self.p2.shape != (2,):
            raise ValueError("QPoint expects two planar points")

    def swapped(self):
        return QPoint(self.p2, self.p1)


def pair_distance(P: QPoint, Q: QPoint) -> float:
    """Matching metric on unordered pairs.

    The minimum over the two sheet pairings of the root-sum-square
    displacement; zero exactly when the pairs agree as sets.
    """
    straight = np.sum((P.p1 - Q.p1) ** 2) + np.sum((P.p2 - Q.p2) ** 2)
    crossed = np.sum((P.p1 - Q.p2) ** 2) + np.sum((P.p2 - Q.p1) ** 2)
    return float(np.sqrt(min(straight, crossed)))


def eta(P: QPoint) -> np.ndarray:
    """Average of the two values; harmonic whenever the pair field minimizes."""
    return (P.p1 + P.p2) / 2.0


def dist_to_zero_sq(P: QPoint) -> float:
    """Squared distance to the doubled origin; both pairings agree."""
    return float(np.sum(P.p1**2) + np.sum(P.p2**2))


def support_card(P: QPoint, tol: float = 1e-9) -> int:
    """Cardinality of the support: 1 if the two points coincide within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return 1 if float(np.linalg.norm(P.p1 - P.p2)) <= tol else 2


def _squared_distance(a, b):
    """|a - b|^2 over the trailing axis of length 2, summed as x^2 + y^2
    (as np.sum orders two terms, without its reduction overhead)."""
    d = a - b
    return d[..., 0] ** 2 + d[..., 1] ** 2


def pair_distance_arrays(p1, p2, q1, q2):
    """Vectorized pair metric over arrays of shape (..., 2)."""
    straight = _squared_distance(p1, q1) + _squared_distance(p2, q2)
    crossed = _squared_distance(p1, q2) + _squared_distance(p2, q1)
    return np.sqrt(np.minimum(straight, crossed))
