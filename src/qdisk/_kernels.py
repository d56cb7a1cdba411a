"""Discrete polar Dirichlet energy: its exact minimizer and reference sweeps.

Arrays are C-contiguous float64 of shape (R+1, M, 2) where ring 0 is the
(logically single) center node duplicated across columns, ring R is the
fixed boundary, and columns are periodic with angular spacing ``dtheta``.

The discrete energy is

    E(u) = sum_{i=0}^{R-1} sum_j (i+1/2) dtheta |u[i+1,j]-u[i,j]|^2
         + sum_{i=1}^{R}   sum_j (i dtheta)^-1  |u[i,j+1]-u[i,j]|^2

which is the trapezoid/midpoint discretization of the Dirichlet integral in
polar coordinates (the radial mesh width cancels: in two dimensions the
Dirichlet energy is scale invariant, and so is this discretization).

E is separable in angle: a discrete Fourier transform over the columns
turns the angular differences of mode m into the factor 4 sin^2(pi m / M),
so each mode is minimized on its own by one tridiagonal solve in r. This is
the fast direct polar Poisson solver (Hockney 1965; Swarztrauber & Sweet
1973) and ``solve`` uses it. Coordinate descent on E gives the classic
five-point polar Laplace update; ``gs_sweep`` and ``gs_center`` implement it
in checkerboard order (each half-sweep only reads neighbors of the opposite
color) as the reference the exact solve is checked against.
"""

import numpy as np

BACKEND = "numpy"


def _coeffs(n_rings, dtheta):
    i = np.arange(1, n_rings)
    outer = (i + 0.5) * dtheta
    inner = (i - 0.5) * dtheta
    angular = 1.0 / (i * dtheta)
    return outer, inner, angular


def solve(boundary, n_rings, dtheta):
    """Minimizer of E with ring ``n_rings`` fixed to ``boundary`` (M, 2).

    Mode m of ring i is g_i(m) times mode m of the boundary, the discrete
    counterpart of r^m. Mode 0 has no angular term and a free center, so
    g = 1 on every ring. For m > 0 the center is pinned to 0 and g solves
    the tridiagonal stationarity equations of rings 1..R-1 with g_R = 1;
    as their right-hand side is zero, forward elimination leaves
    g_i = c_i g_(i+1) and g is a product of the ratios c.
    """
    cols = boundary.shape[0]
    coeffs = np.fft.rfft(boundary, axis=0)
    outer, inner, angular = (w[:, None] for w in _coeffs(n_rings, dtheta))
    m = np.arange(coeffs.shape[0])
    diag = outer + inner + 4.0 * np.sin(np.pi * m / cols) ** 2 * angular

    ratio = np.empty_like(diag)
    prev = 0.0
    for k in range(n_rings - 1):
        ratio[k] = prev = outer[k] / (diag[k] - inner[k] * prev)
    gain = np.cumprod(ratio[::-1], axis=0)[::-1]
    gain[:, 0] = 1.0

    u = np.empty((n_rings + 1, cols, 2))
    u[0] = boundary.mean(axis=0)
    u[1:n_rings] = np.fft.irfft(gain[:, :, None] * coeffs, n=cols, axis=1)
    u[n_rings] = boundary
    return u


def gs_sweep(u, dtheta, color):
    """One plain Gauss-Seidel half-sweep over rings 1..R-1: the cells (i, j)
    with (i + j) % 2 == color.

    Their ring neighbours have the other color, so each ring parity takes one
    strided update computed from the old values, as a Jacobi step on the
    color would (with an odd column count the cells either side of column 0
    share a color, and both read the old value of the other).
    """
    n_rings, cols = u.shape[0] - 1, u.shape[1]
    outer, inner, angular = _coeffs(n_rings, dtheta)
    denom = outer + inner + 2.0 * angular
    for p in (0, 1):  # rings 1 + p, 3 + p, ...
        first = (color + 1 + p) % 2  # the color's first column on those rings
        j = np.arange(first, cols, 2)
        ring = u[1 + p : n_rings : 2]
        w = (slice(p, None, 2), None, None)
        ring[:, first::2] = (
            outer[w] * u[2 + p : n_rings + 1 : 2, first::2]
            + inner[w] * u[p : n_rings - 1 : 2, first::2]
            + angular[w] * (ring.take((j - 1) % cols, axis=1) + ring.take((j + 1) % cols, axis=1))
        ) / denom[w]


def gs_center(u):
    """Energy-minimizing center update: the mean of ring 1."""
    u[0, :, :] = u[1].mean(axis=0)


def gs_energy(u, dtheta):
    """Discrete Dirichlet energy of one periodic sheet stack: per ring the
    sum of its squared differences, dotted with the ring weights. Both
    differences are taken in one buffer."""
    n_rings = u.shape[0] - 1
    d = np.subtract(u[1:], u[:-1])
    w_r = (np.arange(n_rings) + 0.5) * dtheta
    radial = w_r @ np.einsum("ijc,ijc->i", d, d)

    np.subtract(u[1:, 1:], u[1:, :-1], out=d[:, :-1])
    np.subtract(u[1:, :1], u[1:, -1:], out=d[:, -1:])
    w_a = 1.0 / (np.arange(1, n_rings + 1) * dtheta)
    angular = w_a @ np.einsum("ijc,ijc->i", d, d)
    return float(radial + angular)
