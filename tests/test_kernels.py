import numpy as np
import pytest

from qdisk import _kernels


def _problem(rng, rings=12, cols=24):
    u = rng.normal(size=(rings + 1, cols, 2))
    u[0] = u[0, 0]
    return np.ascontiguousarray(u)


def _sweep(u, dtheta):
    _kernels.gs_sweep(u, dtheta, 0)
    _kernels.gs_sweep(u, dtheta, 1)
    _kernels.gs_center(u)


def _masked_gs_sweep(u, dtheta, color):
    """Reference half-sweep: every interior cell's update, applied through a
    checkerboard mask."""
    n_rings = u.shape[0] - 1
    outer, inner, angular = _kernels._coeffs(n_rings, dtheta)
    denom = (outer + inner + 2.0 * angular)[:, None, None]
    outer = outer[:, None, None]
    inner = inner[:, None, None]
    angular = angular[:, None, None]

    interior = u[1:n_rings]
    proposed = (
        outer * u[2:]
        + inner * u[0 : n_rings - 1]
        + angular * (np.roll(interior, 1, axis=1) + np.roll(interior, -1, axis=1))
    ) / denom

    rows = np.arange(1, n_rings)[:, None]
    cols = np.arange(u.shape[1])[None, :]
    mask = (rows + cols) % 2 == color
    interior[mask] = proposed[mask]


@pytest.mark.parametrize(
    "rings, cols", [(12, 24), (13, 24), (12, 31), (13, 31), (64, 256), (64, 512)]
)
def test_strided_sweep_matches_masked_sweep_bitwise(rings, cols):
    """Odd and even ring and column counts, both colors, several sweeps."""
    rng = np.random.default_rng(rings * cols)
    u = _problem(rng, rings, cols)
    ref = u.copy()
    dtheta = 2 * np.pi / cols
    for color in (0, 1, 1, 0, 0):
        _kernels.gs_sweep(u, dtheta, color)
        _masked_gs_sweep(ref, dtheta, color)
        assert u.tobytes() == ref.tobytes()


def test_sweep_decreases_energy():
    rng = np.random.default_rng(1)
    u = _problem(rng)
    energy = _kernels.gs_energy(u, 0.3)
    for _ in range(50):
        _sweep(u, 0.3)
        new = _kernels.gs_energy(u, 0.3)
        assert new <= energy + 1e-12
        energy = new


def test_boundary_and_center_structure_preserved():
    rng = np.random.default_rng(3)
    u = _problem(rng)
    boundary = u[-1].copy()
    for _ in range(10):
        _sweep(u, 0.3)
    np.testing.assert_array_equal(u[-1], boundary)
    assert np.allclose(u[0], u[0, 0])


def test_energy_of_linear_radial_profile():
    """E is h-free: a pure r-linear profile has a closed-form energy."""
    rings, cols = 16, 32
    dtheta = 2 * np.pi / cols
    rho = np.arange(rings + 1) / rings
    u = np.zeros((rings + 1, cols, 2))
    u[:, :, 0] = rho[:, None]
    # radial differences are 1/rings each; angular zero
    expected = sum((i + 0.5) * dtheta / rings**2 * cols for i in range(rings))
    np.testing.assert_allclose(_kernels.gs_energy(u, dtheta), expected, rtol=1e-12)


def test_solve_is_a_fixed_point_of_gauss_seidel():
    rng = np.random.default_rng(4)
    for rings, cols in ((12, 24), (16, 31), (64, 256)):
        dtheta = 2 * np.pi / cols
        boundary = rng.normal(size=(cols, 2))
        u = _kernels.solve(boundary, rings, dtheta)
        np.testing.assert_array_equal(u[-1], boundary)
        assert np.all(u[0] == u[0, 0])
        swept = u.copy()
        _sweep(swept, dtheta)
        assert np.abs(swept - u).max() <= 1e-12 * np.abs(u).max()


def test_solve_bumps_raise_energy():
    """Random interior bumps strictly raise the discrete energy."""
    rng = np.random.default_rng(5)
    rings, cols = 16, 32
    dtheta = 2 * np.pi / cols
    u = _kernels.solve(rng.normal(size=(cols, 2)), rings, dtheta)
    base = _kernels.gs_energy(u, dtheta)
    for _ in range(100):
        bumped = u.copy()
        i = rng.integers(1, rings)
        bumped[i, rng.integers(0, cols), rng.integers(0, 2)] += 1e-3 * rng.choice([-1, 1])
        assert _kernels.gs_energy(bumped, dtheta) > base
