import functools
import tracemalloc

import numpy as np
import pytest

from conftest import perfbench_inputs, random_trace, single_mode_trace
from test_invariance import _draws as invariance_draws
from test_invariance import _scaled

from qdisk import _kernels
from qdisk import minimizer as minimizer_module
from qdisk.blowup import rescale_exact
from qdisk.errors import AmbiguousClass, NotStationary, ZeroBoundaryMass, ZeroSpectrum
from qdisk.field import (
    EPS_BOUNDARY_MASS,
    RING_BLOCK,
    DiskField,
    FrequencyProfile,
    PolarGrid,
    dirichlet_energy,
    frequency_profile,
    sample_field,
    scaled_tol,
)
from qdisk.forms import Continuation, FourTuple, HomogeneousPair
from qdisk.minimizer import (
    COEFF_EPS,
    SEP_TOL,
    BoundaryTrace,
    MinimizeResult,
    Spectrum,
    _eval_modes,
    _track_selection,
    analyze_spectrum,
    folded_modes,
    forced_lift,
    frequency_from_spectrum,
    harmonic_extension,
    lift_boundary,
    load_trace,
    minimize,
    relax_oracle,
    save_trace,
    spectral_energy,
    spectral_profile,
)
from qdisk.qpoint import pair_distance_arrays


def test_lift_branched_half():
    trace = single_mode_trace(0.5)
    lift = lift_boundary(trace)
    assert lift.kind is Continuation.SWAP
    assert len(lift.loops) == 1 and lift.loops[0].shape == (512, 2)
    # the double loop closes after 4*pi
    np.testing.assert_allclose(lift.loops[0][0], trace.p1[0])


def test_lift_identity_pair_of_circles():
    trace = single_mode_trace(1.0)
    lift = lift_boundary(trace)
    assert lift.kind is Continuation.IDENTITY
    assert len(lift.loops) == 2
    np.testing.assert_allclose(lift.loops[0], trace.p1)
    np.testing.assert_allclose(lift.loops[1], trace.p2)


def test_lift_collision_raises():
    n = 64
    th = 2 * np.pi * np.arange(n) / n
    p1 = np.stack([np.cos(th), np.sin(th)], axis=1)
    p2 = np.tile([1.0, 0.0], (n, 1))  # touches p1 at theta = 0
    with pytest.raises(AmbiguousClass):
        lift_boundary(BoundaryTrace.from_values(p1, p2))


def test_spectrum_single_modes():
    spec = analyze_spectrum(lift_boundary(single_mode_trace(0.5)))
    assert spec.kind is Continuation.SWAP
    mags = np.sqrt(np.sum(spec.cos_coeffs[0] ** 2, axis=1)) + np.sqrt(
        np.sum(spec.sin_coeffs[0] ** 2, axis=1)
    )
    assert np.argmax(mags) == 1  # frequency 1/2
    assert np.all(np.delete(mags, 1) < 1e-12)

    spec_id = analyze_spectrum(lift_boundary(single_mode_trace(1.0)))
    for cos, sin in zip(spec_id.cos_coeffs, spec_id.sin_coeffs):
        mags = np.sqrt(np.sum(cos**2, axis=1)) + np.sqrt(np.sum(sin**2, axis=1))
        assert np.argmax(mags) == 1  # frequency 1
        assert np.all(np.delete(mags, 1) < 1e-12)


def test_spectrum_constant_trace():
    n = 64
    p = np.tile([0.3, -0.4], (n, 1))
    q = np.tile([1.0, 2.0], (n, 1))
    spec = analyze_spectrum(lift_boundary(BoundaryTrace.from_values(p, q)))
    for cos, sin in zip(spec.cos_coeffs, spec.sin_coeffs):
        assert np.all(np.abs(cos[1:]) < 1e-12) and np.all(np.abs(sin) < 1e-12)


def test_extension_matches_catalog_entry(grid64):
    """Branched single-mode extension equals the sampled catalog entry."""
    field = harmonic_extension(
        analyze_spectrum(lift_boundary(single_mode_trace(0.5))), grid64
    )
    entry = HomogeneousPair(
        0.5, FourTuple(1, 0, 0, 1), FourTuple(-1, 0, 0, -1), Continuation.SWAP
    )
    ref = sample_field(entry, grid64)
    np.testing.assert_allclose(field.sheet1, ref.sheet1, atol=1e-10)
    np.testing.assert_allclose(field.sheet2, ref.sheet2, atol=1e-10)


def test_extension_identity_circles(grid64):
    field = harmonic_extension(
        analyze_spectrum(lift_boundary(single_mode_trace(1.0))), grid64
    )
    r = grid64.radii[:, None]
    np.testing.assert_allclose(
        field.sheet1[..., 0], r * np.cos(grid64.thetas)[None, :], atol=1e-12
    )
    np.testing.assert_allclose(field.sheet2, -field.sheet1, atol=1e-12)


def test_extension_mode0_only(grid64):
    n = 256
    p = np.tile([0.5, 0.5], (n, 1))
    q = np.tile([-1.0, 0.25], (n, 1))
    field = harmonic_extension(
        analyze_spectrum(lift_boundary(BoundaryTrace.from_values(p, q))), grid64
    )
    assert np.allclose(field.sheet1, [0.5, 0.5], atol=1e-12)
    assert np.allclose(field.sheet2, [-1.0, 0.25], atol=1e-12)


def _direct_sum(cos, sin, unit, radial, angles):
    """Reference: sum_k r^nu (A_k cos(nu ang) + B_k sin(nu ang)), nu = k*unit,
    one mode at a time, skipping modes with no coefficient above COEFF_EPS."""
    out = np.zeros(radial.shape[:1] + angles.shape + (2,))
    for k in range(cos.shape[0]):
        A, B = cos[k], sin[k]
        if max(abs(A).max(), abs(B).max()) <= COEFF_EPS:
            continue
        nu = k * unit
        basis = np.cos(nu * angles)[None, :, None] * A + np.sin(nu * angles)[
            None, :, None
        ] * B
        out += np.power(radial, nu)[:, None, None] * basis
    return out


def _direct_stacks(spectrum, grid, radial):
    if spectrum.kind is Continuation.IDENTITY:
        return [
            _direct_sum(c, s, 1.0, radial, grid.thetas)
            for c, s in zip(spectrum.cos_coeffs, spectrum.sin_coeffs)
        ]
    cover = np.concatenate([grid.thetas, grid.thetas + 2.0 * np.pi])
    return [_direct_sum(spectrum.cos_coeffs[0], spectrum.sin_coeffs[0], 0.5, radial, cover)]


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n", [64, 1024], ids=["band", "folding"])
def test_extension_matches_direct_sum(kind, n):
    """The inverse-FFT evaluator equals the per-mode sum at the grid nodes.

    A 64-sample trace fits the 16x64 grid; a 1024-sample one carries modes
    far above the grid's Nyquist, which both fold onto the same angles.
    """
    grid = PolarGrid(16, 64)
    rng = np.random.default_rng(n)
    trace = random_trace(rng, kind, n=n)
    noisy = BoundaryTrace.from_values(
        trace.p1 + 0.01 * rng.normal(size=trace.p1.shape),
        trace.p2 + 0.01 * rng.normal(size=trace.p2.shape),
    )
    spec = analyze_spectrum(forced_lift(noisy, kind))
    assert (folded_modes(spec, grid)[0] > 0) == (n > 64)

    ref = DiskField.from_stacks(grid, _direct_stacks(spec, grid, grid.radii), kind)
    got = harmonic_extension(spec, grid)
    scale = max(np.abs(ref.sheet1).max(), np.abs(ref.sheet2).max())
    assert np.abs(got.sheet1 - ref.sheet1).max() <= 1e-13 * scale
    assert np.abs(got.sheet2 - ref.sheet2).max() <= 1e-13 * scale


def test_extension_skips_modes_below_coeff_eps():
    """A 1e-13 mode is left out: the field is bit-equal to one without it."""
    grid = PolarGrid(16, 64)
    spec = analyze_spectrum(lift_boundary(single_mode_trace(1.5, n=64)))
    cos, sin = spec.cos_coeffs[0].copy(), spec.sin_coeffs[0].copy()
    cos[5], sin[5] = (1e-13, 0.0), (0.0, -1e-13)
    tiny = Spectrum(spec.kind, (cos,), (sin,))
    cos, sin = cos.copy(), sin.copy()
    cos[5] = sin[5] = 0.0
    clean = Spectrum(spec.kind, (cos,), (sin,))
    with_tiny, without = harmonic_extension(tiny, grid), harmonic_extension(clean, grid)
    assert with_tiny.sheet1.tobytes() == without.sheet1.tobytes()


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_boundary_round_trip(kind, grid64):
    """Band-limited data is reproduced exactly on the boundary ring."""
    rng = np.random.default_rng(17)
    trace = random_trace(rng, kind)
    field = harmonic_extension(analyze_spectrum(lift_boundary(trace)), grid64)
    np.testing.assert_allclose(field.sheet1[-1], trace.p1, atol=1e-10)
    np.testing.assert_allclose(field.sheet2[-1], trace.p2, atol=1e-10)


def test_minimize_energies(grid64):
    # {+-(cos(3 th/2), sin(3 th/2))}: two branched degree-3/2 sheets, 6*pi
    res = minimize(single_mode_trace(1.5), grid64)
    assert res.kind is Continuation.SWAP
    np.testing.assert_allclose(res.energy, 6 * np.pi, rtol=0.02)
    # {z, -z}: two unit-degree harmonic maps, 2*pi each
    res2 = minimize(single_mode_trace(1.0), grid64)
    assert res2.kind is Continuation.IDENTITY
    np.testing.assert_allclose(res2.energy, 4 * np.pi, rtol=0.02)
    # constant data extends with zero energy
    n = 256
    res3 = minimize(
        BoundaryTrace.from_values(np.tile([1.0, 1.0], (n, 1)), np.tile([3.0, 0.0], (n, 1))),
        grid64,
    )
    assert res3.energy <= 1e-20


def test_minimize_single_collision_compares_classes(grid64):
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    p1 = np.stack([np.cos(th), np.sin(th)], axis=1)
    p2 = np.tile([1.0, 0.0], (n, 1))
    res = minimize(BoundaryTrace.from_values(p1, p2), grid64)
    assert res.alt_energy is not None
    assert res.energy <= res.alt_energy
    assert res.kind is Continuation.IDENTITY  # circle + constant: 2*pi beats swap
    np.testing.assert_allclose(res.energy, 2 * np.pi, rtol=0.02)


def _one_collision_event(where, n=128):
    """A circle against a second sheet that meets it on one circular run:
    across the wrap (radius 1 + max(0, |theta| - 1.5 dtheta) with theta in
    (-pi, pi]: samples n-1, 0 and 1) or everywhere (the same circle)."""
    th = 2 * np.pi * np.arange(n) / n
    p1 = np.stack([np.cos(th), np.sin(th)], axis=1)
    if where == "everywhere":
        return BoundaryTrace.from_values(p1, p1), list(range(n))
    ang = np.angle(np.exp(1j * th))
    p2 = p1 * (1.0 + np.maximum(0.0, np.abs(ang) - 1.5 * 2 * np.pi / n))[:, None]
    return BoundaryTrace.from_values(p1, p2), [0, 1, n - 1]


@pytest.mark.parametrize("where", ["wrap", "everywhere"])
def test_minimize_one_collision_event(grid32, where):
    """One circular run of collisions is one event: both classes are built."""
    trace, expected = _one_collision_event(where)
    hits = np.linalg.norm(trace.p1 - trace.p2, axis=1) < SEP_TOL
    assert np.flatnonzero(hits).tolist() == expected
    res = minimize(trace, grid32)
    assert res.alt_energy is not None and res.energy <= res.alt_energy


def _count_builds(monkeypatch) -> list[str]:
    """Record each harmonic_extension and dirichlet_energy call minimize's
    results make."""
    calls = []
    extend, energy = minimizer_module.harmonic_extension, minimizer_module.dirichlet_energy

    def counted_extend(*args):
        calls.append("field")
        return extend(*args)

    def counted_energy(*args):
        calls.append("energy")
        return energy(*args)

    monkeypatch.setattr(minimizer_module, "harmonic_extension", counted_extend)
    monkeypatch.setattr(minimizer_module, "dirichlet_energy", counted_energy)
    return calls


def test_minimize_builds_the_field_on_first_read(grid32, monkeypatch):
    """A detected class builds nothing until the field or the energy is
    read, and then once."""
    calls = _count_builds(monkeypatch)
    res = minimize(single_mode_trace(1.5), grid32)
    assert calls == []
    assert res.energy == dirichlet_energy(res.field, 1.0)
    assert res.field is res.field
    assert calls == ["field", "energy"]


def test_minimize_single_collision_builds_each_field_once(grid32, monkeypatch):
    """Choosing the class by energy builds both classes' fields and
    energies once; replace carries the winner's over, so reading them again
    builds nothing."""
    calls = _count_builds(monkeypatch)
    trace, _ = _one_collision_event("wrap")
    res = minimize(trace, grid32)
    assert calls == ["field", "energy", "field", "energy"]
    field, energy = res.field, res.energy
    assert res.alt_energy is not None and energy <= res.alt_energy
    assert calls == ["field", "energy", "field", "energy"]
    forced = minimize(trace, grid32, kind=res.kind)
    assert field.sheet1.tobytes() == forced.field.sheet1.tobytes()
    assert energy == forced.energy


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n_r, n_theta", [(64, 256), (256, 1024)])
def test_inner_extension_rows_equal_harmonic_extension(kind, n_r, n_theta):
    """The evaluator works ring by ring: the extension's inner rings 0..m
    alone, within one block, across one and out to m = n_r, and the unit
    circle alone (an exact rescale's ring) are those rows of the full
    extension, bit for bit."""
    grid = PolarGrid(n_r, n_theta)
    spectrum = analyze_spectrum(lift_boundary(
        random_trace(np.random.default_rng(n_r), kind, n=n_theta, kmax=6)))
    assert spectrum.kind is kind
    full = harmonic_extension(spectrum, grid)
    for m in (n_r // 8, n_r // 2 + 1, n_r):
        inner = _eval_modes(spectrum, grid, grid.radii[: m + 1])
        for got, want in zip(inner, (full.sheet1, full.sheet2)):
            assert got.flags.c_contiguous and got.shape == (m + 1, n_theta, 2)
            assert got.tobytes() == want[: m + 1].tobytes()
    circle = _eval_modes(spectrum, grid, np.ones(1))
    assert circle.tobytes() == np.stack([full.sheet1[-1:], full.sheet2[-1:]]).tobytes()


@pytest.mark.parametrize("inner", [False, True], ids=["harmonic", "inner"])
def test_extension_holds_one_field_and_block_work(inner):
    """tracemalloc over the swap-class extension on rings 0..m: the peak is
    the sheets (one field of m + 1 rings) and, per block, its spectrum and
    inverse FFT, each RING_BLOCK rings of the double cover, plus the mode
    products. A double-cover array with contiguous copies of its halves
    holds two fields, 4.8 blocks more at m = 153 (inner rings to r = 0.4)."""
    grid = PolarGrid(384, 64)
    spectrum = analyze_spectrum(lift_boundary(
        random_trace(np.random.default_rng(5), Continuation.SWAP, n=64, kmax=6)))
    m = 2 * grid.n_r // 5 if inner else grid.n_r
    field_bytes = 2 * (m + 1) * grid.n_theta * 2 * 8
    block_bytes = RING_BLOCK * 2 * grid.n_theta * 2 * 8
    tracemalloc.start()
    try:
        if inner:
            sheet1, sheet2 = _eval_modes(spectrum, grid, grid.radii[: m + 1])
        else:
            field = harmonic_extension(spectrum, grid)
            sheet1, sheet2 = field.sheet1, field.sheet2
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= field_bytes + 0.1 * block_bytes
    assert peak <= field_bytes + 2.5 * block_bytes
    assert sheet1.shape == sheet2.shape == (m + 1, grid.n_theta, 2)


def test_minimize_two_collisions_ambiguous(grid64):
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    # sheets touch at theta = 0 and theta = pi
    p1 = np.stack([np.cos(th), np.sin(th)], axis=1)
    p2 = np.stack([np.cos(th), -np.sin(th)], axis=1)
    with pytest.raises(AmbiguousClass):
        minimize(BoundaryTrace.from_values(p1, p2), grid64)


def test_minimize_forced_class(grid64):
    trace = single_mode_trace(0.5)
    res = minimize(trace, grid64, kind=Continuation.SWAP)
    assert res.kind is Continuation.SWAP
    np.testing.assert_allclose(res.energy, 2 * np.pi, rtol=0.02)


def test_spectral_energy_closed_form():
    np.testing.assert_allclose(
        spectral_energy(analyze_spectrum(lift_boundary(single_mode_trace(1.5)))),
        6 * np.pi,
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        spectral_energy(analyze_spectrum(lift_boundary(single_mode_trace(1.0)))),
        4 * np.pi,
        rtol=1e-12,
    )


def _old_spectral_energy(spectrum: Spectrum) -> float:
    """spectral_energy before it took a radius."""
    total = 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = np.arange(cos.shape[0])
        total += np.pi * np.sum(k * (np.sum(cos**2, axis=1) + np.sum(sin**2, axis=1)))
    return float(total)


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_spectral_energy_at_radius(kind):
    """D(r) weights mode k by r^(2 k unit); at r = 1 it keeps its bits."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        spectrum = analyze_spectrum(lift_boundary(random_trace(rng, kind, n=64, mode0=True)))
        assert spectral_energy(spectrum) == _old_spectral_energy(spectrum)
        assert spectral_energy(spectrum, 1.0) == _old_spectral_energy(spectrum)
    half = analyze_spectrum(lift_boundary(single_mode_trace(1.5)))
    for r in (0.5, 0.1):
        np.testing.assert_allclose(spectral_energy(half, r), 6 * np.pi * r**3, rtol=1e-12)


def _closed_form_mass(spectrum: Spectrum, r: float) -> float:
    """H(r) of the spectral extension: a loop of period L carries L |A_0|^2
    in mode 0 and L/2 (|A_k|^2 + |B_k|^2) r^(2 k unit) in mode k."""
    unit = spectrum.frequency_unit
    period = 2 * np.pi / unit
    total = 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = np.arange(cos.shape[0])
        weight = np.where(k == 0, period, period / 2) * r ** (2 * k * unit)
        total += np.sum(weight * (np.sum(cos**2, axis=1) + np.sum(sin**2, axis=1)))
    return r * total


# The quadrature's largest relative error in D over the profile radii on the
# benchmark traces, as measured (ROADMAP item 8): 1.25e-2 on the broadband
# traces at 64x256 and 4.37e-5 on the band traces at 256x1024.
SPECTRAL_PROFILE_CASES = {
    "broadband-64x256": (("broadband", 1, 256, 2), (64, 256), 1.3e-2),
    "band-256x1024": (("band", 101, 1024, 2), (256, 1024), 5e-5),
}


@pytest.mark.parametrize("case", list(SPECTRAL_PROFILE_CASES))
def test_spectral_profile_matches_the_quadrature(monkeypatch, case):
    """spectral_profile at the rings frequency_profile reads: H equals the
    quadrature's to 1e-14 relative (no mode reaches the Nyquist), D lies
    within the quadrature's measured error, N does not decrease, and data
    scaled by 2^-30 or 2^30 give the same N bit for bit."""
    traces, (n_r, n_theta), d_tol = SPECTRAL_PROFILE_CASES[case]
    grid = PolarGrid(n_r, n_theta)
    for generated in perfbench_inputs(monkeypatch).make_traces(*traces):
        trace = BoundaryTrace.from_values(*generated.sheets())
        spectrum = analyze_spectrum(lift_boundary(trace))
        assert folded_modes(spectrum, grid) == (0, 0.0)
        quadrature = frequency_profile(harmonic_extension(spectrum, grid),
                                       np.linspace(0.25, 1.0, 16))
        closed = spectral_profile(spectrum, quadrature.radii)
        assert closed.radii.tolist() == quadrature.radii.tolist()
        np.testing.assert_allclose(closed.H, quadrature.H, rtol=1e-14)
        np.testing.assert_allclose(closed.D, quadrature.D, rtol=d_tol)
        assert np.all(np.diff(closed.N) >= 0) and closed.monotonicity_defect <= 0
        for k in (-30, 30):
            scaled = BoundaryTrace.from_values(2.0**k * trace.p1, 2.0**k * trace.p2)
            profile = spectral_profile(analyze_spectrum(lift_boundary(scaled)), closed.radii)
            assert profile.N.tobytes() == closed.N.tobytes()


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_spectral_profile_is_the_closed_form(kind):
    """D is spectral_energy and H the per-mode mass of an independent sum,
    with a constant mode too; N = r D / H rises on every draw."""
    rng = np.random.default_rng(17)
    radii = np.linspace(0.1, 1.0, 10)
    for mode0 in (False, True):
        spectrum = analyze_spectrum(lift_boundary(random_trace(rng, kind, mode0=mode0)))
        profile = spectral_profile(spectrum, radii)
        assert profile.D.tolist() == [spectral_energy(spectrum, r) for r in radii]
        np.testing.assert_allclose(
            profile.H, [_closed_form_mass(spectrum, r) for r in radii], rtol=1e-14)
        assert profile.N.tolist() == (radii * profile.D / profile.H).tolist()
        assert np.all(np.diff(profile.N) > 0)


# Quadrature errors measured on the 3/2 + 0.1 * 7/2 trace: the relative
# error of D(1), the largest relative error of D over the profile radii, and
# the largest absolute error of N there. They shrink about 16x from 64 to
# 256 rings, as second-order quadrature should.
QUADRATURE_ERRORS = {
    (64, 256): (3.656e-4, 6.543e-4, 9.815e-4),
    (256, 1024): (2.299e-5, 4.369e-5, 6.554e-5),
}


@pytest.mark.parametrize("n_r, n_theta", sorted(QUADRATURE_ERRORS))
def test_quadrature_error_against_closed_form(n_r, n_theta):
    """Pins the quadrature's error against closed-form D(r), H(r), N(r)
    within 2% of the measured value either way; H is exact to rounding,
    since the ring sum integrates trigonometric polynomials exactly."""
    th = 2 * np.pi * np.arange(n_theta) / n_theta
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack([np.cos(1.5 * cover) + 0.1 * np.cos(3.5 * cover),
                     np.sin(1.5 * cover) + 0.1 * np.sin(3.5 * cover)], axis=1)
    grid = PolarGrid(n_r, n_theta)
    result = minimize(BoundaryTrace.from_values(loop[:n_theta], loop[n_theta:]), grid)
    spectrum = result.spectrum
    profile = frequency_profile(result.field, np.linspace(0.25, 1.0, 16))
    radii = profile.radii
    D = np.array([spectral_energy(spectrum, r) for r in radii])
    H = np.array([_closed_form_mass(spectrum, r) for r in radii])
    np.testing.assert_allclose(profile.H, H, rtol=1e-14)
    errors = (
        abs(result.energy - spectral_energy(spectrum)) / spectral_energy(spectrum),
        np.max(np.abs(profile.D - D) / D),
        np.max(np.abs(profile.N - radii * D / H)),
    )
    np.testing.assert_allclose(errors, QUADRATURE_ERRORS[n_r, n_theta], rtol=0.02)


def test_double_cover_energy_identity(grid64):
    """Branched 2-valued energy equals the unfolded single-loop energy.

    Unfolding through w -> w^2 sends the double loop's mode k/2 to integer
    mode k; the per-mode energies pi*k*|coef|^2 coincide, and the discrete
    2-valued energy agrees with that closed form to quadrature accuracy.
    """
    rng = np.random.default_rng(23)
    for _ in range(5):
        trace = random_trace(rng, Continuation.SWAP)
        spec = analyze_spectrum(lift_boundary(trace))
        cover_energy = spectral_energy(spec)  # single-valued cover closed form
        field = harmonic_extension(spec, grid64)
        assert abs(dirichlet_energy(field, 1.0) - cover_energy) <= 0.02 * cover_energy


def test_frequency_from_spectrum_cases():
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = 0.05 * np.stack([np.cos(cover / 2), np.sin(cover / 2)], axis=1)
    loop += 2.0 * np.stack([np.cos(5 * cover / 2), np.sin(5 * cover / 2)], axis=1)
    trace = BoundaryTrace.from_values(loop[:n], loop[n:])
    assert frequency_from_spectrum(analyze_spectrum(lift_boundary(trace))) == 0.5

    assert (
        frequency_from_spectrum(analyze_spectrum(lift_boundary(single_mode_trace(1.0))))
        == 1.0
    )

    const = BoundaryTrace.from_values(
        np.tile([0.7, 0.0], (n, 1)), np.tile([0.0, 0.9], (n, 1))
    )
    assert frequency_from_spectrum(analyze_spectrum(lift_boundary(const))) == 0.0

    zero_loops = forced_lift(
        BoundaryTrace.from_values(np.zeros((n, 2)), np.zeros((n, 2))),
        Continuation.IDENTITY,
    )
    with pytest.raises(ZeroSpectrum):
        frequency_from_spectrum(analyze_spectrum(zero_loops))


def test_relax_matches_spectral_branched(grid64):
    cases = [(single_mode_trace(0.5), grid64),
             (single_mode_trace(1.0, n=32), PolarGrid(16, 32))]
    for trace, grid in cases:
        spectral = minimize(trace, grid)
        relaxed = relax_oracle(spectral.field)
        gap = abs(dirichlet_energy(relaxed, 1.0) - spectral.energy) / spectral.energy
        assert gap <= 0.01


def test_relax_recovers_harmonic_boundary(grid64):
    """Boundary data already harmonic: relaxation reproduces it."""
    trace = single_mode_trace(1.0)
    ref = minimize(trace, grid64)
    relaxed = relax_oracle(ref.field)
    err = pair_distance_arrays(
        relaxed.sheet1, relaxed.sheet2, ref.field.sheet1, ref.field.sheet2
    )
    assert err.max() <= 5e-4


def test_relax_plain_gauss_seidel_small_grid():
    """The oracle's discrete energy is that of a long plain Gauss-Seidel run."""
    grid = PolarGrid(16, 32)
    relaxed = relax_oracle(minimize(single_mode_trace(1.0, n=32), grid).field)
    rho = grid.radii[:, None, None]
    for sheet in (relaxed.sheet1, relaxed.sheet2):
        boundary = sheet[-1]
        center = boundary.mean(axis=0)
        u = center + rho * (boundary - center)
        for _ in range(1500):
            _kernels.gs_sweep(u, grid.dtheta, 0)
            _kernels.gs_sweep(u, grid.dtheta, 1)
            _kernels.gs_center(u)
        np.testing.assert_allclose(
            _kernels.gs_energy(sheet, grid.dtheta),
            _kernels.gs_energy(u, grid.dtheta),
            rtol=1e-12,
        )


def test_relax_rejects_non_stationary_solution(grid64, monkeypatch):
    exact = _kernels.solve

    def perturbed(boundary, n_rings, dtheta):
        u = exact(boundary, n_rings, dtheta)
        u[n_rings // 2] *= 1.01
        return u

    monkeypatch.setattr(_kernels, "solve", perturbed)
    with pytest.raises(NotStationary):
        relax_oracle(minimize(single_mode_trace(0.5), grid64).field)


def test_minimality_within_class(grid64):
    """Random interior bumps strictly increase the discrete energy."""
    rng = np.random.default_rng(29)
    trace = random_trace(rng, Continuation.SWAP)
    field = minimize(trace, grid64).field
    base = dirichlet_energy(field, 1.0)
    amp = 0.01 * max(np.abs(field.sheet1).max(), np.abs(field.sheet2).max())
    for _ in range(100):
        i = rng.integers(3, grid64.n_r)  # interior ring, off center
        j = rng.integers(0, grid64.n_theta)
        sheet = rng.integers(0, 2)
        comp = rng.integers(0, 2)
        bumped1, bumped2 = field.sheet1.copy(), field.sheet2.copy()
        (bumped1 if sheet == 0 else bumped2)[i, j, comp] += amp * rng.choice([-1, 1])
        perturbed = DiskField(grid64, bumped1, bumped2, field.seam)
        assert dirichlet_energy(perturbed, 1.0) > base


def test_frequency_consistency(grid64):
    """Spectral origin frequency agrees with the profile's innermost ring."""
    rng = np.random.default_rng(31)
    for kind in (Continuation.IDENTITY, Continuation.SWAP):
        for _ in range(3):
            trace = random_trace(rng, kind)  # no constant mode: vanishes at 0
            res = minimize(trace, grid64)
            spec_freq = frequency_from_spectrum(
                analyze_spectrum(lift_boundary(trace))
            )
            prof = frequency_profile(res.field, np.linspace(0.15, 1.0, 12))
            assert abs(prof.N[0] - spec_freq) <= 0.02


def test_trace_json_roundtrip(tmp_path):
    trace = single_mode_trace(0.5, n=64)
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    back = load_trace(path)
    np.testing.assert_allclose(back.thetas, trace.thetas)
    np.testing.assert_allclose(back.p1, trace.p1)
    np.testing.assert_allclose(back.p2, trace.p2)


def test_trace_validation():
    with pytest.raises(ValueError):
        BoundaryTrace(np.array([0.0, 0.1]), np.zeros((2, 2)), np.zeros((2, 2)))
    n = 16
    bad_angles = np.linspace(0, 2 * np.pi, n)  # includes endpoint; nonuniform
    with pytest.raises(ValueError):
        BoundaryTrace(bad_angles, np.zeros((n, 2)), np.zeros((n, 2)))
    th = 2 * np.pi * np.arange(n) / n
    for bad in (np.nan, np.inf, -np.inf):
        p1 = np.ones((n, 2))
        p1[3, 1] = bad
        with pytest.raises(ValueError):
            BoundaryTrace(th, p1, -np.ones((n, 2)))
        with pytest.raises(ValueError):
            BoundaryTrace(th, -np.ones((n, 2)), p1)


def test_relax_doubled_boundary(grid64):
    """Doubled single-valued data {z, z}: relaxation recovers 2[[z]]."""
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    trace = BoundaryTrace.from_values(z, z.copy())
    relaxed = relax_oracle(minimize(trace, grid64, Continuation.IDENTITY).field)
    r = grid64.radii[:, None]
    expected = np.stack(
        [r * np.cos(grid64.thetas)[None, :], r * np.sin(grid64.thetas)[None, :]],
        axis=-1,
    )
    for sheet in (relaxed.sheet1, relaxed.sheet2):
        assert np.max(np.abs(sheet - expected)) <= 2e-4


def test_extension_on_mismatched_grid_resolution():
    """Trace sampling and grid resolution are independent choices."""
    trace = single_mode_trace(1.5, n=128)
    grid = PolarGrid(32, 96)
    res = minimize(trace, grid)
    assert res.kind is Continuation.SWAP
    np.testing.assert_allclose(res.energy, 6 * np.pi, rtol=0.02)


def test_minimize_result_rejects_higher_energy_under_optimize():
    """The class-order check is a real check, not an assert that -O strips,
    and its slack is relative: an energy twice the other class's is
    rejected at any scale."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qdisk

    code = (
        "import sys\n"
        "from qdisk.forms import Continuation\n"
        "from qdisk.minimizer import MinimizeResult\n"
        "print(sys.flags.optimize)\n"
        "for alt, energy in ((1.0, 5.0), (1e-16, 2e-16)):\n"
        "    try:\n"
        "        MinimizeResult(Continuation.SWAP, None, None, alt_energy=alt, _energy=energy)\n"
        "    except ValueError:\n"
        "        print('rejected')\n"
    )
    src = str(Path(qdisk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "rejected", "rejected"]
    MinimizeResult(Continuation.SWAP, None, None, alt_energy=5.0, _energy=1.0)


def _track_selection_walk(trace: BoundaryTrace):
    """The former walk of _track_selection: one sample at a time on Python
    floats, each comparison made against the selection just taken."""
    p1, p2 = trace.p1.tolist(), trace.p2.tolist()

    def nearer_first(j, x, y):
        (ax, ay), (bx, by) = p1[j], p2[j]
        ax, ay, bx, by = ax - x, ay - y, bx - x, by - y
        return ax * ax + ay * ay <= bx * bx + by * by

    take_first = [True] * trace.n
    x, y = p1[0]
    for j in range(1, trace.n):
        take_first[j] = nearer_first(j, x, y)
        x, y = p1[j] if take_first[j] else p2[j]
    take = np.array(take_first)[:, None]
    return np.where(take, trace.p1, trace.p2), np.where(take, trace.p2, trace.p1), \
        nearer_first(0, x, y)


@functools.cache
def _walk_traces() -> tuple:
    """The invariance draws and 100 random_trace draws per class at n = 256
    and at n = 1024, each with a noisy copy that makes the walk jump sheets."""
    rng = np.random.default_rng(25)
    traces = list(invariance_draws())
    for kind in (Continuation.IDENTITY, Continuation.SWAP):
        for n in (256, 1024):
            for _ in range(100):
                trace = random_trace(rng, kind, n=n)
                noise = 0.3 * rng.normal(size=(2, n, 2))
                traces += [trace, BoundaryTrace.from_values(*(trace.p1, trace.p2) + noise)]
    return tuple(traces)


def _relabelled(trace: BoundaryTrace) -> BoundaryTrace:
    return BoundaryTrace.from_values(trace.p2, trace.p1)


def _same_lift(got, want) -> bool:
    """Two (sel, comp, closes) lifts agree byte for byte."""
    return (got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            and got[2] is want[2])


def test_track_selection_is_the_walk_bit_for_bit():
    """Where the walk picks the same lift from both labellings (up to the
    exchange of sel and comp), the sign continuation picks it too, byte for
    byte, with the same closing flag; elsewhere its class is one of the two
    the walk reads. The traces reach both cases, sheet jumps and both
    closing flags. The last trace's squared distances overflow, which the
    walk took as inf."""
    traces = (*_walk_traces(), _scaled(_walk_traces()[-1], 1e154))
    agree, jumps, closing = 0, 0, set()
    for trace in traces:
        with np.errstate(over="raise"):  # as the CLI runs
            got = _track_selection(trace)
        sel, comp, closes = walk = _track_selection_walk(trace)
        other = _track_selection_walk(_relabelled(trace))
        if _same_lift(other, (comp, sel, closes)):
            agree += 1
            assert _same_lift(got, walk)
        else:
            assert got[2] in (closes, other[2])
        jumps += int(np.any(got[0] != trace.p1))
        closing.add(got[2])
    assert 0 < agree < len(traces)
    assert jumps > 100 and closing == {True, False}


def test_lift_ignores_labels():
    """The lift of the relabelled trace is the lift with sel and comp
    exchanged, bit for bit, with the same closing flag: on the walk's
    traces, on their copies scaled by 1e154, 1e300 and 1e-300, where no
    product overflows, and on sheets that cross at four angles, where
    p1 - p2 is 0 or nearly so."""
    th = 2 * np.pi * np.arange(256) / 256
    p1 = np.stack([np.cos(th), np.sin(2 * th)], axis=1)
    traces = (*_walk_traces(), BoundaryTrace.from_values(p1, p1 * [1.0, -1.0]))
    for trace in (*traces, *(_scaled(t, s) for s in (1e154, 1e300, 1e-300) for t in traces)):
        with np.errstate(over="raise"):
            sel, comp, closes = _track_selection(trace)
            relabelled = _track_selection(_relabelled(trace))
        assert _same_lift(relabelled, (comp, sel, closes))


def test_lift_keeps_the_benchmark_traces(monkeypatch):
    """The perfbench traces, band (8 per run, as the workloads draw them)
    and broadband (1 per run), seeds 1-5, at n = 256 and 1024, lift as the
    walk lifts them, bit for bit: the benchmark's energies and output
    digests do not move with the lift."""
    inputs = perfbench_inputs(monkeypatch)
    lifts = 0
    for name, count in (("band", 8), ("broadband", 1)):
        for seed in range(1, 6):
            for n in (256, 1024):
                for generated in inputs.make_traces(name, seed, n, count):
                    trace = BoundaryTrace.from_values(*generated.sheets())
                    assert _same_lift(_track_selection(trace), _track_selection_walk(trace))
                    lifts += 1
    assert lifts == 90


def _coefficient_tables(rng, modes: int, decades: float) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine tables (modes, 2) of magnitudes from 10^-decades to
    10^decades, with exact zeros and signed zeros."""
    tables = rng.normal(size=(2, modes, 2)) * 10.0 ** rng.uniform(-decades, decades,
                                                                 size=(2, modes, 2))
    tables[rng.random(tables.shape) < 0.1] = 0.0
    tables[rng.random(tables.shape) < 0.1] = -0.0
    return tables[0], tables[1]


def _axis_present(cos, sin, eps):
    return np.nonzero(np.maximum(np.abs(cos).max(axis=1), np.abs(sin).max(axis=1)) > eps)[0]


def _axis_mass(cos, sin):
    return np.sum(cos**2, axis=1) + np.sum(sin**2, axis=1)


def _axis_folded_modes(spectrum: Spectrum, grid: PolarGrid) -> tuple[int, float]:
    """folded_modes with the mass and the Nyquist test as reductions over
    the coordinate pair, on the same power-of-two copy of the tables."""
    spectrum = minimizer_module._unit_binade(spectrum)
    half = minimizer_module._columns(spectrum, grid) // 2
    eps = spectrum.coeff_eps
    count, energy = 0, 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = _axis_present(cos, sin, eps)
        k = k[k > half]
        count += len(k)
        energy += np.pi * np.sum(k * _axis_mass(cos[k], sin[k]))
        if half < len(sin) and np.abs(sin[half]).max() > eps:
            count += 1
            energy += np.pi * half * np.sum(sin[half] ** 2)
    return count, (float(energy / spectral_energy(spectrum)) if count else 0.0)


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_folded_modes_at_any_scale(kind):
    """The count and the share of folded modes keep their bits when the
    coefficient tables and coeff_eps are scaled by 2^-900 or 2^900, where
    the spectral energy underflows to 0 or overflows."""
    trace = random_trace(np.random.default_rng(5), kind, n=16)
    spectrum = analyze_spectrum(forced_lift(trace, kind))
    grid = PolarGrid(16, 8)
    want = folded_modes(spectrum, grid)
    assert want[0] > 0
    for e in (-900, 900):
        scaled = Spectrum(kind, tuple(np.ldexp(c, e) for c in spectrum.cos_coeffs),
                          tuple(np.ldexp(s, e) for s in spectrum.sin_coeffs),
                          np.ldexp(spectrum.coeff_eps, e))
        assert folded_modes(scaled, grid) == want


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_coordinate_pairs_as_columns_keep_every_bit(monkeypatch, kind):
    """_present, _mass, spectral_energy, spectral_profile, folded_modes and
    the sheet gaps equal their reductions over the length-2 axis bit for
    bit; the spectral functions are compared with _present and _mass
    swapped for those reductions. The tables span 1e-150 to 1e150, or 0.1
    to 10 for terms of comparable size; every other one ends at the Nyquist
    mode, so its folded energy is the Nyquist sine part's alone."""
    rng = np.random.default_rng(251)
    loops = 2 if kind is Continuation.IDENTITY else 1
    grid = PolarGrid(16, 48)
    half = 24 if kind is Continuation.IDENTITY else 48  # modes above it fold
    radii = np.array([0.99, 1.0])
    folds = {97: 0, half + 1: 0}
    for draw in range(40):
        modes, decades = (97, half + 1)[draw % 2], (150, 1)[draw // 20]
        tables = [_coefficient_tables(rng, modes, decades) for _ in range(loops)]
        for cos, sin in tables:
            # reach the Nyquist test, with one coordinate below eps at times
            sin[half] = rng.normal(size=2) * 10.0 ** rng.uniform(-20, 5, size=2)
            for eps in (0.0, 1e-140, 1e-12, 1.0, 1e140):
                assert minimizer_module._present(cos, sin, eps).tolist() == \
                    _axis_present(cos, sin, eps).tolist()
            assert minimizer_module._mass(cos, sin).tobytes() == _axis_mass(cos, sin).tobytes()
        spectrum = Spectrum(kind, *map(tuple, zip(*tables)), coeff_eps=1e-12)
        folded = folded_modes(spectrum, grid)
        assert folded == _axis_folded_modes(spectrum, grid)
        folds[modes] += folded[0] > 0
        energies = spectral_energy(spectrum), spectral_energy(spectrum, 0.7)
        profile = spectral_profile(spectrum, radii)
        with monkeypatch.context() as patch:
            patch.setattr(minimizer_module, "_present", _axis_present)
            patch.setattr(minimizer_module, "_mass", _axis_mass)
            assert energies == (spectral_energy(spectrum), spectral_energy(spectrum, 0.7))
            want = spectral_profile(spectrum, radii)
        for name in ("D", "H", "N"):
            assert getattr(profile, name).tobytes() == getattr(want, name).tobytes()
        p1, p2 = (rng.normal(size=(97, 2)) * 10.0 ** rng.uniform(-150, 150, size=(97, 2))
                  for _ in range(2))
        p1[:5] = p2[:5]
        p1[5:10], p2[5:8] = -0.0, 0.0
        trace = BoundaryTrace.from_values(p1, p2)
        norm = np.linalg.norm(p1 - p2, axis=1)
        assert trace.gaps().tobytes() == norm.tobytes()
        assert trace.separation() == float(np.min(norm))
    assert folds[97] == 20 and folds[half + 1] > 5


def _swap_spectrum(modes: dict, m: int = 64) -> Spectrum:
    """Double-loop spectrum with the given {k: (cos, sin)} coefficient pairs."""
    cos = np.zeros((m // 2 + 1, 2))
    sin = np.zeros((m // 2 + 1, 2))
    for k, (c, s) in modes.items():
        cos[k], sin[k] = c, s
    return Spectrum(Continuation.SWAP, (cos,), (sin,))


def test_frequency_presence_matches_extension():
    """Four coefficients of 7e-13 sum to a norm above COEFF_EPS, but no
    single one is above it: the extension leaves the mode out, and so does
    the frequency."""
    tiny = np.full(2, 7e-13)
    assert 2 * np.linalg.norm(tiny) > COEFF_EPS > tiny.max()
    unit = ((1.0, 0.0), (0.0, 1.0))
    with_tiny = _swap_spectrum({1: (tiny, tiny), 3: unit})
    without = _swap_spectrum({3: unit})
    grid = PolarGrid(8, 16)
    a, b = harmonic_extension(with_tiny, grid), harmonic_extension(without, grid)
    assert np.array_equal(a.sheet1, b.sheet1) and np.array_equal(a.sheet2, b.sheet2)
    assert frequency_from_spectrum(with_tiny) == frequency_from_spectrum(without) == 1.5


def test_folded_modes_counts_nyquist_sine():
    """On 8x16 the double cover has 32 columns: the sine of mode 16 vanishes
    at every node, its cosine survives."""
    grid = PolarGrid(8, 16)
    unit = ((1.0, 0.0), (0.0, 1.0))
    lost = _swap_spectrum({3: unit, 16: ((0.0, 0.0), (0.1, 0.0))})
    count, share = folded_modes(lost, grid)
    assert count == 1
    assert share == pytest.approx(np.pi * 16 * 0.01 / spectral_energy(lost), rel=1e-12)
    kept = _swap_spectrum({3: unit, 16: ((0.1, 0.0), (0.0, 0.0))})
    assert folded_modes(kept, grid) == (0, 0.0)


def _dense_energy(spectrum: Spectrum, r: float) -> float:
    """spectral_energy with a power for every mode, k * np.power(r, 2 k unit)."""
    total = 0.0
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        k = np.arange(cos.shape[0])
        weight = k * np.power(float(r), 2 * k * spectrum.frequency_unit)
        total += np.pi * np.sum(weight * minimizer_module._mass(cos, sin))
    return float(total)


def _dense_profile(spectrum: Spectrum, radii):
    """spectral_profile with H's table of powers over every mode and every
    radius; a ZeroBoundaryMass comes back as its message."""
    radii = np.array(radii, dtype=float)
    unit = spectrum.frequency_unit
    H, masses = 0.0, []
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        mass = minimizer_module._mass(cos, sin)
        mass[0] *= 2.0
        H = H + np.power(radii[:, None], 2 * unit * np.arange(len(mass))) @ mass
        masses.append(mass)
    H *= np.pi / unit * radii
    D = np.array([_dense_energy(spectrum, r) for r in radii])
    return _profile_outcome(FrequencyProfile.of, radii, D, H,
                            scaled_tol(EPS_BOUNDARY_MASS, masses))


def _profile_outcome(profile, *args):
    """The bytes of radii, D, H and N of a profile, or its ZeroBoundaryMass."""
    try:
        result = profile(*args)
    except ZeroBoundaryMass as exc:
        return str(exc)
    return [getattr(result, name).tobytes() for name in ("radii", "D", "H", "N")]


def _trimmed_terms(mass: np.ndarray, step: float, radii: np.ndarray) -> np.ndarray:
    """The terms mass_k r^(step k), one row per radius: powers for the
    _live_count leading modes of the largest |radius|, 0.0 past them."""
    powers = np.zeros((len(radii), len(mass)))
    count = minimizer_module._live_count(mass, step, float(np.max(np.abs(radii))))
    powers[:, :count] = np.power(radii[:, None], step * np.arange(count))
    return powers * mass


def _underflow_sweep(step: float, modes: int) -> np.ndarray:
    """At least 1,000 radii at which r^(step k) enters the subnormal range
    or underflows to 0.0, for modes k spread over 1..modes: 2^(e / (step
    k)) for e from -1080 to -1070; with 0, 0.1, 0.2, 0.25, 0.4 and 1."""
    ks = np.unique(np.geomspace(1, modes, 100).astype(int))
    exps = np.linspace(-1080, -1070, -(-1000 // len(ks)) + 1)
    radii = np.exp2(exps[:, None] / (step * ks[None, :])).ravel()
    return np.unique(np.concatenate([radii, [0.0, 0.1, 0.2, 0.25, 0.4, 1.0]]))


def _trimming_spectra(monkeypatch, kind: Continuation) -> list:
    """Lift spectra, whose absent modes carry noise-level masses, of a
    band-limited and a broadband trace of the class, of a single mode
    ({z, -z}, or z^(3/2)), and of the band-limited trace scaled by 2^40,
    2^-40 and 1e-150; with the rescale_exact spectrum of each at 0.4,
    whose absent modes are exact zeros."""
    if kind is Continuation.SWAP:
        inputs = perfbench_inputs(monkeypatch)
        band, broad = (BoundaryTrace.from_values(*inputs.make_traces(name, 27, 256, 1)[0].sheets())
                       for name in ("band", "broadband"))
        single = single_mode_trace(1.5)
    else:
        rng = np.random.default_rng(271)
        band, broad = random_trace(rng, kind), random_trace(rng, kind, kmax=100)
        single = single_mode_trace(1.0)
    traces = [band, broad, single] + [BoundaryTrace.from_values(scale * band.p1, scale * band.p2)
                                      for scale in (2.0**40, 2.0**-40, 1e-150)]
    spectra = []
    for trace in traces:
        result = minimize(trace, PolarGrid(16, 256))
        assert result.kind is kind
        spectra += [result.spectrum, rescale_exact(result, 0.4).spectrum]
    return spectra


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_trimmed_closed_forms_keep_every_bit(monkeypatch, kind):
    """spectral_energy and spectral_profile, which take powers only for the
    _live_count leading modes, equal the dense sums over every mode bit for
    bit. At 1,000 radii across the underflow of the modes' powers, every
    dense term past the live count is +0.0, and the energies agree (at
    every fourth radius for scaled data); so do H's term tables, which take
    the count of the largest radius, and the profiles, on radii ascending
    and descending."""
    step = 2 * (1.0 if kind is Continuation.IDENTITY else 0.5)
    profiles = 0
    for index, spectrum in enumerate(_trimming_spectra(monkeypatch, kind)):
        masses = [minimizer_module._mass(cos, sin)
                  for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs)]
        sweep = _underflow_sweep(step, len(masses[0]) - 1)
        assert len(sweep) >= 1000
        for mass in masses:
            dense = np.power(sweep[:, None], step * np.arange(len(mass))) * mass
            counts = [minimizer_module._live_count(mass, step, r) for r in sweep]
            past = np.arange(len(mass)) >= np.array(counts)[:, None]
            assert not dense.view(np.uint64)[past].any()
            for rows in (slice(None, None, -1), sweep < 0.3, (sweep > 0) & (sweep < 0.05)):
                terms = _trimmed_terms(mass, step, sweep[rows])
                assert terms.tobytes() == dense[rows].tobytes()
        for r in sweep if index < 6 else sweep[::4]:
            assert _bits(spectral_energy(spectrum, r)) == _bits(_dense_energy(spectrum, r))
        for radii in (np.geomspace(1e-3, 0.99, 20), [0.1, 0.2, 0.25, 0.4, 1.0],
                      *(sweep[(sweep > 0) & (sweep < cap)][::-8][:15] for cap in (1e-3, 0.3))):
            for ordered in (np.sort(radii), np.sort(radii)[::-1]):
                got = _profile_outcome(spectral_profile, spectrum, ordered)
                assert got == _dense_profile(spectrum, ordered)
                profiles += isinstance(got, list)
    assert profiles > 40


def test_trimmed_closed_forms_keep_non_finite_terms():
    """Where a dense term is NaN, an underflowed power times an infinite mass
    (a coefficient of 1e200) or an infinite power (r > 1) times a zero
    mass, the trimmed energy is NaN too: bit for bit the dense one."""
    cos, sin = np.zeros((65, 2)), np.zeros((65, 2))
    cos[3] = (1.0, 0.5)
    huge = cos.copy()
    huge[60, 0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        for table, r in ((huge, 1e-12), (huge, 0.5), (cos, 1e10), (cos, 0.5), (cos, np.nan)):
            spectrum = Spectrum(Continuation.SWAP, (table,), (sin,))
            energy = spectral_energy(spectrum, r)
            assert _bits(energy) == _bits(_dense_energy(spectrum, r))
            assert np.isnan(energy) == (r != 0.5)
