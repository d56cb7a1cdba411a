import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_field, random_trace, single_mode_trace

from qdisk import cli
from qdisk import field as field_module
from qdisk.blowup import (
    CENTER_EXCLUSION_RINGS,
    BlowupSequence,
    _cauchy_defect,
    _circle_defect,
    blowup_sequence,
    check_radii,
    identify_catalog,
    rescale_exact,
    rescale_normalize,
)
from qdisk.errors import GridTooCoarse, NoCatalogMatch, ZeroEnergy
from qdisk.field import (
    RING_BLOCK,
    DiskField,
    PolarGrid,
    boundary_mass,
    dirichlet_energy,
    frequency_profile,
    sample_field,
    values_at,
)
from qdisk.forms import (
    Continuation,
    FormClass,
    FourTuple,
    HomogeneousPair,
    classify_form,
    enumerate_entries,
)
from qdisk.minimizer import (
    BoundaryTrace,
    _eval_modes,
    harmonic_extension,
    minimize,
    save_trace,
    spectral_energy,
)
from qdisk.qpoint import pair_distance_arrays

DOUBLED_Z = HomogeneousPair(
    1.0, FourTuple(1, 0, 0, 1), FourTuple(1, 0, 0, 1), Continuation.IDENTITY
)


def test_rescale_normalize_unit_energy(grid64):
    f = sample_field(DOUBLED_Z, grid64)
    g = rescale_normalize(f, 0.5)
    np.testing.assert_allclose(dirichlet_energy(g, 1.0), 1.0, atol=1e-10)


def test_rescale_homogeneous_fixed_point(grid64):
    entry = HomogeneousPair(
        1.5,
        FormClass(6, (0.9, 1.1)).to_tuple(),
        FormClass(6, (0.9, -1.1)).to_tuple(),
        Continuation.SWAP,
    )
    f = sample_field(entry, grid64)
    a = rescale_normalize(f, 0.8)
    b = rescale_normalize(f, 0.4)
    gap = pair_distance_arrays(a.sheet1, a.sheet2, b.sheet1, b.sheet2)
    assert gap[3:].max() <= 0.01


def test_rescale_zero_energy_raises(grid64):
    zero = DiskField(
        grid64,
        np.zeros((grid64.n_r + 1, grid64.n_theta, 2)),
        np.zeros((grid64.n_r + 1, grid64.n_theta, 2)),
        Continuation.IDENTITY,
    )
    with pytest.raises(ZeroEnergy):
        rescale_normalize(zero, 0.5)


def test_blowup_sequence_defects_decrease(grid64):
    """Higher modes decay under rescaling, so consecutive defects shrink."""
    trace = single_mode_trace(1.5)
    n = trace.n
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    pert = 0.2 * np.stack([np.cos(3.5 * cover), np.sin(3.5 * cover)], axis=1)
    trace = BoundaryTrace.from_values(trace.p1 + pert[:n], trace.p2 + pert[n:])
    field = minimize(trace, grid64).field
    seq = blowup_sequence(field, [0.4, 0.2, 0.1])
    assert seq.cauchy_defects[1] < seq.cauchy_defects[0]
    assert seq.cauchy_defects[-1] <= 0.02


def test_blowup_sequence_catalog_fixed_points(grid64):
    for entry in enumerate_entries(4, 5)[::5]:
        f = sample_field(entry, grid64)
        seq = blowup_sequence(f, [0.5, 0.4, 0.3])
        assert max(seq.cauchy_defects) <= 0.02


def test_blowup_sequence_single_radius(grid64):
    f = sample_field(DOUBLED_Z, grid64)
    seq = blowup_sequence(f, [0.5])
    assert seq.cauchy_defects == ()
    assert len(seq.fields) == 1


def test_blowup_sequence_validates_radii(grid64):
    f = sample_field(DOUBLED_Z, grid64)
    with pytest.raises(ValueError):
        blowup_sequence(f, [0.2, 0.4])
    with pytest.raises(GridTooCoarse):
        blowup_sequence(f, [0.5, 0.01])


def test_check_radii_ring_rule():
    """Each radius passes the grid's radius rule, the profile's: its nearest
    ring lies at least CENTER_EXCLUSION_RINGS out (three rings of 30 and
    2.88 of 32 pass, 2.24 of 32 fails); the radii strictly decrease and are
    not snapped."""
    assert check_radii([0.4, 0.1], PolarGrid(30, 8)) == (0.4, 0.1)
    assert check_radii([0.4, 0.09], PolarGrid(32, 8)) == (0.4, 0.09)
    with pytest.raises(GridTooCoarse, match=r"^radius 0\.07 is below 3 grid rings$"):
        check_radii([0.4, 0.07], PolarGrid(32, 8))
    with pytest.raises(ValueError, match=r"^radius 1\.5 outside \(0, 1\]$"):
        check_radii([1.5, 0.4], PolarGrid(32, 8))
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_radii([0.4, 0.4], PolarGrid(64, 8))


def test_boundary_mass_identity_values(grid64):
    for nu, tag in ((0.5, 1), (1.0, 3), (1.5, 5)):
        if nu == 1.0:
            entry = HomogeneousPair(
                nu,
                FormClass(tag, (1.0,)).to_tuple(),
                FormClass(tag, (0.7,)).to_tuple(),
                Continuation.IDENTITY,
            )
        else:
            params = (1.0,) if tag != 5 else (1.3, 0.8)
            entry = HomogeneousPair(
                nu,
                FormClass(tag, params).to_tuple(),
                FormClass(
                    tag, tuple(-p for p in params) if tag != 5 else (1.3, -0.8)
                ).to_tuple(),
                Continuation.SWAP,
            )
        g = rescale_normalize(sample_field(entry, grid64), 1.0)
        np.testing.assert_allclose(boundary_mass(g, 1.0), 1.0 / nu, rtol=0.02)


def test_identify_catalog_branched_minimizer(grid64):
    field = minimize(single_mode_trace(1.5), grid64).field
    limit = blowup_sequence(field, [0.4, 0.2, 0.1]).fields[-1]
    entry, _fitted, residual = identify_catalog(limit)
    assert entry.N == 1.5
    assert entry.continuation is Continuation.SWAP
    assert residual <= 0.01
    tags = {classify_form(entry.t1, 0.05).tag, classify_form(entry.t2, 0.05).tag}
    assert tags == {1}


def test_identify_catalog_doubled_z(grid64):
    g = rescale_normalize(sample_field(DOUBLED_Z, grid64), 1.0)
    entry, _fitted, residual = identify_catalog(g)
    entry.validate(1e-6)  # the exact sample fits far inside the fit tolerance
    assert entry.N == 1.0
    assert entry.continuation is Continuation.IDENTITY
    assert residual <= 1e-9
    assert classify_form(entry.t1, 1e-6).tag == 1


def test_identify_catalog_rejects_offgrid_frequency(grid64):
    """A hand-built field with frequency 0.7 matches no catalog entry.

    Radial power 1.4 with constant angular profile gives N(r) = 0.7
    everywhere (r D/H = 1.4/2), which is farther than 0.1 from any
    half-integer.
    """
    r = grid64.radii[:, None]
    profile = r**1.4 * np.ones((1, grid64.n_theta))
    sheet = np.stack([0.6 * profile, 0.8 * profile], axis=-1)
    f = DiskField(grid64, sheet, -sheet, Continuation.IDENTITY)
    g = rescale_normalize(f, 1.0)
    with pytest.raises(NoCatalogMatch):
        identify_catalog(g)


def test_no_catalog_match_reports_plain_floats(grid64):
    """A non-conformal fit, r (cos theta, 0), is reported with float reprs."""
    r = grid64.radii[:, None]
    th = grid64.thetas[None, :]
    sheet = np.stack([r * np.cos(th), np.zeros_like(r * th)], axis=-1)
    f = DiskField(grid64, sheet, -sheet, Continuation.IDENTITY)
    with pytest.raises(NoCatalogMatch, match="not conformal") as exc:
        identify_catalog(rescale_normalize(f, 1.0))
    assert "FourTuple(a=" in str(exc.value)
    assert "np.float64" not in str(exc.value)


@pytest.mark.parametrize(
    "t2, seam, message",
    [
        # the sheets agree at the slit, but 2N is even
        ((1.0, 0.0, 0.0, 1.0), Continuation.SWAP,
         "fitted degree N=1 does not suit swap continuation, which requires odd 2N"),
        # z and -conj(z)/2 sum to a non-conformal tuple
        ((-0.5, 0.0, 0.0, 0.5), Continuation.IDENTITY,
         "fitted tuples do not close under identity: their sum is not conformal"),
        # {z, conj(z)}: F1 + F2 is inadmissible, though N is an integer
        ((1.0, 0.0, 0.0, -1.0), Continuation.IDENTITY,
         "fitted tuples do not close under identity: their sum is not conformal"),
    ],
    ids=["swap-even-2N", "identity-inadmissible-sum", "identity-z-conj-z"],
)
def test_identify_catalog_seam_messages(grid64, t2, seam, message):
    """Conformal fitted sheets that fail HomogeneousPair.validate under the
    field's seam report validate's reason."""
    entry = HomogeneousPair(1.0, FourTuple(1.0, 0.0, 0.0, 1.0), FourTuple(*t2), seam)
    g = rescale_normalize(sample_field(entry, grid64), 1.0)
    with pytest.raises(NoCatalogMatch) as exc:
        identify_catalog(g)
    assert str(exc.value) == message


def test_identify_catalog_rejects_slit_jump_field(grid64):
    """A degree-0.7 angular profile cannot close across the slit; the
    seam-aware energy blows up and the fitted sheets carry no content at
    the implied degree."""
    r = grid64.radii[:, None]
    th = grid64.thetas[None, :]
    nu = 0.7
    sheet = np.stack(
        [
            r**nu * np.cos(nu * th) * np.ones_like(r * th),
            r**nu * np.sin(nu * th) * np.ones_like(r * th),
        ],
        axis=-1,
    )
    f = DiskField(grid64, sheet, -sheet, Continuation.IDENTITY)
    g = rescale_normalize(f, 1.0)
    with pytest.raises(NoCatalogMatch):
        identify_catalog(g)


def test_blowup_parity(grid64):
    """Branched blow-ups give odd 2N, unbranched give integer N.

    N is fitted from the frequency profile of the final rescaling; the
    lowest spectral mode of the data decides it, odd half-integers in the
    branched class and integers otherwise.
    """
    from qdisk.field import frequency_profile

    rng = np.random.default_rng(41)
    grid = PolarGrid(128, 512)  # keeps the rescaled core resolved
    for kind in (Continuation.IDENTITY, Continuation.SWAP):
        for _ in range(2):
            trace = random_trace(rng, kind, n=512, odd_only=True)
            field = minimize(trace, grid).field
            limit = blowup_sequence(field, [0.4, 0.3, 0.2]).fields[-1]
            fitted = float(np.median(frequency_profile(limit, [0.5, 0.75, 1.0]).N))
            k = 2 * fitted
            assert abs(k - round(k)) <= 0.04
            if kind is Continuation.SWAP:
                assert int(round(k)) % 2 == 1
            else:
                assert int(round(k)) % 2 == 0
            rhs = 1.0 / (round(k) / 2.0)
            assert abs(boundary_mass(limit, 1.0) - rhs) <= 0.02 * rhs


def test_blowup_sequence_unit_energy(grid64):
    """Every normalized rescaling carries unit discrete energy."""
    field = minimize(single_mode_trace(1.5), grid64).field
    seq = blowup_sequence(field, [0.5, 0.3, 0.2])
    for g in seq.fields:
        assert abs(dirichlet_energy(g, 1.0) - 1.0) <= 1e-10


def _bilinear_rescale_normalize(field: DiskField, r: float) -> DiskField:
    """The former rescale: values_at at every node, then unit energy."""
    grid = field.grid
    assert dirichlet_energy(field, r) > 1e-14
    rr = r * grid.radii[:, None] * np.ones(grid.n_theta)[None, :]
    tt = np.broadcast_to(grid.thetas[None, :], rr.shape)
    rescaled = DiskField(grid, *values_at(field, rr, tt), field.seam)
    root = np.sqrt(dirichlet_energy(rescaled, 1.0))
    return DiskField(grid, rescaled.sheet1 / root, rescaled.sheet2 / root, field.seam)


def _full_grid_cauchy_defect(f: DiskField, g: DiskField) -> float:
    """The Cauchy defect before it took rings in blocks."""
    d = pair_distance_arrays(f.sheet1, f.sheet2, g.sheet1, g.sheet2)
    return float(d[CENTER_EXCLUSION_RINGS:].max())


def _bilinear_blowup_sequence(field: DiskField, radii) -> BlowupSequence:
    fields = tuple(_bilinear_rescale_normalize(field, r) for r in radii)
    defects = tuple(_full_grid_cauchy_defect(f, g) for f, g in zip(fields, fields[1:]))
    return BlowupSequence(tuple(radii), fields, defects)


def _fancy_index_rescale_normalize(field: DiskField, r: float) -> DiskField:
    """The rescale before its in-place blocked lerp: fancy-indexed rings and
    a throwaway field for the energy; kept as its bit-exact reference."""
    grid = field.grid
    x = np.clip(r * grid.radii, 0.0, 1.0) * grid.n_r
    i0 = np.minimum(x.astype(int), grid.n_r - 1)
    fr = (x - i0)[:, None, None]
    sheets = []
    for sheet in (field.sheet1, field.sheet2):
        lerp = sheet[i0] * (1 - fr)
        lerp += sheet[i0 + 1] * fr
        sheets.append(lerp)
    root = np.sqrt(dirichlet_energy(DiskField(grid, *sheets, field.seam), 1.0))
    return DiskField(grid, sheets[0] / root, sheets[1] / root, field.seam)


def _assert_fields_close(got: DiskField, want: DiskField, rtol: float) -> None:
    assert got.seam is want.seam and got.grid == want.grid
    scale = max(np.abs(want.sheet1).max(), np.abs(want.sheet2).max())
    assert np.abs(got.sheet1 - want.sheet1).max() <= rtol * scale
    assert np.abs(got.sheet2 - want.sheet2).max() <= rtol * scale


def _minimizer_field(kind: Continuation, grid: PolarGrid) -> DiskField:
    rng = np.random.default_rng(7 if kind is Continuation.SWAP else 8)
    return minimize(random_trace(rng, kind, n=grid.n_theta), grid).field


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_row_rescale_matches_bilinear(grid64, kind):
    """Rescaling by whole rings equals bilinear values_at at every node.

    values_at divides each grid angle by dtheta again, which can land a
    rounding step below the node and mix in the previous angle by that
    step, so the two agree to rounding, not bit for bit.
    """
    field = _minimizer_field(kind, grid64)
    for r in (1.0, 0.5, 0.37, 3 / grid64.n_r):
        got = rescale_normalize(field, r)
        _assert_fields_close(got, _bilinear_rescale_normalize(field, r), 1e-13)
        assert abs(dirichlet_energy(got, 1.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_blowup_sequence_matches_bilinear(grid64, kind):
    field = _minimizer_field(kind, grid64)
    radii = (0.4, 0.2, 0.1)
    got = blowup_sequence(field, radii)
    want = _bilinear_blowup_sequence(field, radii)
    for g, w in zip(got.fields, want.fields):
        _assert_fields_close(g, w, 1e-12)
    np.testing.assert_allclose(got.cauchy_defects, want.cauchy_defects, rtol=1e-12)


def test_blowup_sequence_zero_energy_raises(grid64):
    zero = np.zeros((grid64.n_r + 1, grid64.n_theta, 2))
    field = DiskField(grid64, zero, zero, Continuation.SWAP)
    with pytest.raises(ZeroEnergy):
        blowup_sequence(field, [0.5, 0.25])


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_rescale_exact_is_the_dilated_extension(grid64, kind):
    """The exact rescale at r has unit closed-form energy; its extension is
    the minimizer's at r * rho over the square root of D(r), and its ring is
    that extension's outer ring, bit for bit. A rescale of the rescale at s
    is the rescale at r * s."""
    result = minimize(random_trace(np.random.default_rng(19), kind), grid64)
    spectrum = result.spectrum
    for r in (0.4, 0.1):
        rescaled = rescale_exact(result, r)
        assert rescaled.seam is kind and rescaled.grid == grid64
        assert spectral_energy(rescaled.spectrum) == pytest.approx(1.0, rel=1e-15)
        field = harmonic_extension(rescaled.spectrum, grid64)
        dilated = _eval_modes(spectrum, grid64, r * grid64.radii)
        scale = np.sqrt(spectral_energy(spectrum, r))
        np.testing.assert_allclose(field.sheet1, dilated[0] / scale, rtol=0, atol=1e-14)
        np.testing.assert_allclose(field.sheet2, dilated[1] / scale, rtol=0, atol=1e-14)
        assert rescaled.ring.tobytes() == np.stack(
            [field.sheet1[-1], field.sheet2[-1]]).tobytes()
    twice = rescale_exact(rescale_exact(result, 0.5), 0.2)
    once = harmonic_extension(rescale_exact(result, 0.1).spectrum, grid64)
    np.testing.assert_allclose(harmonic_extension(twice.spectrum, grid64).sheet1,
                               once.sheet1, rtol=0, atol=1e-14)


def test_rescale_exact_zero_energy_raises(grid64):
    """Mode 150 alone at r = 0.05 underflows: nothing to normalize."""
    result = minimize(single_mode_trace(150.0, n=2048), grid64)
    rescale_exact(result, 0.5)
    with pytest.raises(ZeroEnergy):
        blowup_sequence(result, [0.5, 0.05])


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 256), (40, 64)])
def test_blowup_sequence_matches_fancy_index_reference_bitwise(seam, n_r, n_theta):
    """Blocked in-place rescale and blocked Cauchy defects give the same
    bits as the whole-grid formulas, also when the last block is partial."""
    grid = PolarGrid(n_r, n_theta)
    field = random_field(grid, seam, np.random.default_rng(n_theta))
    radii = (1.0, 0.5, 0.37, 0.2)
    seq = blowup_sequence(field, radii)
    want = [_fancy_index_rescale_normalize(field, r) for r in radii]
    for got, ref in zip(seq.fields, want):
        assert got.sheet1.tobytes() == ref.sheet1.tobytes()
        assert got.sheet2.tobytes() == ref.sheet2.tobytes()
    assert seq.cauchy_defects == tuple(
        _full_grid_cauchy_defect(f, g) for f, g in zip(want, want[1:])
    )


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
def test_cauchy_defect_blocks_match_full_grid(seam):
    """A node moved far off on one ring sets the sup exactly when the ring
    lies outside the center exclusion zone, in any block."""
    grid = PolarGrid(64, 32)
    rng = np.random.default_rng(3)
    f = random_field(grid, seam, rng)
    for ring in (0, 2, 3, 31, 32, 33, 34, 63, 64):
        moved = [f.sheet1.copy(), f.sheet2.copy()]
        nodes = slice(5, 6) if ring else slice(None)  # the center is one node
        moved[ring % 2][ring, nodes] += 100.0
        g = DiskField(grid, *moved, seam)
        got = _cauchy_defect(f, g)
        assert got == _full_grid_cauchy_defect(f, g)
        assert (got > 50.0) == (ring >= CENTER_EXCLUSION_RINGS)


@pytest.mark.parametrize("n_r", [4, 20, 34])
def test_cauchy_defect_of_fewer_rings_than_a_block(n_r):
    """Grids with at most RING_BLOCK rings outside the center exclusion
    zone take one block, in work arrays of those rings only."""
    grid = PolarGrid(n_r, 16)
    rng = np.random.default_rng(n_r)
    f, g = (random_field(grid, Continuation.SWAP, rng) for _ in range(2))
    assert _cauchy_defect(f, g) == _full_grid_cauchy_defect(f, g)


def test_cauchy_defect_work_is_two_and_a_half_blocks():
    """tracemalloc over one Cauchy defect at 64x256: its work arrays are one
    block of squared differences and three half-block sums (a block being
    RING_BLOCK rings of one sheet), allocated once for all blocks; the
    measured peak is 2.51 blocks. Square roots and sums as temporaries per
    block peaked at 3.28."""
    grid = PolarGrid(64, 256)
    rng = np.random.default_rng(11)
    f, g = (random_field(grid, Continuation.SWAP, rng) for _ in range(2))
    block_bytes = RING_BLOCK * grid.n_theta * 2 * 8
    tracemalloc.start()
    try:
        _cauchy_defect(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * block_bytes


def test_energy_ladder_computed_once_per_field(grid64, monkeypatch):
    """minimize, the profile, the blow-up and further energies of one field
    share one ring quadrature; each rescaled field adds one of its own."""
    calls = []
    ring_energy = field_module._ring_energy

    def counting(grid, s1, s2, seam):
        calls.append(s1)
        return ring_energy(grid, s1, s2, seam)

    monkeypatch.setattr(field_module, "_ring_energy", counting)
    field = minimize(single_mode_trace(1.5), grid64).field
    frequency_profile(field, np.linspace(0.25, 1.0, 8))
    blowup_sequence(field, (0.4, 0.2, 0.1))
    dirichlet_energy(field, 0.5)
    assert sum(s1 is field.sheet1 for s1 in calls) == 1
    assert len(calls) == 1 + 3


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
def test_blowup_sequence_is_rescales_and_their_defects_bitwise(seam):
    """blowup_sequence holds rescale_normalize at each radius and the
    _cauchy_defect of each consecutive two, bit for bit; with
    keep_fields=False the last field alone."""
    grid = PolarGrid(40, 64)
    field = random_field(grid, seam, np.random.default_rng(5))
    radii = (1.0, 0.5, 0.37, 0.2)
    rescaled = [rescale_normalize(field, r) for r in radii]
    defects = tuple(_cauchy_defect(f, g) for f, g in zip(rescaled, rescaled[1:]))
    for seq, kept in ((blowup_sequence(field, radii), rescaled),
                      (blowup_sequence(field, radii, keep_fields=False), rescaled[-1:])):
        assert seq.radii == radii
        assert seq.cauchy_defects == defects
        assert len(seq.fields) == len(kept)
        for got, want in zip(seq.fields, kept):
            assert got.sheet1.tobytes() == want.sheet1.tobytes()
            assert got.sheet2.tobytes() == want.sheet2.tobytes()


@pytest.mark.parametrize("kind", [Continuation.IDENTITY, Continuation.SWAP])
def test_circle_defect_bounds_the_pair_distance_of_the_fields(grid64, kind):
    """The Cauchy defect of two exact rescales, read on the unit circle, is
    at least the pair distance of their grid fields at every node outside
    the center exclusion zone, on 4 draws per class at 4 radii. Tolerance 0,
    as measured: the largest distance lies on the outer ring, where it equals
    the defect bit for bit, and inside it reaches 0.985 of the defect."""
    rng = np.random.default_rng(13)
    for _ in range(4):
        result = minimize(random_trace(rng, kind, kmax=6), grid64)
        seq = blowup_sequence(result, (0.8, 0.4, 0.2, 0.1))
        for f, g, defect in zip(seq.fields, seq.fields[1:], seq.cauchy_defects):
            F, G = (harmonic_extension(h.spectrum, grid64) for h in (f, g))
            annulus = slice(CENTER_EXCLUSION_RINGS, None)
            dist = pair_distance_arrays(F.sheet1[annulus], F.sheet2[annulus],
                                        G.sheet1[annulus], G.sheet2[annulus])
            assert dist.max() <= defect


def test_circle_defect_adds_as_the_axis_reduction():
    """The defect's squared distance adds its four terms in the order of
    np.sum over axes (0, 2) at the shape of a 256-angle ring: the defect
    keeps its bits, on terms of comparable size and on terms spanning 32
    decades."""
    rng = np.random.default_rng(29)
    for decades in (1, 16):
        for _ in range(100):
            f, g = (SimpleNamespace(ring=rng.normal(size=(2, 256, 2))
                                    * 10.0 ** rng.uniform(-decades, decades, size=(2, 256, 2)))
                    for _ in range(2))
            want = np.sqrt(np.max(np.sum(np.square(f.ring - g.ring), axis=(0, 2))))
            assert _circle_defect(f, g) == want


@pytest.mark.parametrize("dump", [False, True], ids=["streamed", "dump-fields"])
def test_cmd_blowup_holds_two_rescaled_fields(tmp_path, monkeypatch, dump):
    """tracemalloc from the return of minimize, which builds no field, to
    the end of the blow-up at 4 radii on a 192x256 grid (a ring being both
    sheets' values on one circle, a field 193 rings). Without --dump-fields
    no grid field is built: the peak is a few rings, the rescaled spectra
    and their rings' evaluation (6.5 measured). With it, each dump is the
    extension of one rescale, freed once written, so one field is alive
    when each dump starts: the field and the 4 rescales (7.7 rings more
    measured), where two fields would be 193 rings more."""
    grid = PolarGrid(192, 256)
    ring_bytes = 2 * grid.n_theta * 2 * 8  # both sheets
    field_bytes = (grid.n_r + 1) * ring_bytes
    marks = {"dumps": []}
    minimize_, save = cli.minimize, cli.save_field

    def measured_minimize(*args, **kwargs):
        result = minimize_(*args, **kwargs)
        marks["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return result

    def measured_save(*args, **kwargs):
        marks["dumps"].append(tracemalloc.get_traced_memory()[0] - marks["base"])
        return save(*args, **kwargs)

    monkeypatch.setattr(cli, "minimize", measured_minimize)
    monkeypatch.setattr(cli, "save_field", measured_save)
    path = tmp_path / "t.json"
    save_trace(single_mode_trace(1.5), path)
    argv = ["blowup", str(path), "--nr", str(grid.n_r), "--ntheta", str(grid.n_theta),
            "--radii", "0.8,0.4,0.2,0.1", "--out", str(tmp_path / "report.json")]
    if dump:
        argv += ["--dump-fields", str(tmp_path / "P")]
    field_module._text_tables()  # the dump's lookup tables, kept once built
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - marks["base"]
    finally:
        tracemalloc.stop()
    if dump:
        assert len(marks["dumps"]) == 4
        assert all(field_bytes <= held <= field_bytes + 10 * ring_bytes
                   for held in marks["dumps"])
    else:
        assert marks["dumps"] == []
        assert peak <= 10 * ring_bytes


def test_identify_catalog_names_the_fit_radii_on_a_coarse_grid():
    """At 10 rings the fit radius 0.25 lies in the center exclusion zone."""
    g = sample_field(DOUBLED_Z, PolarGrid(10, 64))
    with pytest.raises(GridTooCoarse, match=r"^the catalog fit reads radii 0\.25, 0\.5, "
                       r"0\.75, 1: radius 0\.25 is below 3 grid rings$"):
        identify_catalog(g)
    identify_catalog(sample_field(DOUBLED_Z, PolarGrid(11, 64)))
