import numpy as np
import pytest

from conftest import random_field, random_trace, single_mode_trace

from qdisk import field as field_module
from qdisk.blowup import (
    CENTER_EXCLUSION_RINGS,
    BlowupSequence,
    _cauchy_defect,
    blowup_sequence,
    boundary_mass_identity,
    check_radii,
    identify_catalog,
    rescale_normalize,
)
from qdisk.errors import NoCatalogMatch, ZeroEnergy
from qdisk.field import (
    DiskField,
    PolarGrid,
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
from qdisk.minimizer import BoundaryTrace, minimize
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
    with pytest.raises(ValueError):
        blowup_sequence(f, [0.5, 0.01])


def test_check_radii_ring_rule():
    """Each radius lies at least CENTER_EXCLUSION_RINGS rings out (three rings
    of 30 pass, 2.88 of 32 fail); the radii strictly decrease."""
    assert check_radii([0.4, 0.1], 30) == (0.4, 0.1)
    with pytest.raises(ValueError, match=r"grid resolution \(3 rings\)"):
        check_radii([0.4, 0.09], 32)
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_radii([0.4, 0.4], 64)


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
        lhs, rhs = boundary_mass_identity(g, nu)
        np.testing.assert_allclose(lhs, rhs, rtol=0.02)
        np.testing.assert_allclose(rhs, 1.0 / nu)


def test_identify_catalog_branched_minimizer(grid64):
    field = minimize(single_mode_trace(1.5), grid64).field
    limit = blowup_sequence(field, [0.4, 0.2, 0.1]).fields[-1]
    entry, _fitted, residual = identify_catalog(limit, 0.05)
    assert entry.N == 1.5
    assert entry.continuation is Continuation.SWAP
    assert residual <= 0.01
    tags = {classify_form(entry.t1, 0.05).tag, classify_form(entry.t2, 0.05).tag}
    assert tags == {1}


def test_identify_catalog_doubled_z(grid64):
    g = rescale_normalize(sample_field(DOUBLED_Z, grid64), 1.0)
    entry, _fitted, residual = identify_catalog(g, 1e-6)
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
        identify_catalog(g, 0.05)


def test_no_catalog_match_reports_plain_floats(grid64):
    """A non-conformal fit, r (cos theta, 0), is reported with float reprs."""
    r = grid64.radii[:, None]
    th = grid64.thetas[None, :]
    sheet = np.stack([r * np.cos(th), np.zeros_like(r * th)], axis=-1)
    f = DiskField(grid64, sheet, -sheet, Continuation.IDENTITY)
    with pytest.raises(NoCatalogMatch, match="not conformal") as exc:
        identify_catalog(rescale_normalize(f, 1.0), 0.05)
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
        identify_catalog(g, 0.05)
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
        identify_catalog(g, 0.05)


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
            lhs, rhs = boundary_mass_identity(limit, round(k) / 2.0)
            assert abs(lhs - rhs) <= 0.02 * rhs


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
