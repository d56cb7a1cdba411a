import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import exact_entry, random_trace, single_mode_trace

from qdisk import cli
from qdisk import field as field_module
from qdisk.blowup import (
    ExactRescale,
    _circle_defect,
    blowup_sequence,
    check_radii,
    identify_catalog,
    rescale_exact,
)
from qdisk.errors import GridTooCoarse, NoCatalogMatch, ZeroEnergy
from qdisk.field import (
    CENTER_EXCLUSION_RINGS,
    PolarGrid,
    dirichlet_energy,
    frequency_profile,
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
    Spectrum,
    _eval_modes,
    harmonic_extension,
    minimize,
    save_trace,
    spectral_energy,
    spectral_profile,
)
from qdisk.qpoint import pair_distance_arrays

DOUBLED_Z = HomogeneousPair(
    1.0, FourTuple(1, 0, 0, 1), FourTuple(1, 0, 0, 1), Continuation.IDENTITY
)


def test_rescale_homogeneous_fixed_point(grid64):
    """A homogeneous entry rescales onto itself: at 0.8 and 0.4 the rings
    agree to rounding."""
    entry = HomogeneousPair(
        1.5,
        FormClass(6, (0.9, 1.1)).to_tuple(),
        FormClass(6, (0.9, -1.1)).to_tuple(),
        Continuation.SWAP,
    )
    g = exact_entry(entry, grid64)
    rings = rescale_exact(g, 0.8).ring, rescale_exact(g, 0.4).ring
    assert pair_distance_arrays(*rings[0], *rings[1]).max() <= 1e-14


def test_rescale_zero_energy_raises(grid64):
    zero = tuple(np.zeros((2, 3, 2)))  # two loops of three modes
    g = ExactRescale(grid64, Spectrum(Continuation.IDENTITY, zero, zero))
    with pytest.raises(ZeroEnergy, match="^rescaled spectrum has numerically zero energy$"):
        rescale_exact(g, 0.5)


def test_blowup_sequence_defects_decrease(grid64):
    """Higher modes decay under rescaling, so consecutive defects shrink."""
    trace = single_mode_trace(1.5)
    n = trace.n
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    pert = 0.2 * np.stack([np.cos(3.5 * cover), np.sin(3.5 * cover)], axis=1)
    trace = BoundaryTrace.from_values(trace.p1 + pert[:n], trace.p2 + pert[n:])
    seq = blowup_sequence(minimize(trace, grid64), [0.4, 0.2, 0.1])
    assert seq.cauchy_defects[1] < seq.cauchy_defects[0]
    assert seq.cauchy_defects[-1] <= 0.02


def test_blowup_sequence_catalog_fixed_points(grid64):
    """Every entry of enumerate_entries(8, 0), its exact spectrum blown up
    at 0.4, 0.2 and 0.1, reads back its own N and continuation, with the
    fitted N within 1e-12 (8.9e-16 measured) and Cauchy defects at rounding
    (1.8e-16 measured)."""
    entries = enumerate_entries(8, 0)
    assert len(entries) == 80
    for entry in entries:
        seq = blowup_sequence(exact_entry(entry, grid64), (0.4, 0.2, 0.1))
        assert max(seq.cauchy_defects) <= 1e-12
        got, fitted, _residual = identify_catalog(seq.fields[-1])
        assert (got.N, got.continuation) == (entry.N, entry.continuation)
        assert abs(fitted - entry.N) <= 1e-12


def test_blowup_sequence_single_radius(grid64):
    seq = blowup_sequence(exact_entry(DOUBLED_Z, grid64), [0.5])
    assert seq.cauchy_defects == ()
    assert len(seq.fields) == 1


def test_blowup_sequence_validates_radii(grid64):
    g = exact_entry(DOUBLED_Z, grid64)
    with pytest.raises(ValueError):
        blowup_sequence(g, [0.2, 0.4])
    with pytest.raises(GridTooCoarse):
        blowup_sequence(g, [0.5, 0.01])


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
        profile = spectral_profile(exact_entry(entry, grid64).spectrum, (1.0,))
        np.testing.assert_allclose(profile.H / profile.D, 1.0 / nu, rtol=1e-14)


def test_identify_catalog_branched_minimizer(grid64):
    result = minimize(single_mode_trace(1.5), grid64)
    limit = blowup_sequence(result, [0.4, 0.2, 0.1]).fields[-1]
    entry, _fitted, residual = identify_catalog(limit)
    assert entry.N == 1.5
    assert entry.continuation is Continuation.SWAP
    assert residual <= 0.01
    tags = {classify_form(entry.t1, 0.05).tag, classify_form(entry.t2, 0.05).tag}
    assert tags == {1}


def test_identify_catalog_doubled_z(grid64):
    entry, _fitted, residual = identify_catalog(exact_entry(DOUBLED_Z, grid64))
    entry.validate(1e-6)  # the exact sample fits far inside the fit tolerance
    assert entry.N == 1.0
    assert entry.continuation is Continuation.IDENTITY
    assert residual <= 1e-9
    assert classify_form(entry.t1, 1e-6).tag == 1


def _identity_spectrum(grid, cos, sin) -> ExactRescale:
    """The unit-energy rescale of an identity spectrum given by its
    coefficient tables, (loop, mode, coordinate) each."""
    spectrum = Spectrum(Continuation.IDENTITY, tuple(np.asarray(cos, float)),
                        tuple(np.asarray(sin, float)))
    return rescale_exact(ExactRescale(grid, spectrum), 1.0)


def test_identify_catalog_rejects_offgrid_frequency(grid64):
    """Modes 1 and 2 of equal weight on both loops, z + z^2 and its
    negative: N(r) runs between 1 and 2, and its median at the fit radii,
    1.28, is farther than 0.1 from any half-integer."""
    cos = np.array([[0, 0], [1, 0], [1, 0]])  # modes 0, 1 and 2
    sin = np.array([[0, 0], [0, 1], [0, 1]])
    g = _identity_spectrum(grid64, [cos, -cos], [sin, -sin])
    with pytest.raises(NoCatalogMatch,
                       match=r"^fitted degree 1\.2800 is not within 0\.1 of a half-integer$"):
        identify_catalog(g)


def test_no_catalog_match_reports_plain_floats(grid64):
    """A non-conformal fit, (cos theta, 0) and its negative, is reported
    with float reprs."""
    cos = [[0, 0], [1, 0]]
    g = _identity_spectrum(grid64, [cos, np.negative(cos)], np.zeros((2, 2, 2)))
    with pytest.raises(NoCatalogMatch, match="^fitted tuples not conformal") as exc:
        identify_catalog(g)
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
    limit's seam report validate's reason."""
    entry = HomogeneousPair(1.0, FourTuple(1.0, 0.0, 0.0, 1.0), FourTuple(*t2), seam)
    with pytest.raises(NoCatalogMatch) as exc:
        identify_catalog(exact_entry(entry, grid64))
    assert str(exc.value) == message


def test_identify_catalog_rejects_a_limit_without_content_at_its_degree(grid64):
    """A seeded two-mode identity spectrum, modes 3 and 5: its fitted degree
    4.09 rounds to 4, which neither mode carries. On the whole circle mode 4
    is orthogonal to both, so the fitted tuples are zero to rounding."""
    rng = np.random.default_rng(234)
    modes = rng.choice(np.arange(1, 7), size=2, replace=False)
    tables = np.zeros((2, 2, 7, 2))  # cos and sin, loop, mode, coordinate
    tables[:, :, modes] = rng.normal(size=(2, 2, 2, 2))
    with pytest.raises(NoCatalogMatch,
                       match="^boundary trace has almost no content at the fitted degree$"):
        identify_catalog(_identity_spectrum(grid64, *tables))


def test_blowup_parity(grid64):
    """Branched blow-ups give odd 2N, unbranched give integer N.

    N is fitted from the closed-form frequency profile of the final
    rescaling; the lowest spectral mode of the data decides it, odd
    half-integers in the branched class and integers otherwise.
    """
    rng = np.random.default_rng(41)
    grid = PolarGrid(128, 512)
    for kind in (Continuation.IDENTITY, Continuation.SWAP):
        for _ in range(2):
            trace = random_trace(rng, kind, n=512, odd_only=True)
            limit = blowup_sequence(minimize(trace, grid), [0.4, 0.3, 0.2]).fields[-1]
            profile = spectral_profile(limit.spectrum, [0.5, 0.75, 1.0])
            fitted = float(np.median(profile.N))
            k = 2 * fitted
            assert abs(k - round(k)) <= 0.04
            if kind is Continuation.SWAP:
                assert int(round(k)) % 2 == 1
            else:
                assert int(round(k)) % 2 == 0
            rhs = 1.0 / (round(k) / 2.0)
            assert abs(profile.H[-1] / profile.D[-1] - rhs) <= 0.02 * rhs


def test_blowup_sequence_unit_energy(grid64):
    """Every normalized rescaling carries unit closed-form energy."""
    result = minimize(single_mode_trace(1.5), grid64)
    seq = blowup_sequence(result, [0.5, 0.3, 0.2])
    for g in seq.fields:
        assert spectral_energy(g.spectrum) == pytest.approx(1.0, rel=1e-15)


def test_blowup_sequence_zero_energy_raises(grid64):
    zero = tuple(np.zeros((1, 3, 2)))  # the double loop, three modes
    g = ExactRescale(grid64, Spectrum(Continuation.SWAP, zero, zero))
    with pytest.raises(ZeroEnergy):
        blowup_sequence(g, [0.5, 0.25])


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


def test_energy_ladder_computed_once_per_field(grid64, monkeypatch):
    """minimize, the profile and further energies of one field share one
    ring quadrature; the blow-up, which reads spectra, adds none."""
    calls = []
    ring_energy = field_module._ring_energy

    def counting(grid, s1, s2, seam):
        calls.append(s1)
        return ring_energy(grid, s1, s2, seam)

    monkeypatch.setattr(field_module, "_ring_energy", counting)
    result = minimize(single_mode_trace(1.5), grid64)
    field = result.field
    frequency_profile(field, np.linspace(0.25, 1.0, 8))
    blowup_sequence(result, (0.4, 0.2, 0.1))
    dirichlet_energy(field, 0.5)
    assert len(calls) == 1 and calls[0] is field.sheet1


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
def test_blowup_sequence_is_rescales_and_their_defects_bitwise(seam):
    """blowup_sequence holds rescale_exact at each radius and the
    _circle_defect of each consecutive two, bit for bit; with
    keep_fields=False the last rescale alone."""
    result = minimize(random_trace(np.random.default_rng(5), seam), PolarGrid(40, 64))
    radii = (1.0, 0.5, 0.37, 0.2)
    rescaled = [rescale_exact(result, r) for r in radii]
    defects = tuple(_circle_defect(f, g) for f, g in zip(rescaled, rescaled[1:]))
    for seq, kept in ((blowup_sequence(result, radii), rescaled),
                      (blowup_sequence(result, radii, keep_fields=False), rescaled[-1:])):
        assert seq.radii == radii
        assert seq.cauchy_defects == defects
        assert len(seq.fields) == len(kept)
        for got, want in zip(seq.fields, kept):
            assert got.seam is want.seam and got.ring.tobytes() == want.ring.tobytes()


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
    g = exact_entry(DOUBLED_Z, PolarGrid(10, 64))
    with pytest.raises(GridTooCoarse, match=r"^the catalog fit reads radii 0\.25, 0\.5, "
                       r"0\.75, 1: radius 0\.25 is below 3 grid rings$"):
        identify_catalog(g)
    identify_catalog(exact_entry(DOUBLED_Z, PolarGrid(11, 64)))
