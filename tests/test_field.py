import csv
import dataclasses
import hashlib
import io

import numpy as np
import pytest

from conftest import random_field

from qdisk import field as field_module
from qdisk.cli import DEFAULT_PROFILE_RADII
from qdisk.errors import DegenerateField, GridTooCoarse, ZeroBoundaryMass
from qdisk.field import (
    DUMP_ROWS,
    VALUE_WORDS,
    DiskField,
    FrequencyProfile,
    PolarGrid,
    _csv_rows,
    _text_words,
    _ring_energy,
    _ring_sums,
    boundary_mass,
    dirichlet_energy,
    energy_decay_check,
    frequency_profile,
    holder_fit,
    load_field,
    sample_field,
    save_field,
    values_at,
)
from qdisk.forms import Continuation, FormClass, FourTuple, HomogeneousPair

DOUBLED_Z = HomogeneousPair(
    1.0, FourTuple(1, 0, 0, 1), FourTuple(1, 0, 0, 1), Continuation.IDENTITY
)
BRANCHED_HALF = HomogeneousPair(
    0.5, FourTuple(1, 0, 0, 1), FourTuple(-1, 0, 0, -1), Continuation.SWAP
)


def make_field(entry, n_r=64, n_theta=256):
    return sample_field(entry, PolarGrid(n_r, n_theta))


def constant_field(grid, value=(1.0, 0.0)):
    arr = np.tile(np.asarray(value, dtype=float), (grid.n_r + 1, grid.n_theta, 1))
    return DiskField(grid, arr, arr.copy(), Continuation.IDENTITY)


def test_grid_validation():
    with pytest.raises(GridTooCoarse):
        PolarGrid(3, 256)
    with pytest.raises(GridTooCoarse):
        PolarGrid(8, 9)
    with pytest.raises(GridTooCoarse):
        PolarGrid(8, 6)


def test_sample_field_examples(grid64):
    entry = HomogeneousPair(
        1.0, FourTuple(1, 0, 0, 1), FourTuple(0, 0, 0, 0), Continuation.IDENTITY
    )
    f = sample_field(entry, grid64)
    r, th = 0.5, grid64.thetas[7]
    np.testing.assert_allclose(
        f.sheet1[32, 7], [r * np.cos(th), r * np.sin(th)], atol=1e-14
    )
    np.testing.assert_allclose(f.sheet2, 0.0)
    np.testing.assert_allclose(f.sheet1[0], 0.0)


def test_dirichlet_energy_doubled_z(grid64):
    f = make_field(DOUBLED_Z)
    for r in (0.5, 1.0):
        np.testing.assert_allclose(
            dirichlet_energy(f, r), 4 * np.pi * r**2, rtol=0.02
        )


def test_dirichlet_energy_constant_zero(grid64):
    f = constant_field(grid64)
    assert dirichlet_energy(f, 1.0) == 0.0


def test_dirichlet_energy_single_mode(grid64):
    # one nonzero sheet of degree k with coefficient d
    d, k = 0.7, 2
    entry = HomogeneousPair(
        float(k),
        FormClass(1, (d,)).to_tuple(),
        FourTuple(0, 0, 0, 0),
        Continuation.IDENTITY,
    )
    f = sample_field(entry, grid64)
    for r in (0.5, 1.0):
        np.testing.assert_allclose(
            dirichlet_energy(f, r), 2 * np.pi * d**2 * k * r ** (2 * k), rtol=0.02
        )
        np.testing.assert_allclose(
            boundary_mass(f, r), 2 * np.pi * d**2 * r ** (2 * k + 1), rtol=0.01
        )


def test_boundary_mass_examples(grid64):
    f = make_field(DOUBLED_Z)
    np.testing.assert_allclose(boundary_mass(f, 1.0), 4 * np.pi, rtol=0.01)
    zero = constant_field(grid64, (0.0, 0.0))
    assert boundary_mass(zero, 1.0) == 0.0


def test_frequency_examples(grid64):
    f = make_field(DOUBLED_Z)
    prof = frequency_profile(f, [1.0])
    assert prof.radii.tolist() == [1.0]
    assert prof.monotonicity_defect == 0.0
    np.testing.assert_allclose(prof.N, [1.0], atol=0.02)
    branched = make_field(
        HomogeneousPair(
            1.5,
            FormClass(5, (1.2, 0.8)).to_tuple(),
            FormClass(5, (1.2, -0.8)).to_tuple(),
            Continuation.SWAP,
        )
    )
    np.testing.assert_allclose(frequency_profile(branched, [0.5]).N, [1.5], atol=0.02)
    zero = constant_field(grid64, (0.0, 0.0))
    with pytest.raises(ZeroBoundaryMass):
        frequency_profile(zero, [0.5])


def test_frequency_refuses_inner_rings(grid64):
    f = make_field(DOUBLED_Z)
    with pytest.raises(GridTooCoarse):
        frequency_profile(f, [0.02])
    with pytest.raises(GridTooCoarse):
        frequency_profile(f, [0.5, 0.02])


def test_frequency_profile_reads_each_ring_once():
    """The default profile radii on 16 rings snap to 13 distinct rings
    (r = 0.35 and 0.40 both to ring 6). The profile reads each once,
    ascending whatever the order asked, and reports the rings' radii."""
    grid = PolarGrid(16, 64)
    f = sample_field(BRANCHED_HALF, grid)
    radii = DEFAULT_PROFILE_RADII[::-1]
    rings = sorted({round(r * grid.n_r) for r in radii})
    assert len(radii) == 16 and rings == list(range(4, 17))
    prof = frequency_profile(f, radii)
    np.testing.assert_array_equal(prof.radii, grid.radii[rings])
    assert len(set(prof.radii.tolist())) == len(prof.radii) == 13
    assert prof.D.tolist() == [dirichlet_energy(f, r) for r in prof.radii]
    assert prof.H.tolist() == [boundary_mass(f, r) for r in prof.radii]


def test_frequency_profile_needs_a_radius(grid64):
    with pytest.raises(ValueError, match="at least one radius"):
        frequency_profile(make_field(DOUBLED_Z), [])


def test_frequency_profile_homogeneous(grid64):
    f = make_field(BRANCHED_HALF)
    prof = frequency_profile(f, np.linspace(0.25, 1.0, 8))
    np.testing.assert_allclose(prof.N, 0.5, atol=0.02)
    assert abs(prof.N[0] - 0.5) <= 0.02
    assert prof.monotonicity_defect <= 0.02
    assert np.all(prof.H > 0)


def test_quadrature_convergence():
    """Doubling the grid cuts the frequency error at least in half."""
    for entry in (
        BRANCHED_HALF,
        DOUBLED_Z,
        HomogeneousPair(
            2.5,
            FormClass(3, (0.9,)).to_tuple(),
            FormClass(3, (-0.9,)).to_tuple(),
            Continuation.SWAP,
        ),
    ):
        errs = []
        for n_r, n_t in ((64, 256), (128, 512)):
            f = sample_field(entry, PolarGrid(n_r, n_t))
            errs.append(abs(frequency_profile(f, [0.5]).N[0] - entry.N))
        assert errs[1] <= errs[0] / 1.9


def _stacks(field: DiskField) -> list[np.ndarray]:
    """The field's angularly periodic stacks, as DiskField.from_stacks takes
    them: one per sheet, or the double cover of a swap seam."""
    if field.seam is Continuation.IDENTITY:
        return [field.sheet1.copy(), field.sheet2.copy()]
    return [np.concatenate([field.sheet1, field.sheet2], axis=1)]


def _stack_density_reference(stack: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """Pointwise |grad|^2 of one periodic stack: the per-node quadrature
    that _ring_energy replaced, kept as its reference."""
    h = grid.dr
    d_r = np.empty_like(stack)
    d_r[1:-1] = (stack[2:] - stack[:-2]) / (2 * h)
    d_r[0] = (stack[1] - stack[0]) / h
    d_r[-1] = (stack[-1] - stack[-2]) / h
    d_t = (np.roll(stack, -1, axis=1) - np.roll(stack, 1, axis=1)) / (2 * grid.dtheta)
    density = np.sum(d_r**2, axis=-1)
    radii = grid.radii.copy()
    radii[0] = 1.0
    density[1:] += np.sum(d_t[1:] ** 2, axis=-1) / radii[1:, None] ** 2
    return density


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 256)])
def test_ring_energy_matches_node_density(seam, n_r, n_theta):
    """The slice sums equal the per-node density summed over each ring.

    Random nodes make every difference, the seam wrap included, count."""
    grid = PolarGrid(n_r, n_theta)
    field = random_field(grid, seam, np.random.default_rng(n_theta))
    want = sum(_stack_density_reference(s, grid).sum(axis=1) for s in _stacks(field))
    want = want * grid.dtheta * grid.radii
    got = _ring_energy(grid, field.sheet1, field.sheet2, seam)
    assert got[0] == want[0] == 0.0
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-13, atol=0)


def _unblocked_ring_energy(field: DiskField) -> np.ndarray:
    """_ring_energy before it took rings in blocks (whole-grid difference
    arrays), kept as its bit-exact reference."""
    grid = field.grid
    radial = np.zeros(grid.n_r + 1)
    angular = np.zeros(grid.n_r + 1)
    s1, s2 = field.sheet1, field.sheet2
    swap = field.seam is Continuation.SWAP
    for sheet, across in ((s1, s2 if swap else s1), (s2, s1 if swap else s2)):
        radial[1:-1] += _ring_sums(sheet[2:] - sheet[:-2]) / (2 * grid.dr) ** 2
        radial[-1:] += _ring_sums(sheet[-1:] - sheet[-2:-1]) / grid.dr**2
        rings = sheet[1:]
        angular[1:] += _ring_sums(rings[:, 2:] - rings[:, :-2])
        first = rings[:, 1] - across[1:, -1]
        last = across[1:, 0] - rings[:, -2]
        angular[1:] += _ring_sums(np.stack([first, last], axis=1))
    angular[1:] /= (2 * grid.dtheta * grid.radii[1:]) ** 2
    return (radial + angular) * grid.dtheta * grid.radii


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 256), (33, 64), (40, 64)])
def test_ring_energy_blocks_match_unblocked(seam, n_r, n_theta):
    """Blocks of RING_BLOCK rings give every ring the same bits as whole-grid
    differences; 33 rings leave the boundary ring alone in its block."""
    grid = PolarGrid(n_r, n_theta)
    field = random_field(grid, seam, np.random.default_rng(n_r))
    got = _ring_energy(grid, field.sheet1, field.sheet2, seam)
    assert got.tobytes() == _unblocked_ring_energy(field).tobytes()


def test_sheets_and_energy_ladder_are_read_only(grid32):
    field = random_field(grid32, Continuation.SWAP, np.random.default_rng(1))
    with pytest.raises(ValueError):
        field.sheet1[1, 0, 0] = 0.0
    with pytest.raises(ValueError):
        field.sheet2 *= 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.sheet1 = field.sheet2
    ladder = field._cumulative_energy
    assert field._cumulative_energy is ladder
    with pytest.raises(ValueError):
        ladder[-1] = 1.0
    assert dirichlet_energy(field, 1.0) == ladder[-1]


def test_disk_field_refuses_a_wrong_shape(grid32):
    good = np.zeros((grid32.n_r + 1, grid32.n_theta, 2))
    with pytest.raises(ValueError, match=r"sheet2 has shape \(33, 127, 2\), expected \(33, 128, 2\)"):
        DiskField(grid32, good, good[:, 1:], Continuation.IDENTITY)


@pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["scale-1", "scale-2^-40"])
def test_disk_field_center_ring_check_scales_with_the_data(scale):
    """A center ring holding one 0.5 among zeros is refused and one holding
    1e-12 among zeros accepted, whatever the scale of the sheet: the check's
    absolute term scales with the outer ring. (It was an absolute 1e-9,
    which accepted the 0.5 at scale 2^-40.)"""
    grid = PolarGrid(8, 16)
    sheet = np.random.default_rng(7).normal(size=(grid.n_r + 1, grid.n_theta, 2))
    sheet[0] = 0.0
    good = sheet * scale
    sheet[0, 3, 0] = 1e-12
    DiskField(grid, sheet * scale, good, Continuation.IDENTITY)
    sheet[0, 3, 0] = 0.5
    with pytest.raises(ValueError, match="sheet1 center ring is not angle independent"):
        DiskField(grid, sheet * scale, good, Continuation.IDENTITY)


@pytest.mark.parametrize("seam", list(Continuation))
def test_from_stacks_takes_the_arrays(grid32, seam):
    """Identity stacks become the sheets without a copy; the halves of the
    swap cover are copied into contiguous sheets. Both round-trip."""
    field = random_field(grid32, seam, np.random.default_rng(3))
    stacks = _stacks(field)
    rebuilt = DiskField.from_stacks(grid32, stacks, seam)
    assert np.array_equal(rebuilt.sheet1, field.sheet1)
    assert np.array_equal(rebuilt.sheet2, field.sheet2)
    shared = [np.shares_memory(s, stack) for s in (rebuilt.sheet1, rebuilt.sheet2)
              for stack in stacks]
    assert any(shared) == (seam is Continuation.IDENTITY)
    assert rebuilt.sheet1.flags.c_contiguous and not rebuilt.sheet1.flags.writeable


def test_values_at_matches_nodes(grid64):
    f = make_field(BRANCHED_HALF)
    v1, v2 = values_at(f, 0.5, grid64.thetas[5])
    np.testing.assert_allclose(v1[0], f.sheet1[32, 5], atol=1e-12)
    np.testing.assert_allclose(v2[0], f.sheet2[32, 5], atol=1e-12)
    # crossing the slit picks up the other sheet under a swap seam
    just_under = 2 * np.pi - 1e-9
    v1b, _ = values_at(f, 1.0, just_under)
    np.testing.assert_allclose(v1b[0], f.sheet2[-1, 0], atol=1e-6)


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
def test_values_at_reads_nodes_exactly(seam):
    """theta / dtheta can land a few ulps off node j; every node angle of
    ring 128 of a random 256x1024 field must read the stored values."""
    grid = PolarGrid(256, 1024)
    rng = np.random.default_rng(128)
    s1, s2 = rng.standard_normal((2, grid.n_r + 1, grid.n_theta, 2))
    s1[0], s2[0] = s1[0, 0], s2[0, 0]
    f = DiskField(grid, s1, s2, seam)
    v1, v2 = values_at(f, np.full(grid.n_theta, 0.5), grid.thetas)
    assert v1.tobytes() == f.sheet1[128].tobytes()
    assert v2.tobytes() == f.sheet2[128].tobytes()


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
def test_values_at_wraps_across_the_slit_by_the_seam(grid32, seam):
    """Halfway between the last grid angle and 2*pi, each sheet meets the
    first column of its own sheet (identity) or of the other one (swap: the
    double cover)."""
    f = random_field(grid32, seam, np.random.default_rng(7))
    i = 16
    v1, v2 = values_at(f, grid32.radii[i], 2 * np.pi - grid32.dtheta / 2)
    first1, first2 = (f.sheet1, f.sheet2) if seam is Continuation.IDENTITY else (f.sheet2, f.sheet1)
    np.testing.assert_allclose(v1[0], (f.sheet1[i, -1] + first1[i, 0]) / 2, atol=1e-12)
    np.testing.assert_allclose(v2[0], (f.sheet2[i, -1] + first2[i, 0]) / 2, atol=1e-12)


def test_holder_fit_exponents():
    rng = np.random.default_rng(0)
    f = make_field(BRANCHED_HALF)
    assert abs(holder_fit(f, 400, rng) - 0.5) <= 0.05
    g = make_field(DOUBLED_Z)
    assert holder_fit(g, 400, np.random.default_rng(1)) >= 0.95
    h = make_field(
        HomogeneousPair(
            1.5,
            FormClass(1, (1.0,)).to_tuple(),
            FormClass(1, (-1.0,)).to_tuple(),
            Continuation.SWAP,
        )
    )
    assert holder_fit(h, 400, np.random.default_rng(2)) >= 0.95


def test_holder_fit_degenerate(grid64):
    with pytest.raises(DegenerateField):
        holder_fit(constant_field(grid64, (0.0, 0.0)), 100)


def test_energy_decay_check(grid64):
    f = make_field(BRANCHED_HALF)
    lhs, rhs = energy_decay_check(f, 0.5, 1.0)
    np.testing.assert_allclose(lhs, rhs, rtol=0.02)  # D proportional to r for 2N=1
    g = make_field(DOUBLED_Z)
    lhs, rhs = energy_decay_check(g, 0.5, 1.0)
    assert lhs <= rhs * 1.02
    zero = constant_field(grid64)
    assert energy_decay_check(zero, 0.5, 1.0) == (0.0, 0.0)


def test_field_dump_roundtrip(tmp_path, grid32):
    f = sample_field(BRANCHED_HALF, grid32)
    path = tmp_path / "field.csv"
    save_field(f, path)
    g = load_field(path)
    assert g.seam is Continuation.SWAP
    assert g.grid == grid32
    np.testing.assert_array_equal(g.sheet1, f.sheet1)
    np.testing.assert_array_equal(g.sheet2, f.sheet2)


def golden_field(seam):
    """Deterministic 4x10 field: exactly rounded arithmetic only (no libm),
    17-digit mantissas, signed zero, subnormal and extreme magnitudes."""
    grid = PolarGrid(4, 10)
    n = (grid.n_r + 1) * grid.n_theta * 2
    vals = (np.arange(2 * n, dtype=float) - n) / 3.0 + 1.0 / 7.0
    s1 = vals[:n].reshape(grid.n_r + 1, grid.n_theta, 2)
    s2 = -vals[n:].reshape(grid.n_r + 1, grid.n_theta, 2) * np.pi
    s1[0] = s1[0, 0]
    s2[0] = (-0.0, 1e-300)
    s1[1, :5, 0] = (-0.0, 1e-300, 1e300, -1e300, 5e-324)
    s2[2, 3] = (0.1 + 0.2, 2.0 / 3.0)
    return DiskField(grid, s1, s2, seam)


# SHA-256 of sidecar + CSV bytes, pinned with the csv.writer-based dump
GOLDEN_DUMP_SHA256 = {
    Continuation.IDENTITY: "7b91bc282cb7cf4e8e9fa4e71baeeda143b6a1e54b2c83b05a0d35b043048edf",
    Continuation.SWAP: "346be0d42c50bcc6a14af17cf4adda12acfa6c260a6ea25c7d0e1a2298437973",
}


@pytest.mark.parametrize("seam", sorted(GOLDEN_DUMP_SHA256, key=lambda s: s.value))
def test_field_dump_golden_bytes(tmp_path, seam):
    f = golden_field(seam)
    path = tmp_path / "field.csv"
    save_field(f, path)
    data = path.with_suffix(".json").read_bytes() + path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_DUMP_SHA256[seam]
    g = load_field(path)
    assert g.seam is seam
    assert g.sheet1.tobytes() == f.sheet1.tobytes()
    assert g.sheet2.tobytes() == f.sheet2.tobytes()


def _row_template_dump(field, csv_path):
    """Reference writer: the dump as 64-node chunks of row templates, one
    %-format per chunk, as save_field wrote it before _csv_rows."""
    chunk = 64
    starts = range(0, field.grid.n_theta, chunk)
    with open(csv_path, "w", newline="") as fh:
        fh.write("ring_index,angle_index,sheet,x,y\r\n")
        for sheet_id, arr in ((1, field.sheet1), (2, field.sheet2)):
            templates = [
                "".join(
                    f"{{ring}},{j},{sheet_id},%.17g,%.17g\r\n"
                    for j in range(lo, min(lo + chunk, field.grid.n_theta))
                )
                for lo in starts
            ]
            for i, ring in enumerate(arr):
                for lo, template in zip(starts, templates):
                    values = ring[lo : lo + chunk].ravel().tolist()
                    fh.write(template.replace("{ring}", str(i)) % tuple(values))


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 256)])
def test_field_dump_matches_row_template_writer(tmp_path, seam, n_r, n_theta):
    """Random fields with magnitudes from 1e-9 to 1e17: both notations,
    integers, and values the float64 path leaves to %.17g."""
    grid = PolarGrid(n_r, n_theta)
    rng = np.random.default_rng(n_r + n_theta)
    shape = (2, n_r + 1, n_theta, 2)
    s1, s2 = rng.standard_normal(shape) * 10.0 ** rng.uniform(-9, 17, shape)
    s1[3, :8, 0] = np.arange(8) * 100.0  # integers, zeros among them
    s1[0], s2[0] = s1[0, 0], s2[0, 0]
    f = DiskField(grid, s1, s2, seam)
    save_field(f, tmp_path / "field.csv")
    _row_template_dump(f, tmp_path / "reference.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _printf(x) -> bytes:
    return (("%.17g\r\n" * len(x)) % tuple(x.tolist())).encode()


def assert_printf_text(x):
    """_csv_rows writes every value of x as "%.17g" % value would: x as
    the one value column of one ring, without label words."""
    no_labels = np.empty((0, 1), np.uint32), np.empty((0, len(x)), np.uint32)
    got, want = _csv_rows(x.reshape(1, -1, 1), *no_labels), _printf(x)
    if got != want:
        lines = zip(x.tolist(), got.split(b"\r\n"), want.split(b"\r\n"))
        bad = [line for line in lines if line[1] != line[2]]
        raise AssertionError(f"{len(bad)} values differ from %.17g, e.g. {bad[:5]}")


def test_text_matches_printf_on_random_bit_patterns():
    """1e6 random doubles with exponents over the float64 path's range
    (1e-6, 1e15) and a decade past each end, both signs; and 1e5 random
    bit patterns of any exponent (subnormals, huge values, inf, nan)."""
    rng = np.random.default_rng(17)
    n = 1_000_000
    lo, hi = np.array([1e-7, 1e16]).view(np.uint64) >> np.uint64(52)
    bits = (
        (rng.integers(lo, hi, n, endpoint=True, dtype=np.uint64) << np.uint64(52))
        | rng.integers(0, 2**52, n, dtype=np.uint64)
        | (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    )
    wild = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
    assert_printf_text(np.concatenate([bits, wild]).view(np.float64))


def test_text_matches_printf_on_edge_values():
    powers = 10.0 ** np.arange(-12, 18)
    edges = np.array([1e-6, 1e15])  # ends of the float64 path
    # near 1e15 the spacing is 1/8: x.125, x.375, ... are ties at 17 digits
    ties = (1e15 - np.arange(1, 1001))[:, None] + np.arange(8) / 8
    x = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        ties.ravel(), np.arange(1, 2001) * 50.0, [0.5, 0.1 + 0.2, 2.0 / 3.0, 1.5e-5],
        [0.0, 5e-324, 2.2250738585072014e-308, 1e300, np.inf, np.nan],
    ])
    assert_printf_text(np.concatenate([x, -x]))


def _values_with_exponents(rng, exponents, n=64):
    """n random doubles of both signs whose "%.17g" exponents lie in
    ``exponents``: full 17-digit mantissas, and a quarter with few digits,
    so trailing zeros and integers appear."""
    k = rng.choice(exponents, n)
    mantissa = rng.uniform(1.0001, 9.999, n)
    scale = 10 ** rng.integers(0, 4, n // 4)
    mantissa[: n // 4] = rng.integers(scale + 1, 10 * scale) / scale
    return rng.choice([-1.0, 1.0], n) * mantissa * 10.0 ** k


# the exponents the float64 path covers, and words of the layout: the head's
# second word, integer digits after d0, the point after them, the exponent
K_RANGE = range(-6, 15)
HEAD_2, INTEGER, POINT, EXPONENT = [1], [2, 3, 4, 5], [6], [11]


def test_text_of_every_exponent_range():
    """One block per range [lo, hi] of exponents, so that each block stages
    the words of its own range: k <= 0 only, k >= 1 only, and both."""
    rng = np.random.default_rng(23)
    for lo in K_RANGE:
        for hi in K_RANGE[lo - K_RANGE.start :]:
            assert_printf_text(_values_with_exponents(rng, np.arange(lo, hi + 1)))


def test_text_of_blocks_of_slow_values():
    """Blocks without a float64-path value: zeros only, and texts of 1 to 24
    characters, whose width sets the staged words; and a slow text wider
    than the words of the block's float64-path values."""
    assert_printf_text(np.zeros(5))
    assert_printf_text(np.array([0.5, -0.25, -2.2250738585072014e-308, 3.0]))
    assert_printf_text(np.array([0.0, -0.0]))
    assert_printf_text(np.array([
        -2.2250738585072014e-308, 0.0, np.nan, 5e-324, -np.inf, 1e15,
        2.2250738585072009e-308, -1.7976931348623157e308, 1e-7, 123456789012345680.0,
    ]))


def test_text_of_signed_zeros_among_fast_values():
    """±0 takes the float64 path's tables: "0" and "-0" in any block, and
    a block of zeros and float64-path values stages the words of those
    values alone."""
    rng = np.random.default_rng(29)
    zeros = np.array([0.0, -0.0, -0.0, 0.0])
    for k in K_RANGE:
        x = _values_with_exponents(rng, [k])
        with_zeros = np.concatenate([zeros[:2], x, zeros[2:]])
        assert_printf_text(with_zeros)
        staged = np.empty((VALUE_WORDS, len(with_zeros)), np.uint32)
        words = _text_words(x, staged[:, : len(x)])
        assert _text_words(with_zeros, staged) == words
    assert_printf_text(np.array([-0.0] * 3))
    assert_printf_text(np.array([0.0, -0.0, 5e-324, -np.inf, 1e-300, 0.0]))


def _float64_path_only(x):
    """x, asserted to hold no value that "%.17g" formats one at a time."""
    assert np.all((np.abs(x) > 1e-6) & (np.abs(x) < 1e15))
    return x


def test_text_of_blocks_without_slow_values():
    """Blocks of float64-path values only, at the redo boundaries of
    _decimal17: powers of ten and their neighbours, where log10 lands on an
    integer; the ties at 17 digits below 1e15; and one block per exponent k,
    with the largest and the smallest value of that exponent."""
    powers = 10.0 ** np.arange(-5, 15)
    near = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [np.nextafter(1e-6, 1), np.nextafter(1e15, 0)],
    ])
    assert_printf_text(_float64_path_only(np.concatenate([near, -near])))
    ties = (1e15 - np.arange(1, 1001))[:, None] + np.arange(8) / 8
    assert_printf_text(_float64_path_only(ties.ravel()))
    rng = np.random.default_rng(37)
    for k in K_RANGE:
        ends = [max(10.0**k, np.nextafter(1e-6, 1)), np.nextafter(min(10.0 ** (k + 1), 1e15), 0)]
        x = np.concatenate([_values_with_exponents(rng, [k], 256), ends, np.negative(ends)])
        assert_printf_text(_float64_path_only(x))


@pytest.mark.parametrize(
    "x", [-0.000123, 1.25e-5, 7.0, 123.5, -99999999999999.98, 0.0, 5e-324, -2.2250738585072014e-308]
)
def test_text_of_single_value_blocks(x):
    assert_printf_text(np.array([x]))


@pytest.mark.parametrize("lo, hi, words", [
    (-1, 0, [0, 7, 8, 9, 10]),
    (-6, 0, [0, *HEAD_2, 7, 8, 9, 10, *EXPONENT]),
    (14, 14, [0, *INTEGER, *POINT, 10]),
])
def test_block_stages_only_the_words_its_values_use(lo, hi, words):
    x = _values_with_exponents(np.random.default_rng(29), np.arange(lo, hi + 1), 256)
    out = np.zeros((VALUE_WORDS, len(x)), dtype=np.uint32)
    assert _text_words(x, out) == len(words)
    assert not out[len(words) :].any()


def test_block_of_zeros_stages_one_word():
    out = np.zeros((VALUE_WORDS, 3), dtype=np.uint32)
    assert _text_words(np.array([0.0, 0.0, 0.0]), out) == 1


def _label_texts(words) -> list[str]:
    """The texts of (words, count) NUL-padded label words."""
    raw = np.ascontiguousarray(words.T).view(f"S{4 * len(words)}").ravel()
    return [text.decode() for text in raw]


@pytest.mark.parametrize("seam", [Continuation.IDENTITY, Continuation.SWAP])
@pytest.mark.parametrize("n_r, n_theta, block_rings", [
    (64, 200, [40, 25]),  # 8000-row blocks and a 25-ring tail
    (63, 256, [32, 32]),  # no tail
    (4, 8194, [1] * 5),  # a ring is longer than DUMP_ROWS: one ring per block
], ids=["64x200", "63x256", "4x8194"])
def test_field_dump_blocks_of_whole_rings(tmp_path, monkeypatch, seam, n_r, n_theta,
                                          block_rings):
    """Each dump block is whole rings of one sheet, at most DUMP_ROWS rows
    or one ring; the blocks cover sheet 1, then sheet 2, ring by ring, and
    the dump equals the row-template writer's."""
    grid = PolarGrid(n_r, n_theta)
    rng = np.random.default_rng(31)
    shape = (2, grid.n_r + 1, grid.n_theta, 2)
    s1, s2 = rng.standard_normal(shape) * 10.0 ** rng.uniform(-9, 17, shape)
    s1[0], s2[0] = s1[0, 0], s2[0, 0]
    f = DiskField(grid, s1, s2, seam)
    blocks = []

    def probe(values, rings, angles):
        blocks.append((values, _label_texts(rings), _label_texts(angles)))
        return _csv_rows(values, rings, angles)

    monkeypatch.setattr(field_module, "_csv_rows", probe)
    save_field(f, tmp_path / "field.csv")
    _row_template_dump(f, tmp_path / "reference.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    expected = [
        (sheet_id, sheet, lo, count)
        for sheet_id, sheet in ((1, f.sheet1), (2, f.sheet2))
        for lo, count in zip(np.cumsum([0, *block_rings]), block_rings)
    ]
    assert len(blocks) == len(expected)
    for (values, rings, angles), (sheet_id, sheet, lo, count) in zip(blocks, expected):
        assert values.shape[0] * n_theta <= max(DUMP_ROWS, n_theta)
        assert rings == [f"{i}," for i in range(lo, lo + count)]
        assert angles == [f"{j},{sheet_id}," for j in range(n_theta)]
        assert values.tobytes() == sheet[lo : lo + count].tobytes()


def test_profile_csv_matches_csv_writer(tmp_path):
    values = np.array([
        [0.25, -0.0, 5e-324, 1e300],
        [0.5, 1.0 / 3.0, 2.5e-7, -1.5e-5],
        [1.0, 100.0, 1e15 - 0.125, np.inf],
    ])
    prof = FrequencyProfile(*values.T, monotonicity_defect=0.0)
    prof.to_csv(tmp_path / "profile.csv")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["r", "D", "H", "N"])
    for row in values:
        writer.writerow([format(x, ".17g") for x in row])
    assert (tmp_path / "profile.csv").read_bytes() == expected.getvalue().encode()


def test_profile_csv(tmp_path, grid64):
    f = make_field(DOUBLED_Z)
    prof = frequency_profile(f, [0.25, 0.5, 1.0])
    out = tmp_path / "profile.csv"
    prof.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "r,D,H,N"
    assert len(lines) == 4


def test_frequency_profile_mixed_modes(grid64):
    """Modes 1/2 and 5/2 together: nondecreasing N(r) approaching 1/2."""
    from qdisk.minimizer import BoundaryTrace, minimize

    n = 256
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack([np.cos(cover / 2), np.sin(cover / 2)], axis=1)
    loop += 0.5 * np.stack([np.cos(5 * cover / 2), np.sin(5 * cover / 2)], axis=1)
    trace = BoundaryTrace.from_values(loop[:n], loop[n:])
    field = minimize(trace, grid64).field
    prof = frequency_profile(field, np.linspace(0.15, 1.0, 12))
    assert prof.monotonicity_defect <= 0.005
    assert abs(prof.N[0] - 0.5) <= 0.02
    assert prof.N[-1] > prof.N[0]  # the 5/2 part lifts N at outer radii


def test_energy_and_mass_scaling_slopes():
    """log D and log H against log r fit slopes 2N and 2N+1 within 2%."""
    from qdisk.forms import enumerate_entries

    grid = PolarGrid(64, 256)
    radii = np.linspace(0.3, 1.0, 8)
    for entry in enumerate_entries(5, 21)[::7]:
        f = sample_field(entry, grid)
        D = [dirichlet_energy(f, r) for r in radii]
        H = [boundary_mass(f, r) for r in radii]
        snapped = [f.grid.radii[f.grid.ring_of(r)] for r in radii]
        slope_d = np.polyfit(np.log(snapped), np.log(D), 1)[0]
        slope_h = np.polyfit(np.log(snapped), np.log(H), 1)[0]
        assert abs(slope_d - 2 * entry.N) <= 0.02 * max(1.0, 2 * entry.N)
        assert abs(slope_h - (2 * entry.N + 1)) <= 0.02 * (2 * entry.N + 1)


def _edit_dump(path, edit):
    lines = path.read_bytes().split(b"\r\n")[:-1]
    path.write_bytes(b"".join(line + b"\r\n" for line in edit(lines)))


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[:200],  # cut after 199 of 288 node rows
        lambda lines: lines[:-1],  # last row missing
        lambda lines: lines[:100] + [lines[99]] + lines[101:],  # row duplicated
        lambda lines: lines[:100] + [lines[101], lines[100]] + lines[102:],  # rows swapped
        lambda lines: lines + [lines[-1]],  # extra row
        lambda lines: lines[1:],  # header missing
        lambda lines: lines[:1],  # header only
        lambda lines: [b"ring,angle,sheet,x,y"] + lines[1:],  # wrong header
        lambda lines: lines[:5] + [lines[5] + b",0"] + lines[6:],  # extra column
    ],
    ids=["truncated", "last-row", "duplicated", "swapped", "extra-row", "no-header",
         "header-only", "bad-header", "extra-column"],
)
def test_load_field_rejects_damaged_dump(tmp_path, edit):
    path = tmp_path / "field.csv"
    save_field(sample_field(BRANCHED_HALF, PolarGrid(8, 16)), path)
    load_field(path)
    _edit_dump(path, edit)
    with pytest.raises(ValueError):
        load_field(path)
