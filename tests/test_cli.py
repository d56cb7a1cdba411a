import argparse
import errno
import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import conformal_swap_trace, perfbench_inputs, random_trace, single_mode_trace

from qdisk import blowup as blowup_module
from qdisk import cli, minimizer
from qdisk import field as field_module
from qdisk.cli import main
from qdisk.field import PolarGrid, load_field
from qdisk.forms import Continuation, FourTuple, enumerate_entries, sheet_eval
from qdisk.minimizer import (
    BoundaryTrace,
    frequency_from_spectrum,
    load_trace,
    minimize,
    save_trace,
)


@pytest.fixture
def branched_trace_file(tmp_path):
    path = tmp_path / "trace.json"
    save_trace(single_mode_trace(1.5), path)
    return str(path)


@pytest.fixture
def perturbed_trace_file(tmp_path):
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack(
        [
            np.cos(1.5 * cover) + 0.2 * np.cos(3.5 * cover),
            np.sin(1.5 * cover) + 0.2 * np.sin(3.5 * cover),
        ],
        axis=1,
    )
    trace = BoundaryTrace.from_values(loop[:n], loop[n:])
    path = tmp_path / "perturbed.json"
    save_trace(trace, path)
    return str(path)


def test_classify_exit_codes(capsys):
    assert main(["classify", "1,0,0,1"]) == 0
    assert "F1(d=1)" in capsys.readouterr().out
    assert main(["classify", "1,1,1,1"]) == 1
    assert "not-conformal" in capsys.readouterr().out
    assert main(["classify", "1,0,0"]) == 2
    # squares beyond the float range: the defect is exact, or infinite
    assert main(["classify", "1e200,0,0,1e200"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["conformal defect: (0, 0)", "classification: F1(d=1e+200)"]
    assert main(["classify", "1e200,0,0,0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["conformal defect: (inf, 0)", "classification: not-conformal"]


CLASSIFY_PINS = [
    # the README's example, one tuple per family (signed zeros among them),
    # and a tuple that is not conformal
    (["1,0,0,1"], 0, "(1, 0, 0, 1)", "(0, 0)", "F1(d=1)"),
    (["2,0,0,2"], 0, "(2, 0, 0, 2)", "(0, 0)", "F1(d=2)"),
    (["1.5,0,-0,-1.5"], 0, "(1.5, 0, -0, -1.5)", "(0, 0)", "F2(d=-1.5)"),
    (["0,0.5,0.5,0"], 0, "(0, 0.5, 0.5, 0)", "(0, 0)", "F3(b=0.5)"),
    (["0,2,-2,-0"], 0, "(0, 2, -2, -0)", "(0, 0)", "F4(b=2)"),
    (["3,-1,1,3"], 0, "(3, -1, 1, 3)", "(0, 0)", "F5(l=3, c=1)"),
    (["1.5,0.5,0.5,-1.5"], 0, "(1.5, 0.5, 0.5, -1.5)", "(0, 0)", "F6(l=3, c=0.5)"),
    (["0,-0,0,0"], 0, "(0, -0, 0, 0)", "(0, 0)", "F7"),
    (["1,1,1,1"], 1, "(1, 1, 1, 1)", "(0, 2)", "not-conformal"),
    # both sides of F1's residual a - d, F5's coordinate Re alpha, F5's
    # coordinate Im alpha and F7's residual d, each at 0.05 * (1 -+ 2^-10)
    (["0.2749755859375,0.0,0.0,0.2250244140625", "--tol", "0.05"], 0,
     "(0.274976, 0, 0, 0.225024)", "(0.0249756, 0)", "F1(d=0.25)"),
    (["0.2750244140625,0.0,0.0,0.2249755859375", "--tol", "0.05"], 1,
     "(0.275024, 0, 0, 0.224976)", "(0.0250244, 0)", "not-conformal"),
    (["0.049951171875000006,0.375,-0.375,0.049951171875000006", "--tol", "0.05"], 0,
     "(0.0499512, 0.375, -0.375, 0.0499512)", "(8.23994e-18, 0)", "F4(b=0.375)"),
    (["0.050048828125,0.375,-0.375,0.050048828125", "--tol", "0.05"], 0,
     "(0.0500488, 0.375, -0.375, 0.0500488)", "(0, 0)", "F5(l=-0.133464, c=-0.375)"),
    (["0.25,-0.049951171875000006,0.049951171875000006,0.25", "--tol", "0.05"], 0,
     "(0.25, -0.0499512, 0.0499512, 0.25)", "(-6.93889e-18, 0)", "F1(d=0.25)"),
    (["0.25,-0.050048828125,0.050048828125,0.25", "--tol", "0.05"], 0,
     "(0.25, -0.0500488, 0.0500488, 0.25)", "(0, 0)", "F5(l=4.99512, c=0.0500488)"),
    (["0.0,0.0,0.0,-0.049951171875000006", "--tol", "0.05"], 0,
     "(0, 0, 0, -0.0499512)", "(-0.00249512, 0)", "F7"),
    (["0.0,0.0,0.0,-0.050048828125", "--tol", "0.05"], 1,
     "(0, 0, 0, -0.0500488)", "(-0.00250489, 0)", "not-conformal"),
]


@pytest.mark.parametrize("args, code, tuple_, defect, form", CLASSIFY_PINS,
                         ids=[",".join(pin[0]) for pin in CLASSIFY_PINS])
def test_classify_stdout_pinned(capsys, args, code, tuple_, defect, form):
    """qdisk classify's stdout and exit code, as printed before the families
    were stated through alpha and beta."""
    assert main(["classify", *args]) == code
    captured = capsys.readouterr()
    assert captured.out == (
        f"tuple: {tuple_}\nconformal defect: {defect}\nclassification: {form}\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "nan,0,0,0"],
        ["classify", "1,0,0,inf"],
        ["classify", "1,0,0,1", "--tol", "nan"],
        ["classify", "1,0,0,1", "--tol=-1"],
        ["classify", "1,2,x,4"],
    ],
)
def test_classify_rejects_non_finite_input(argv, capsys):
    """NaN slipped past the defect gate (nan > tol is False) and printed
    not-conformal with exit 1. A tuple that does not parse exits 2 too."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if argv[1] == "1,2,x,4":
        assert captured.err == "error: bad tuple '1,2,x,4'\n"


def test_table_csv_and_json(tmp_path):
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    assert main(["table", "--out", str(csv_path)]) == 0
    assert main(["table", "--out", str(json_path), "--format", "json"]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "form_i,form_j,continuation,frequency_class,constraints"
    assert len(lines) == 1 + 62
    records = json.loads(json_path.read_text())
    assert len(records) == 62
    csv_rows = {tuple(line.split(",")[:3]) for line in lines[1:]}
    json_rows = {
        (r["form_i"], r["form_j"], r["continuation"]) for r in records
    }
    assert csv_rows == json_rows


def test_table_unwritable_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "t.csv"
    rc = main(["table", "--out", str(target)])
    assert rc == 2


@pytest.mark.parametrize(
    "fmt, digest",
    [("csv", "18b313aa8d36d67db7c37dc9ccfbfc7e7c62ad1658324ec961a233eeb9c8b1d8"),
     ("json", "e60bf11b04200bd496674437d96c17e0eda7d0ac0176639570a4a4b49e22e3dd")],
)
def test_table_bytes_pinned(tmp_path, fmt, digest):
    """Every class of the table is asked of HomogeneousPair.validate; the
    bytes stay those of the exact slit-value derivation it replaced."""
    out = tmp_path / f"table.{fmt}"
    assert main(["table", "--out", str(out), "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_table_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["table", "--out", str(a)])
    main(["table", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_minimize_writes_artifacts(branched_trace_file, tmp_path, capsys):
    out = tmp_path / "field.csv"
    rc = main(["minimize", branched_trace_file, "--out", str(out), "--oracle"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "class: swap" in captured
    field = load_field(out)
    assert field.seam is Continuation.SWAP
    profile = out.with_name("field_profile.csv").read_text().splitlines()
    assert profile[0] == "r,D,H,N"
    n_vals = [float(line.split(",")[3]) for line in profile[1:]]
    assert all(abs(v - 1.5) < 0.02 for v in n_vals)


def test_minimize_deterministic(branched_trace_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["minimize", branched_trace_file, "--out", str(a)])
    main(["minimize", branched_trace_file, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (
        a.with_name("a_profile.csv").read_bytes()
        == b.with_name("b_profile.csv").read_bytes()
    )


def test_minimize_ambiguous_without_class(tmp_path):
    n = 128
    th = 2 * np.pi * np.arange(n) / n
    p1 = np.stack([np.cos(th), np.sin(th)], axis=1)
    p2 = np.stack([np.cos(th), -np.sin(th)], axis=1)  # collides twice
    path = tmp_path / "collide.json"
    save_trace(BoundaryTrace.from_values(p1, p2), path)
    assert main(["minimize", str(path)]) == 2
    out = tmp_path / "forced.csv"
    assert main(["minimize", str(path), "--class", "identity", "--out", str(out)]) == 0


def test_minimize_oracle_gate(branched_trace_file, tmp_path):
    out = tmp_path / "f.csv"
    rc = main(
        ["minimize", branched_trace_file, "--out", str(out), "--oracle",
         "--oracle-tol", "1e-12"]
    )
    assert rc == 3  # unreachable tolerance: flagged as numerical failure


def test_blowup_report(perturbed_trace_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["blowup", perturbed_trace_file, "--out", str(out),
               "--radii", "0.4,0.2,0.1"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["rounded_N"] == 1.5
    assert report["continuation"] == "swap"
    assert abs(report["fitted_N"] - 1.5) <= 0.02
    assert abs(report["boundary_mass"] - report["1/N"]) <= 0.02 * report["1/N"]


def test_blowup_dichotomy(tmp_path):
    n = 128
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    trace = BoundaryTrace.from_values(
        np.tile([1.0, 0.0], (n, 1)) + 0.3 * z, np.tile([1.0, 0.0], (n, 1)) - 0.3 * z
    )
    path = tmp_path / "const.json"
    save_trace(trace, path)
    out = tmp_path / "report.json"
    rc = main(["blowup", str(path), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["fitted_N"] == 0.0
    assert report["continuation"] is None
    assert "note" in report


def test_non_finite_trace_rejected(tmp_path):
    n = 64
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack([np.cos(1.5 * cover), np.sin(1.5 * cover)], axis=1)
    for bad in (float("nan"), float("inf")):
        rows = [
            {"theta": float(t), "p1": list(a), "p2": list(b)}
            for t, a, b in zip(th, loop[:n], loop[n:])
        ]
        rows[5]["p1"][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rows))  # writes NaN / Infinity literals
        out = tmp_path / "report.json"
        assert main(["blowup", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["minimize", str(path), "--out", str(tmp_path / "f.csv")]) == 2


def _scaled_trace_file(tmp_path, scale):
    trace = single_mode_trace(1.5, n=128)
    path = tmp_path / "big.json"
    save_trace(BoundaryTrace.from_values(trace.p1 * scale, trace.p2 * scale), path)
    return path


@pytest.mark.parametrize("command, scale", [("minimize", 1e153), ("minimize", 1e200)])
def test_overflowing_trace_exits_2(tmp_path, capsys, command, scale):
    """Finite data whose squares overflow: the run stops at the first
    overflow or invalid operation, exits 2 naming it, prints no results and
    writes no files (a leaked warning fails the test too). The blow-up does
    not overflow (test_blowup_keeps_its_answer_at_scale): it reads no
    full-disk energy, and it rescales the spectrum at its unit binade."""
    path = _scaled_trace_file(tmp_path, scale)
    argv = [command, str(path), "--nr", "32", "--ntheta", "128",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: FloatingPointError: overflow")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("scale", [1e154, 1e155, 1e200])
@pytest.mark.parametrize("kind", [Continuation.SWAP, Continuation.IDENTITY],
                         ids=lambda kind: kind.value)
def test_minimize_names_every_quadrature_overflow(tmp_path, capsys, kind, scale):
    """A 16-sample trace on a 16x8 grid overflows minimize's quadrature
    energy from 1e154, in a weighted ring energy first and from 1e155 in a
    ring's sum of squares: every such overflow prints the one message, and
    the run writes no files."""
    trace = random_trace(np.random.default_rng(5), kind, n=16)
    path = tmp_path / "t.json"
    save_trace(BoundaryTrace.from_values(scale * trace.p1, scale * trace.p2), path)
    argv = ["minimize", str(path), "--nr", "16", "--ntheta", "8", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: FloatingPointError: overflow in a ring's sum of squares")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


SCALES = {"2^20": 2.0**20, "2^-20": 2.0**-20, "1e5": 1e5, "1e150": 1e150, "1e153": 1e153,
          "1e200": 1e200, "1e300": 1e300}


@pytest.mark.parametrize("scale", list(SCALES.values()), ids=list(SCALES))
def test_blowup_keeps_its_answer_at_scale(tmp_path, capsys, scale):
    """The presence threshold scales with the data, and the blow-up reads
    no full-disk energy: at 2^20 and 2^-20 the report keeps the bytes of
    scale 1 (powers of two scale without rounding, and the normalization
    undoes them), and up to 1e300 it reads the same N = 3/2 swap entry
    with fitted_N within 1e-12."""
    reports = []
    for factor in (1.0, scale):
        out = tmp_path / f"report{len(reports)}.json"
        argv = ["blowup", str(_scaled_trace_file(tmp_path, factor)), "--nr", "32",
                "--ntheta", "128", "--out", str(out)]
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert capsys.readouterr().out == ""
    one, scaled = (json.loads(r) for r in reports)
    assert (scaled["rounded_N"], scaled["continuation"]) == (1.5, "swap")
    assert (one["rounded_N"], one["continuation"]) == (1.5, "swap")
    assert abs(scaled["fitted_N"] - one["fitted_N"]) <= 1e-12
    if np.frexp(scale)[0] == 0.5:
        assert reports[1] == reports[0]


@pytest.mark.parametrize("scale", [2.0**20, 2.0**-20, 1e5, 1e150],
                         ids=["2^20", "2^-20", "1e5", "1e150"])
def test_minimize_keeps_its_answer_at_scale(tmp_path, capsys, scale):
    """Class, N0 and the monotonicity defect of scale 1, and the energy
    times scale^2; at 2^20 and 2^-20 the field and the energy are exactly
    scale times those of scale 1."""
    one = minimize(single_mode_trace(1.5, n=128), PolarGrid(32, 128))
    got = minimize(load_trace(_scaled_trace_file(tmp_path, scale)), PolarGrid(32, 128))
    assert frequency_from_spectrum(got.spectrum) == frequency_from_spectrum(one.spectrum) == 1.5
    assert got.energy == pytest.approx(scale**2 * one.energy, rel=1e-12)
    if np.frexp(scale)[0] == 0.5:
        assert got.energy == scale**2 * one.energy
        assert np.array_equal(got.field.sheet1, scale * one.field.sheet1)
        assert np.array_equal(got.field.sheet2, scale * one.field.sheet2)

    lines = []
    for factor in (1.0, scale):
        argv = ["minimize", str(_scaled_trace_file(tmp_path, factor)), "--nr", "32",
                "--ntheta", "128", "--out", str(tmp_path / "f.csv")]
        assert main(argv) == 0
        lines.append(capsys.readouterr().out.splitlines())
    assert lines[1][0] == lines[0][0] == "class: swap"
    assert lines[1][-2] == lines[0][-2] == "N0: 1.5  monotonicity defect: 0.000422"


@pytest.mark.parametrize("scale", [1e-8, 1e-12, 1e-17])
def test_commands_keep_their_answer_at_small_scale(perturbed_trace_file, tmp_path, capsys,
                                                   scale):
    """Every data threshold scales with the data, and the oracle gap is
    relative to the energy however small it is: minimize --oracle prints the
    class, N0 and oracle gap of scale 1, and blowup reads its entry."""
    trace = load_trace(perturbed_trace_file)
    small = tmp_path / "small.json"
    save_trace(BoundaryTrace.from_values(scale * trace.p1, scale * trace.p2), small)
    grid = ["--nr", "32", "--ntheta", "128"]
    outputs = []
    for path in (perturbed_trace_file, small):
        assert main(["minimize", str(path), *grid, "--oracle",
                     "--out", str(tmp_path / "f.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main(["blowup", str(path), *grid]) == 0
        report = json.loads(capsys.readouterr().out)
        outputs.append((lines[0], lines[2], lines[-1], report["rounded_N"],
                        report["continuation"]))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] == "class: swap" and outputs[0][3:] == (1.5, "swap")


def test_cmd_blowup_builds_no_minimizer_field(tmp_path, monkeypatch, capsys):
    """Without --dump-fields the blow-up evaluates one ring per radius, the
    unit circle of each exact rescale, and computes no grid field and no
    quadrature energy. With it, each dump is the extension of one rescale:
    one whole field per radius on top."""
    calls, evaluated = [], []
    eval_modes, extension = minimizer._eval_modes, minimizer.harmonic_extension

    def recorded(spectrum, grid, radial):
        evaluated.append(len(radial))
        return eval_modes(spectrum, grid, radial)

    for owner, name in ((minimizer, "dirichlet_energy"), (cli, "dirichlet_energy"),
                        (field_module, "_ring_energy")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    for owner in (minimizer, blowup_module):
        monkeypatch.setattr(owner, "_eval_modes", recorded)
    for owner in (minimizer, cli):
        monkeypatch.setattr(owner, "harmonic_extension",
                            lambda *args: calls.append("harmonic_extension") or extension(*args))
    path = tmp_path / "t.json"
    save_trace(single_mode_trace(1.5), path)
    out = tmp_path / "report.json"
    argv = ["blowup", str(path), "--radii", "0.1,0.4,0.2", "--out", str(out)]
    assert main(argv) == 0
    assert (calls, evaluated) == ([], [1, 1, 1])
    assert json.loads(out.read_text())["rounded_N"] == 1.5
    evaluated.clear()
    assert main(argv + ["--dump-fields", str(tmp_path / "P")]) == 0
    assert (calls, evaluated) == (["harmonic_extension"] * 3, [1, 1, 1] + [65] * 3)


def test_subcommands_reject_flags_they_do_not_read():
    assert main(["classify", "1,0,0,1", "--oracle"]) == 2
    assert main(["table", "--nr", "8"]) == 2
    assert main(["blowup", "t.json", "--oracle"]) == 2
    assert main(["minimize", "t.json", "--dump-fields", "x"]) == 2
    assert main(["minimize", "t.json", "--seed", "1"]) == 2
    assert main(["minimize", "t.json", "--oracle-tol", "0.1"]) == 2


def test_oracle_tol_requires_oracle(branched_trace_file, tmp_path, capsys):
    out = str(tmp_path / "f.csv")
    assert main(["minimize", branched_trace_file, "--out", out, "--oracle-tol", "0.1"]) == 2
    assert capsys.readouterr().err == "error: --oracle-tol requires --oracle\n"
    assert not (tmp_path / "f.csv").exists()
    assert main(["minimize", branched_trace_file, "--out", out, "--oracle",
                 "--oracle-tol", "0.1"]) == 0


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_oracle_tol_must_be_nonnegative(branched_trace_file, tmp_path, monkeypatch, capsys,
                                        tol):
    """--oracle-tol follows classify_form's rule for tol: a value that is not
    >= 0 exits 2 before the trace is read (nan passed any gap, -1 failed
    every one after the oracle ran)."""
    calls = []
    monkeypatch.setattr(cli, "minimize", lambda *args, **kwargs: calls.append(args))
    argv = ["minimize", branched_trace_file, "--out", str(tmp_path / "f.csv"), "--oracle",
            f"--oracle-tol={tol}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --oracle-tol must be a nonnegative number, got {float(tol)!r}\n")
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]


def test_minimize_checks_radii_before_reading_the_trace(branched_trace_file, tmp_path,
                                                       monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "load_trace", lambda *args, **kwargs: calls.append(args))
    argv = ["minimize", branched_trace_file, "--out", str(tmp_path / "f.csv")]
    assert main([*argv, "--radii", "nope"]) == 2
    assert capsys.readouterr().err == "error: bad radii list 'nope'\n"
    assert main([*argv, "--radii", "1.5,0.5"]) == 2
    assert capsys.readouterr().err == "error: radius 1.5 outside (0, 1]\n"
    assert calls == []


@pytest.mark.parametrize("r, rc", [("0.04", 0), ("0.0375", 2)])
def test_ring_rule_binds_minimize_alone(perturbed_trace_file, tmp_path, capsys, r, rc):
    """At 64 rings r = 0.04 is 2.56 rings, nearest ring 3, and r = 0.0375
    is 2.4 rings, nearest ring 2: minimize, whose profile reads the grid's
    rings, runs at the first and exits 2 at the second before the trace is
    read. blowup reads the spectrum at the exact radius and runs at both."""
    argv = ["minimize", perturbed_trace_file, "--out", str(tmp_path / "f.csv"),
            "--radii", f"{r},1"]
    assert main(argv) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == f"error: GridTooCoarse: radius {r} is below 3 grid rings\n"
    else:
        assert err == "detected class: swap (separation 1.6)\n"
    argv = ["blowup", perturbed_trace_file, "--out", str(tmp_path / "report.json"),
            "--radii", f"0.4,{r}"]
    assert main(argv) == 0
    assert capsys.readouterr().err == "detected class: swap (separation 1.6)\n"


def test_profile_reads_each_ring_once(perturbed_trace_file, tmp_path, capsys):
    """On 16 rings the 16 default radii snap to 13 distinct rings (r = 0.35
    and 0.40 both to ring 6): the profile has one row per ring, r being the
    ring's radius, and no repeated row hides a decrease of N as 0. N rises
    on every ring of the criterion-5 trace, so the defect is negative."""
    out = tmp_path / "f.csv"
    argv = ["minimize", perturbed_trace_file, "--nr", "16", "--ntheta", "64", "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    defect = float(lines[2].split("monotonicity defect: ")[1])
    assert defect < 0
    rows = (tmp_path / "f_profile.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [i / 16 for i in range(4, 17)]


@pytest.mark.parametrize(
    "argv, directory",
    [(["minimize", "{trace}", "--out", "{dir}/f.csv"], "f_profile.csv"),
     (["minimize", "{trace}", "--out", "{dir}/f.csv"], "f.csv"),
     (["blowup", "{trace}", "--radii", "0.4,0.2", "--dump-fields", "{dir}/P",
       "--out", "{dir}/report"], "report")],
    ids=["profile-is-a-directory", "dump-is-a-directory", "report-is-a-directory"],
)
def test_failed_write_removes_written_files(perturbed_trace_file, tmp_path, capsys,
                                            argv, directory):
    """A run that cannot write one of its outputs exits 2 with the error line
    and removes the files it had already written: the dump before an
    unwritable profile, the sidecar before an unwritable dump CSV, the
    --dump-fields dumps before an unwritable report."""
    (tmp_path / directory).mkdir()
    before = sorted(tmp_path.iterdir())
    assert main([a.format(trace=perturbed_trace_file, dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: [Errno 21] Is a directory: '{tmp_path / directory}'")
    assert sorted(tmp_path.iterdir()) == before


class _FullAfter:
    """A binary file that takes ``room`` bytes, then fails its write with
    ENOSPC as a full disk does, after writing what fitted."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize(
    "argv, name, room",
    [(["minimize", "{trace}", "--out", "{dir}/f.csv"], "f.json", 10),
     (["minimize", "{trace}", "--out", "{dir}/f.csv"], "f.csv", 1_000_000),
     (["minimize", "{trace}", "--out", "{dir}/f.csv"], "f_profile.csv", 100),
     (["blowup", "{trace}", "--radii", "0.4,0.2", "--dump-fields", "{dir}/P",
       "--out", "{dir}/report"], "P_r0.4.csv", 1_000_000),
     (["blowup", "{trace}", "--radii", "0.4,0.2", "--dump-fields", "{dir}/P",
       "--out", "{dir}/report"], "P_r0.2.csv", 1_000_000),
     (["blowup", "{trace}", "--radii", "0.4,0.2", "--dump-fields", "{dir}/P",
       "--out", "{dir}/report"], "report", 10)],
    ids=["minimize-sidecar", "minimize-dump", "minimize-profile",
         "blowup-first-dump", "blowup-second-dump", "blowup-report"],
)
def test_write_that_fails_midway_leaves_nothing(perturbed_trace_file, tmp_path, capsys,
                                                monkeypatch, argv, name, room):
    """A disk that fills while an output is written, after some of its
    blocks: the run exits 2 and removes that output and every one it wrote
    before. It left the partial file, and a dump's sidecar beside it."""

    def full_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullAfter(fh, room) if Path(path).name == name else fh

    monkeypatch.setattr(field_module, "open", full_open, raising=False)
    before = sorted(tmp_path.iterdir())
    assert main([a.format(trace=perturbed_trace_file, dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: [Errno 28] No space left on device"
    assert sorted(tmp_path.iterdir()) == before


def test_blowup_bad_radii(perturbed_trace_file):
    assert main(["blowup", perturbed_trace_file, "--radii", "0.4,0"]) == 2
    assert main(["blowup", perturbed_trace_file, "--radii", "0.4,nope"]) == 2


def test_missing_trace_file():
    assert main(["minimize", "/nonexistent/trace.json"]) == 2


def test_usage_errors():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


# argv, and whether main parses it with build_parser: when no subcommand
# leads or arguments are left over
PARSER_ARGVS = [
    ([], True), (["-h"], True), (["frobnicate"], True),
    (["blowup"], False), (["classify"], False),
    *(([name, "-h"], False) for name in ("classify", "table", "minimize", "blowup")),
    (["blowup", "t.json", "--bogus"], True),
    (["minimize", "t.json", "--oracle-tol", "x"], False),
    (["blowup", "t.json", "extra"], True),
    (["blowup", "t.json", "--rad", "0.4"], False),
    (["blowup", "--nr=8", "t.json"], False),
    (["minimize", "t.json", "--o"], False),
    (["blowup", "t.json", "--", "x"], True),
    (["blowup", "t.json", "--nr", "8", "--nr", "16"], False),
    (["blowup", "t.json", "-h", "--bogus"], False),
    (["table", "--format", "xml"], False),
]


def test_one_subcommand_parser_prints_the_same_bytes(monkeypatch, capsys):
    """main parses with the invoked subcommand's parser alone, and with
    build_parser when no subcommand leads or arguments are left over; its
    exit code, stdout, stderr and parsed arguments are byte for byte those
    of main's SystemExit handling around build_parser().parse_args."""
    assert list(cli.SUBCOMMANDS) == ["classify", "table", "minimize", "blowup"]
    parsed = []

    def record(args):
        parsed.append(vars(args))
        return 0

    monkeypatch.setattr(cli, "SUBCOMMANDS", {
        name: (help_text, add_arguments, record)
        for name, (help_text, add_arguments, _) in cli.SUBCOMMANDS.items()})

    def reference(argv):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return cli.EXIT_USAGE if exc.code else cli.EXIT_OK
        return args.func(args)

    whole = []
    for argv, _ in PARSER_ARGVS:
        whole.append((reference(argv), *capsys.readouterr(), parsed[:]))
        parsed.clear()

    build, calls = cli.build_parser, []

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    out = []
    for argv, fallback in PARSER_ARGVS:
        out.append((main(argv), *capsys.readouterr(), parsed[:]))
        parsed.clear()
        assert len(calls) == fallback, argv  # build_parser for the fallback alone
        calls.clear()
    assert out == whole
    assert [rc for rc, _, _, _ in whole] == [2, 0, 2, 2, 2, 0, 0, 0, 0, 2, 2,
                                             2, 0, 0, 2, 2, 0, 0, 2]
    err = [err for _, _, err, _ in whole]
    assert "unrecognized arguments: --bogus" in err[9]
    assert "invalid float value: 'x'" in err[10]
    assert "unrecognized arguments: extra" in err[11]
    assert "ambiguous option: --o could match" in err[14]
    assert "unrecognized arguments: x" in err[15]
    assert "invalid choice: 'xml'" in err[18]
    namespaces = [args for _, _, _, args in whole]
    assert (namespaces[12][0]["radii"], namespaces[13][0]["nr"]) == ("0.4", 8)
    assert namespaces[16][0]["nr"] == 16
    assert whole[17][1] == whole[8][1]  # -h before --bogus prints the help


def test_out_help_states_each_commands_default(capsys):
    """Without --out, table and blowup write to stdout, and minimize writes
    minimized_field.csv, its sidecar and its profile."""
    helps = {}
    for name in ("table", "minimize", "blowup"):
        assert main([name, "-h"]) == 0
        helps[name] = " ".join(capsys.readouterr().out.split())
    assert "--out OUT output path (default stdout)" in helps["table"]
    assert "--out OUT output path (default stdout)" in helps["blowup"]
    assert ("--out OUT field dump path, with its .json sidecar and _profile.csv beside it "
            "(default minimized_field.csv)") in helps["minimize"]


@pytest.mark.parametrize("command", ["minimize", "blowup"])
def test_trace_command_builds_one_parser(perturbed_trace_file, tmp_path, monkeypatch, command):
    """A trace command constructs one ArgumentParser, its own; the parser
    of every subcommand takes five."""
    init, built = argparse.ArgumentParser.__init__, []

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main([command, perturbed_trace_file, "--out", str(tmp_path / "out.csv")]) == 0
    assert built == [f"qdisk {command}"]


def test_blowup_dump_fields(perturbed_trace_file, tmp_path):
    out = tmp_path / "report.json"
    prefix = tmp_path / "dump"
    rc = main(["blowup", perturbed_trace_file, "--out", str(out),
               "--radii", "0.4,0.2", "--dump-fields", str(prefix)])
    assert rc == 0
    for r in ("0.4", "0.2"):
        field = load_field(tmp_path / f"dump_r{r}.csv")
        assert field.seam is Continuation.SWAP


def test_blowup_duplicate_radii(perturbed_trace_file):
    assert main(["blowup", perturbed_trace_file, "--radii", "0.4,0.4"]) == 2


def test_cli_subprocess_entry(tmp_path, branched_trace_file):
    """Exit codes and artifacts hold through a real subprocess boundary."""
    import os
    import subprocess
    import sys

    # the child imports the package the tests import, installed or not
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qdisk.cli", "table", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("form_i,form_j,")
    proc = subprocess.run(
        [sys.executable, "-m", "qdisk.cli", "classify", "0,2,-2,0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "F4(b=2)" in proc.stdout


def test_trace_commands_do_not_import_numpy_ma(tmp_path, branched_trace_file):
    """numpy.ma costs each process an import and resident memory; a fresh
    interpreter running blowup, minimize and minimize --oracle never loads
    it (np.median and np.unique would)."""
    import os
    import subprocess

    grid = ["--nr", "32", "--ntheta", "128"]
    runs = [
        ["blowup", branched_trace_file, *grid, "--out", str(tmp_path / "r.json")],
        ["minimize", branched_trace_file, *grid, "--out", str(tmp_path / "f.csv")],
        ["minimize", branched_trace_file, *grid, "--out", str(tmp_path / "f.csv"), "--oracle"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from qdisk import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] False\n", proc.stderr


def _branched_trace_with_mode(n, k):
    """Degree-3/2 branched trace of n samples plus a small double-loop mode k
    (frequency k/2)."""
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack(
        [
            np.cos(1.5 * cover) + 1e-3 * np.cos(0.5 * k * cover),
            np.sin(1.5 * cover) + 1e-3 * np.sin(0.5 * k * cover),
        ],
        axis=1,
    )
    return BoundaryTrace.from_values(loop[:n], loop[n:])


@pytest.mark.parametrize("n, folds", [(1024, True), (256, False)])
def test_folded_modes_reported_on_stderr(tmp_path, capsys, n, folds):
    """On 64x256 the double cover has 512 columns, Nyquist mode 256: mode
    n/2 + 1 of a 1024-sample trace folds, that of a 256-sample trace fits."""
    path = tmp_path / "trace.json"
    save_trace(_branched_trace_with_mode(n, n // 2 + 1), path)
    grid = ["--nr", "64", "--ntheta", "256"]
    for argv in (
        ["minimize", str(path), *grid, "--out", str(tmp_path / "f.csv")],
        ["blowup", str(path), *grid, "--out", str(tmp_path / "report.json")],
    ):
        assert main(argv) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if "Nyquist" in line]
        assert len(warnings) == int(folds)
        assert "Nyquist" not in captured.out
        if folds:
            assert warnings[0].startswith("warning: folded modes: 1 at or above")


def test_nyquist_sine_reported_on_stderr(tmp_path, capsys):
    """8x16 grid, double cover of 32 columns: the 0.1 sin(8t) term of a
    64-sample trace sits on mode 16, the grid Nyquist, and vanishes at
    every node."""
    n = 64
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = np.stack([np.cos(1.5 * cover) + 0.1 * np.sin(8 * cover), np.sin(1.5 * cover)], axis=1)
    path = tmp_path / "trace.json"
    save_trace(BoundaryTrace.from_values(loop[:n], loop[n:]), path)
    argv = ["minimize", str(path), "--nr", "8", "--ntheta", "16", "--radii", "0.5,1"]
    assert main([*argv, "--out", str(tmp_path / "f.csv")]) == 0
    captured = capsys.readouterr()
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: folded modes: 1 at or above the grid's angular Nyquist carry 2.597e-02 "
        "of the spectral energy"
    ]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("t.json", ["minimize", "{trace}", "--out", "{dir}/t.csv"]),  # the sidecar
        ("t.csv", ["minimize", "{trace}", "--out", "{trace}"]),
        ("f_profile.csv", ["minimize", "{trace}", "--out", "{dir}/f.csv"]),
        ("t.json", ["minimize", "{trace}", "--out", "{dir}/./t"]),
        ("t.json", ["blowup", "{trace}", "--out", "{trace}"]),
        ("d_r0.2.csv", ["blowup", "{trace}", "--dump-fields", "{dir}/d"]),
        ("d_r0.1.json", ["blowup", "{trace}", "--out", "{dir}/report.json",
                         "--dump-fields", "{dir}/d"]),
    ],
)
def test_outputs_never_overwrite_the_trace(perturbed_trace_file, tmp_path, capsys,
                                           name, argv):
    trace = tmp_path / name
    trace.write_bytes(Path(perturbed_trace_file).read_bytes())
    before = sorted(tmp_path.iterdir())
    argv = [a.format(trace=trace, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    assert "would overwrite the input trace" in capsys.readouterr().err
    assert trace.read_bytes() == Path(perturbed_trace_file).read_bytes()
    assert sorted(tmp_path.iterdir()) == before  # nothing written


def _trace_text_with(name, convert):
    """A 16-sample branched trace as JSON rows, with row 1's ``name`` value
    passed through convert."""
    trace = single_mode_trace(1.5, n=16)
    rows = [{"theta": float(t), "p1": a.tolist(), "p2": b.tolist()}
            for t, a, b in zip(trace.thetas, trace.p1, trace.p2)]
    rows[1][name] = convert(rows[1][name])
    return json.dumps(rows)


@pytest.mark.parametrize(
    "content",
    [
        '{"theta": 1}', "[1, 2, 3]", '[{"theta": 0, "p1": {"x": 1}, "p2": [0, 1]}]',
        pytest.param(_trace_text_with("p1", lambda p: [str(v) for v in p]), id="string-coordinates"),
        pytest.param(_trace_text_with("p2", lambda p: [True, p[1]]), id="bool-coordinate"),
        pytest.param(_trace_text_with("theta", str), id="string-theta"),
        pytest.param(_trace_text_with("p1", lambda p: 3), id="number-point"),
    ],
)
def test_trace_that_is_not_an_array_of_rows(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        load_trace(path)
    for command in ("minimize", "blowup"):
        assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot load trace {path}")


@pytest.mark.parametrize("point", [
    pytest.param(lambda p: p[:1], id="one-coordinate"),
    pytest.param(lambda p: p + [1.0], id="three-coordinates"),
])
def test_trace_point_that_is_not_a_pair(tmp_path, capsys, point):
    """A point of one or three coordinates exits 2 with a message that names
    the problem, not numpy's ragged-array error; so does such a point in
    every row."""
    ragged, uniform = tmp_path / "ragged.json", tmp_path / "uniform.json"
    rows = json.loads(_trace_text_with("p1", point))  # row 1's point changed
    ragged.write_text(json.dumps(rows))
    for row in rows[:1] + rows[2:]:
        row["p1"] = point(row["p1"])
    uniform.write_text(json.dumps(rows))
    for path in (ragged, uniform):
        with pytest.raises(ValueError, match=r"^trace points must be \[x, y\] pairs$"):
            load_trace(path)
        for command in ("minimize", "blowup"):
            assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
            assert capsys.readouterr().err == (
                f"error: cannot load trace {path}: trace points must be [x, y] pairs\n")


@pytest.mark.parametrize("name, convert", [
    pytest.param("theta", lambda t: 10**400, id="theta"),
    pytest.param("p1", lambda p: [p[0], -(10**400)], id="p1"),
])
def test_trace_integer_beyond_the_float_range(tmp_path, capsys, name, convert):
    """A JSON integer too large for a float is not finite, as the float
    literal 1e400 is: both trace commands exit 2 with that message and no
    traceback."""
    path = tmp_path / "big.json"
    path.write_text(_trace_text_with(name, convert))
    with pytest.raises(ValueError, match="^trace values must be finite$"):
        load_trace(path)
    for command in ("minimize", "blowup"):
        assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot load trace {path}: trace values must be finite\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("huge, triple, message", [
    ("theta", "p1", "trace values must be finite"),
    ("p1", "p2", "trace values must be finite"),
    ("p2", "p1", "trace points must be [x, y] pairs"),
])
def test_trace_integer_beyond_the_float_range_and_a_point_not_a_pair(
        tmp_path, capsys, huge, triple, message):
    """With an integer too large for a float in row 1's ``huge`` and three
    coordinates in row 2's ``triple``, the message is the first fault met
    converting the thetas, then p1, then p2."""
    rows = json.loads(_trace_text_with(huge, lambda v: 10**400 if huge == "theta" else [v[0], 10**400]))
    rows[2][triple] = rows[2][triple] + [1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_trace(path)
    for command in ("minimize", "blowup"):
        assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: cannot load trace {path}: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("literal", ["1e400", "NaN", "Infinity"])
def test_trace_angle_that_is_not_finite(tmp_path, capsys, literal):
    """A theta that parses as inf or NaN is not finite, as a coordinate that
    does is not: both trace commands exit 2 with that message, not with the
    rule for uniform angles, on a grid that passes every radius check."""
    path = tmp_path / "bad.json"
    path.write_text(_trace_text_with("theta", lambda t: 777.0).replace("777.0", literal))
    with pytest.raises(ValueError, match="^trace values must be finite$"):
        load_trace(path)
    for command in ("minimize", "blowup"):
        argv = [command, str(path), "--nr", "32", "--ntheta", "128",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot load trace {path}: trace values must be finite\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def _trace_text_without(*missing):
    """A 16-sample branched trace as JSON rows, without the (row, key)
    values in missing."""
    rows = json.loads(_trace_text_with("theta", float))
    for row, key in missing:
        del rows[row][key]
    return json.dumps(rows)


@pytest.mark.parametrize("content, message", [
    ('[{"theta": 0, "p1": [1, 0]}]', 'trace row 0 has no "p2"'),
    *((_trace_text_without((3, key)), f'trace row 3 has no "{key}"')
      for key in ("theta", "p1", "p2")),
    (_trace_text_without((2, "p2"), (5, "theta")), 'trace row 5 has no "theta"'),
])
def test_trace_row_without_a_value(tmp_path, capsys, content, message):
    """A row without its theta, p1 or p2 exits 2 with a message that names
    the row and the key, not a KeyError's bare repr, and writes nothing;
    the thetas are read first, then p1, then p2."""
    path = tmp_path / "t.json"
    path.write_text(content)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_trace(path)
    for command in ("minimize", "blowup"):
        assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: cannot load trace {path}: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def test_stdout_carries_only_data(perturbed_trace_file, branched_trace_file, tmp_path, capsys):
    assert main(["blowup", perturbed_trace_file, "--radii", "0.4,0.2,0.1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["rounded_N"] == 1.5
    assert captured.err.startswith("detected class: swap")
    argv = ["minimize", branched_trace_file, "--out", str(tmp_path / "f.csv"), "--oracle"]
    assert main([*argv, "--oracle-tol", "1e-12"]) == 3
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "class", "energy", "N0", "field dump", "oracle gap"]
    assert captured.err.splitlines() == [
        "detected class: swap (separation 2)", "oracle gap exceeds 1e-12"]


@pytest.mark.parametrize(
    "argv",
    [["minimize", "--out", "{dir}/f.csv"], ["minimize", "--oracle", "--out", "{dir}/f.csv"],
     ["blowup", "--out", "{dir}/report.json"]],
    ids=["minimize", "minimize-oracle", "blowup"],
)
def test_each_command_lifts_once(perturbed_trace_file, tmp_path, monkeypatch, argv):
    """minimize decides the class; the class line, the dichotomy check and
    the oracle read its result instead of tracking the trace again."""
    calls = []
    track = minimizer._track_selection

    def counted(trace):
        calls.append(trace)
        return track(trace)

    monkeypatch.setattr(minimizer, "_track_selection", counted)
    command, *rest = argv
    assert main([command, perturbed_trace_file, *(a.format(dir=tmp_path) for a in rest)]) == 0
    assert len(calls) == 1


def test_blowup_follows_minimize_on_one_collision(tmp_path, capsys):
    """Double loop e^(3it/2) + e^(5it/2): the sheets meet at theta = pi only,
    so minimize compares both classes and blowup takes its choice."""
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = sum(np.stack([np.cos(nu * cover), np.sin(nu * cover)], axis=1) for nu in (1.5, 2.5))
    path = str(tmp_path / "one_collision.json")
    save_trace(BoundaryTrace.from_values(loop[:n], loop[n:]), path)
    assert main(["minimize", path, "--out", str(tmp_path / "f.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "class: swap"
    assert captured.out.splitlines()[2].startswith("alt-energy: ")
    assert captured.err == "detected class: ambiguous (sheets collide)\n"

    out = tmp_path / "report.json"
    assert main(["blowup", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "detected class: ambiguous (sheets collide)\n"
    report = json.loads(out.read_text())
    assert report["continuation"] == "swap"
    assert report["rounded_N"] == 1.5


def test_catalog_reads_back_through_the_cli(tmp_path, capsys):
    """Every entry of enumerate_entries(8, 0), sampled on the unit circle at
    n = 256: at 64x256 blowup reads the entry's N and continuation, and
    minimize prints its N0. A lift that continues the nearest point reads
    entry 51 (identity, N = 3, sheets 0.016 apart) as swap."""
    th = 2 * np.pi * np.arange(256) / 256
    path = tmp_path / "entry.json"
    misread = []
    for index, entry in enumerate(enumerate_entries(8, 0)):
        sheets = (sheet_eval(t, entry.N, 1.0, th) for t in (entry.t1, entry.t2))
        save_trace(BoundaryTrace.from_values(*sheets), path)
        assert main(["minimize", str(path), "--out", str(tmp_path / "f.csv")]) == 0, index
        N0 = float(_n0_line(capsys).split()[1])
        assert main(["blowup", str(path)]) == 0, (index, capsys.readouterr().err)
        report = json.loads(capsys.readouterr().out)
        if (N0, report["rounded_N"], report["continuation"]) != \
                (entry.N, entry.N, entry.continuation.value):
            misread.append(index)
    assert index == 79 and not misread


@pytest.mark.parametrize("kind", [Continuation.SWAP, Continuation.IDENTITY],
                         ids=lambda kind: kind.value)
def test_tiny_data_keeps_its_class(tmp_path, capsys, kind):
    """Below about 1e-162 the squares of the sheet gaps underflow unless
    each gap is taken at its own power of two. At 1e-165, 1e-200 and
    1e-300 both commands print the class detected at scale 1, and either
    exit 2 with a typed error or answer as at scale 1: none exits 0 with
    frequency 0."""
    trace = random_trace(np.random.default_rng(5), kind)
    path = tmp_path / "tiny.json"
    answers = {}
    for scale in (1.0, 1e-165, 1e-200, 1e-300):
        save_trace(BoundaryTrace.from_values(scale * trace.p1, scale * trace.p2), path)
        for command in ("minimize", "blowup"):
            code = main([command, str(path), "--out", str(tmp_path / "out")])
            out, err = capsys.readouterr()
            err = err.splitlines()
            assert err[0].startswith(f"detected class: {kind.value} (separation ")
            if command == "minimize" and code == 0:
                answer = out.splitlines()[0], _n0_line_of(out).split()[1]
            elif command == "blowup" and code == 0:
                report = json.loads((tmp_path / "out").read_text())
                answer = report["rounded_N"], report["continuation"]
            else:
                answer = err[-1].split(":")[1]
            if scale == 1.0:
                answers[command] = code, answer
            else:
                typed = re.fullmatch(r"error: [A-Z]\w+: .+", err[-1]) is not None
                assert (code == 2 and typed) or (code, answer) == answers[command]


@pytest.mark.parametrize("command", ["minimize", "blowup"])
@pytest.mark.parametrize("kind", [Continuation.SWAP, Continuation.IDENTITY],
                         ids=lambda kind: kind.value)
def test_folding_warning_decides_no_exit_code(tmp_path, capsys, kind, command):
    """The folded-mode warning is only a diagnostic: at 1e-300, 1e156 and
    1e160 a 16-sample trace on a 16x8 grid prints scale 1's warning line,
    bit for bit, and then either answers as at scale 1 or exits 2 with a
    typed error, never with an error of the warning's own arithmetic. An
    answer is the exit code and the output, or for a failure its type: the
    tuples a NoCatalogMatch names keep only the digits that the
    data's rounding at the scale leaves. Both draws' blowup answers at
    every scale."""
    trace = random_trace(np.random.default_rng(5), kind, n=16)
    path = tmp_path / "trace.json"
    out = tmp_path / "out"
    argv = [command, str(path), "--nr", "16", "--ntheta", "8", "--out", str(out)]
    argv += ["--radii", "0.5,0.25"] if command == "blowup" else []
    runs = []
    for scale in (1.0, 1e-300, 1e156, 1e160):
        save_trace(BoundaryTrace.from_values(scale * trace.p1, scale * trace.p2), path)
        code = main(argv)
        stdout, err = capsys.readouterr()
        err = err.splitlines()
        if code == 0:
            answer = stdout.splitlines()[0] if command == "minimize" else out.read_text()
        else:
            answer = re.fullmatch(r"error: ([A-Z]\w+): .+", err.pop())
            answer = answer and answer[1]
        runs.append((code, answer, err))
    (code, answer, err), *scaled = runs
    assert err[-1].startswith("warning: folded modes: ")
    for got in scaled:
        assert got[2][-1] == err[-1]
        assert got[:2] == (code, answer) or (got[0] == 2 and got[1] is not None)
    if command == "blowup":
        # swap: frequency 0 at scale 1, read off the spectrum at every scale;
        # identity: the rescale at the spectrum's unit binade fails its catalog check
        assert all(got[:2] == (code, answer) for got in scaled)


def test_detected_class_only_when_minimize_detects_it(perturbed_trace_file, tmp_path, capsys):
    for command, out in (("minimize", "f.csv"), ("blowup", "report.json")):
        argv = [command, perturbed_trace_file, "--out", str(tmp_path / out)]
        assert main([*argv, "--class", "swap"]) == 0
        assert capsys.readouterr().err == ""
        # a run that fails before minimize decides prints only the error
        assert main([*argv, "--nr", "2"]) == 2
        assert capsys.readouterr().err == "error: GridTooCoarse: n_r must be >= 4, got 2\n"

    n = 128
    th = 2 * np.pi * np.arange(n) / n
    p1 = np.stack([np.cos(th), np.sin(th)], axis=1)
    path = tmp_path / "collide.json"
    save_trace(BoundaryTrace.from_values(p1, p1 * [1, -1]), path)  # collides twice
    for command in ("minimize", "blowup"):
        assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: AmbiguousClass: 2 collision events admit more than the two canonical "
            "splittings; pass the class explicitly\n"
        )


def _n0_line_of(out: str) -> str:
    return next(line for line in out.splitlines() if line.startswith("N0:"))


def _n0_line(capsys):
    return _n0_line_of(capsys.readouterr().out)


def test_minimize_prints_n0_from_the_spectrum(tmp_path, capsys):
    """N0 is 0 when the constant mode is present, else the lowest present
    mode; the profile's linear extrapolation is not printed."""
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    center = np.array([0.8, -0.3])
    offset = tmp_path / "offset.json"
    save_trace(BoundaryTrace.from_values(center + 0.4 * z, center - 0.4 * z), offset)
    assert main(["minimize", str(offset), "--out", str(tmp_path / "a.csv")]) == 0
    assert _n0_line(capsys).startswith("N0: 0  monotonicity defect: ")

    cover = np.concatenate([th, th + 2 * np.pi])
    loop = sum(a * np.stack([np.cos(nu * cover), np.sin(nu * cover)], axis=1)
               for nu, a in ((1.5, 1.0), (3.5, 0.1)))
    branched = tmp_path / "branched.json"
    save_trace(BoundaryTrace.from_values(loop[:n], loop[n:]), branched)
    assert main(["minimize", str(branched), "--out", str(tmp_path / "b.csv")]) == 0
    assert _n0_line(capsys).startswith("N0: 1.5  monotonicity defect: ")


def test_blowup_accepts_sheets_within_fit_tolerance(tmp_path, capsys):
    """3/2 sheet plus a 1e-3 degree-3 sheet: the entry is the 3/2 mode, its
    slit values opposite, so the swap seam closes at 3/2, and the degree-3
    sheet shows in the residual alone."""
    path = tmp_path / "trace.json"
    save_trace(_branched_trace_with_mode(256, 6), path)
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "detected class: swap (separation 2)\n"
    report = json.loads(out.read_text())
    assert report["rounded_N"] == 1.5
    assert report["continuation"] == "swap"
    assert report["residual"] < 1e-4


@pytest.mark.parametrize("radii", ["0", "0.4,-0.1", "0.4,nan", "0.4,nope", "1.5", "0.4,0.4"])
def test_blowup_checks_radii_before_minimize(perturbed_trace_file, tmp_path, monkeypatch,
                                            capsys, radii):
    """Invalid radii exit 2 before minimize runs, on frequency-0 data too."""
    calls = []
    real = cli.minimize

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "minimize", counted)
    n = 128
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    const = tmp_path / "const.json"
    save_trace(BoundaryTrace.from_values([1.0, 0.0] + 0.3 * z, [1.0, 0.0] - 0.3 * z), const)
    for trace in (perturbed_trace_file, str(const)):
        out = tmp_path / "report.json"
        assert main(["blowup", trace, "--radii", radii, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
    assert calls == []
    assert main(["blowup", str(const), "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


# SHA-256 of the blow-up report, and of sidecar + CSV of the limit's dump,
# for conformal_swap_trace(default_rng(1)) at 32x128 with the default radii,
# pinned when the blow-up became the exact rescale of the spectrum, the
# report's again when its entry became the limit's lowest mode (x86-64,
# numpy 2)
GOLDEN_BLOWUP_REPORT_SHA256 = "f168ea9ab19b159995d4a0b5dff40ae8232c142812bb57f11989a1a89721c970"
GOLDEN_BLOWUP_DUMP_SHA256 = "74f635b0f994105d6fe030c7d2e6b4aa40db5acb5ca24dd93f476b038b3c5660"


def _blowup_run(argv, capsys):
    """Exit code, stdout and stderr of one qdisk run."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def nr_traces(tmp_path_factory):
    """The golden blow-up trace, which reads N = 3/2 swap, and a random
    swap trace, whose limit is not conformal (exit 3)."""
    directory = tmp_path_factory.mktemp("nr")
    paths = directory / "golden.json", directory / "random.json"
    save_trace(conformal_swap_trace(np.random.default_rng(1)), paths[0])
    save_trace(random_trace(np.random.default_rng(3), Continuation.SWAP), paths[1])
    return [str(path) for path in paths]


@pytest.mark.parametrize("nr", [4, 8, 10, 24, 30, 33, 64, 256])
def test_blowup_report_does_not_depend_on_nr(nr_traces, capsys, nr):
    """The blow-up reads the spectrum at the exact radii, the catalog fit's
    included, so its exit code, stdout and stderr at --ntheta 128 are those
    at --nr 32 (where each fit radius is a ring) on any number of rings:
    --nr sets only the grid of --dump-fields."""
    runs = {}
    for n_r in (nr, 32):
        runs[n_r] = [_blowup_run(["blowup", trace, "--nr", str(n_r), "--ntheta", "128"], capsys)
                     for trace in nr_traces]
    assert runs[nr] == runs[32]
    (golden_rc, golden_out, _), (random_rc, _, random_err) = runs[nr]
    assert golden_rc == 0
    assert hashlib.sha256(golden_out.encode()).hexdigest() == GOLDEN_BLOWUP_REPORT_SHA256
    assert random_rc == 3
    assert random_err.splitlines()[-1].startswith("error: NoCatalogMatch: ")


def _four_tuples(line: str) -> list:
    """The FourTuples a message names, as (a, b, c, d) of floats."""
    fields = re.findall(r"FourTuple\(a=(\S+), b=(\S+), c=(\S+), d=(\S+?)\)", line)
    return [FourTuple(*map(float, t)) for t in fields]


def test_blowup_entry_does_not_depend_on_ntheta(nr_traces, capsys):
    """The random swap trace's limit is read off its lowest mode, not fitted
    on the grid's angles: at --ntheta 64, 128, 256 and 1024 blowup exits 3
    with one stderr, and its second sheet is the first negated, bit for
    bit."""
    runs = [_blowup_run(["blowup", nr_traces[1], "--nr", "32", "--ntheta", str(n)], capsys)
            for n in (64, 128, 256, 1024)]
    assert all(run == runs[0] for run in runs)
    rc, out, err = runs[0]
    assert (rc, out) == (3, "")
    t1, t2 = _four_tuples(err.splitlines()[-1])
    assert repr(t2) == repr(t1.negated())


def test_blowup_agrees_with_n0(tmp_path, capsys):
    """The double loop 1e-2 z^(1/2) + z^(3/2): minimize prints N0: 0.5. At
    the default radii the limit's profile still reads 1.47, so blowup exits
    3 and names the degree 0.5 of its lowest mode; at 1e-6 it reads the
    entry of degree 0.5 swap."""
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    cover = np.concatenate([th, th + 2 * np.pi])
    loop = sum(a * np.stack([np.cos(nu * cover), np.sin(nu * cover)], axis=1)
               for nu, a in ((0.5, 1e-2), (1.5, 1.0)))
    path = tmp_path / "weak.json"
    save_trace(BoundaryTrace.from_values(loop[:n], loop[n:]), path)
    assert main(["minimize", str(path), "--out", str(tmp_path / "f.csv")]) == 0
    assert _n0_line(capsys).startswith("N0: 0.5  ")
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: NoCatalogMatch: fitted degree 1.4720 is not within 0.1 of the limit's degree 0.5")
    assert not out.exists()
    assert main(["blowup", str(path), "--radii", "0.4,1e-6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["rounded_N"], report["continuation"]) == (0.5, "swap")


def test_blowup_reads_small_radii_exactly(tmp_path, capsys):
    """A radius of 1e-50 reads the golden trace's N = 3/2 swap. At 1e-200
    the rescale's powers r^(3/2) square to below the float range: the run
    exits 2 with one ZeroEnergy line, no traceback and no report."""
    trace = tmp_path / "t.json"
    save_trace(conformal_swap_trace(np.random.default_rng(1)), trace)
    out = tmp_path / "report.json"
    argv = ["blowup", str(trace), "--nr", "32", "--ntheta", "128", "--out", str(out)]
    assert main([*argv, "--radii", "0.4,1e-50"]) == 0
    report = json.loads(out.read_text())
    assert (report["rounded_N"], report["continuation"]) == (1.5, "swap")
    assert abs(report["fitted_N"] - 1.5) <= 1e-12
    capsys.readouterr()
    out.unlink()
    assert main([*argv, "--radii", "0.4,1e-200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "detected class: swap (separation 0.909)",
        "error: ZeroEnergy: rescaled spectrum has numerically zero energy",
    ]
    assert not out.exists()


def test_blowup_names_a_repeated_radius(perturbed_trace_file, tmp_path, monkeypatch, capsys):
    """blowup sorts its radii itself, so a repeated radius is named as such,
    not as radii out of order; it exits 2 before minimize runs."""
    calls = []
    monkeypatch.setattr(cli, "minimize", lambda *args, **kwargs: calls.append(args))
    for radii, twice in (("0.2,0.2", "0.2"), ("0.4,0.1,0.4", "0.4")):
        assert main(["blowup", perturbed_trace_file, "--radii", radii]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: radius {twice} is given twice\n"
    assert calls == []


def test_blowup_golden_bytes(tmp_path):
    trace = tmp_path / "t.json"
    save_trace(conformal_swap_trace(np.random.default_rng(1)), trace)
    grid = ["--nr", "32", "--ntheta", "128"]
    report = tmp_path / "report.json"
    assert main(["blowup", str(trace), *grid, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_BLOWUP_REPORT_SHA256
    dumped = tmp_path / "dumped.json"
    prefix = tmp_path / "P"
    assert main(["blowup", str(trace), *grid, "--out", str(dumped),
                 "--dump-fields", str(prefix)]) == 0
    assert dumped.read_bytes() == report.read_bytes()
    limit = tmp_path / "P_r0.1.csv"
    data = limit.with_suffix(".json").read_bytes() + limit.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_BLOWUP_DUMP_SHA256
    assert sorted(p.name for p in tmp_path.glob("P_r*.csv")) == [
        "P_r0.1.csv", "P_r0.2.csv", "P_r0.4.csv"]


# SHA-256 of sidecar + CSV of the dump, of the profile and of stdout of
# `qdisk minimize` at 40x16 on random_trace(default_rng(5), kind, n=64,
# kmax=20), pinned before the extension added runs of consecutive modes
# through slices (x86-64, numpy 2)
GOLDEN_MINIMIZE_SHA256 = {
    Continuation.SWAP: (
        "1b42b7944a5f68deb38771e584f6870eaf1caece864b597d99e107f1618fb879",
        "c9695e434978bab7dd5fdb467a566923d8ac830473486d9502e0582420b5f17d",
        "be8cd0c34b7682eeeb8ec2a6ffaee8c5b45ab919c2e84777d0fb1cb10e14609d",
    ),
    Continuation.IDENTITY: (
        "f0245f539c60ed656a2ad019960b81f2cddd4076da13c8093a6d63b3ffd6b13e",
        "94a53ce5da9cf3d6f9ff2d25351dcdba9a2bfa83470c050954e185efdb9953c0",
        "76fe5df8c403c539dd26628cc4f6a0eebd2047476a3e9df926ee84c85f000c1e",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_MINIMIZE_SHA256, key=lambda k: k.value))
def test_minimize_golden_bytes_on_consecutive_modes(tmp_path, monkeypatch, capsys, kind):
    """Modes 1..2*kmax of the double loop (swap) or 1..kmax of each loop
    (identity), all present: every half period of them is a run of
    consecutive modes, and on 16 angles most lie above the Nyquist, so odd
    half periods fill mirrored bins in descending order, over two ring
    blocks."""
    trace = random_trace(np.random.default_rng(5), kind, n=64, kmax=20)
    lift = minimizer.lift_boundary(trace)
    assert lift.kind is kind
    spectrum = minimizer.analyze_spectrum(lift)
    modes = 40 if kind is Continuation.SWAP else 20
    for cos, sin in zip(spectrum.cos_coeffs, spectrum.sin_coeffs):
        present = minimizer._present(cos, sin, spectrum.coeff_eps)
        assert present.tolist() == list(range(1, modes + 1))
    monkeypatch.chdir(tmp_path)
    save_trace(trace, "t.json")
    assert main(["minimize", "t.json", "--nr", "40", "--ntheta", "16", "--out", "f.csv"]) == 0
    stdout = capsys.readouterr().out
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (
        Path("f.json").read_bytes() + Path("f.csv").read_bytes(),
        Path("f_profile.csv").read_bytes(),
        stdout.encode(),
    ))
    assert digests == GOLDEN_MINIMIZE_SHA256[kind]


# The first input of each benchmark workload that writes a field dump, as
# perfbench/run.py invokes it with its outputs in D/ (the blow-up also dumps
# its fields): the make_traces arguments, the command line, and the SHA-256
# of every file written, as BENCH_16.json records them under outputs.per_input,
# apart from the blow-up's, pinned again when it moved to the exact rescales
# of the spectrum, and its report's once more when its entry became the
# limit's lowest mode.
BENCH_OUTPUTS = {
    "broad-0": (
        ("broadband", 101, 1024, 1),
        ["minimize", "--nr", "256", "--ntheta", "1024", "--out", "D/field.csv"],
        {
            "field.csv": "781b34a528d6bd6fbeff0e0d714286579da1e288d14a923db851a5c3b61e1675",
            "field.json": "429e61e04efb551a384c1e44d7a06b00e3afb264dbbfca60e225c987e5bdd7c7",
            "field_profile.csv": "5b08fe695e3729a443ebdc1981313b41ee354a219c44d3b804cb4455a071709e",
        },
    ),
    "oracle-0": (
        ("band", 101, 256, 8),
        ["minimize", "--nr", "64", "--ntheta", "256", "--oracle", "--out", "D/field.csv"],
        {
            "field.csv": "03277337c9543b45aa9a08aea524fd70ad609a3593d04913d244f9a460dc0c4d",
            "field.json": "c7e21ed70d7850053c6c6b823ed4e4778e57c7ffcee0dd0bcee348bc0632cb95",
            "field_profile.csv": "11910f31354bd78b9aad5c1d0e2c5ab08c317341e230c20da08ba67b276c8c8e",
        },
    ),
    "blowup-dump-0": (
        ("band", 101, 1024, 8),
        ["blowup", "--nr", "256", "--ntheta", "1024", "--radii", "0.4,0.2,0.1",
         "--out", "D/report.json", "--dump-fields", "D/F"],
        {
            "F_r0.1.csv": "63f71707d673fae901421f1271cb7ed7bc059c8b8ed57e305db2fba67429ebf0",
            "F_r0.1.json": "429e61e04efb551a384c1e44d7a06b00e3afb264dbbfca60e225c987e5bdd7c7",
            "F_r0.2.csv": "f316ab3565ccadeeb4cf3fa1544a276addfae38165b75a5aab24741e0b361d29",
            "F_r0.2.json": "429e61e04efb551a384c1e44d7a06b00e3afb264dbbfca60e225c987e5bdd7c7",
            "F_r0.4.csv": "eea5e3ea2a940801121b26ef49a9d4c9071ffc948a52160fd4ab353c2aeb130e",
            "F_r0.4.json": "429e61e04efb551a384c1e44d7a06b00e3afb264dbbfca60e225c987e5bdd7c7",
            "report.json": "d8557ed62f055bc504dc6cf378cd598fabf6d611f9a685b14bfe7a524918c7f8",
        },
    ),
}


@pytest.mark.parametrize("name", list(BENCH_OUTPUTS))
def test_benchmark_outputs_keep_their_bytes(tmp_path, monkeypatch, name):
    """Dumps at the benchmark's sizes, up to 256x1024 with blocks of 8 and
    32 rings and a one-ring tail, keep the bytes the benchmark recorded."""
    traces, (command, *options), digests = BENCH_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)
    perfbench_inputs(monkeypatch).make_traces(*traces)[0].write(Path("trace.json"))
    Path("D").mkdir()
    assert main([command, "trace.json", *options]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(Path("D").iterdir())}
    assert written == digests


# SHA-256 of the oracle's relaxed sheets (sheet 1, then sheet 2) and of the
# stdout of `qdisk minimize --oracle` at 64x256, on the first input of the
# minimize-oracle-64 workload (swap) and on random_trace(default_rng(5),
# IDENTITY), pinned while the oracle read its boundary ring from the
# spectrum (x86-64, numpy 2)
GOLDEN_ORACLE_SHA256 = {
    Continuation.SWAP: (
        "64ea34e350d0debcc8522382aa73385f77e7b14688dc56283f8cbbcb4b7895b1",
        "54e308fb7e398896b6b23ff757b9f690bda7bef0a427933873ac40ecd73d8dc1",
    ),
    Continuation.IDENTITY: (
        "578f85163c790a0c5f3c845319505a39ebe677e55f81ad64904ce9b696ac586b",
        "4d9c81dd0c26f56ef7e10441864d44ce0e9309cf40bd1dab876297b459572096",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_ORACLE_SHA256, key=lambda k: k.value))
def test_oracle_golden_bytes(tmp_path, monkeypatch, capsys, kind):
    """The relaxed field and the `oracle gap:` line keep their bytes."""
    monkeypatch.chdir(tmp_path)
    if kind is Continuation.SWAP:
        perfbench_inputs(monkeypatch).make_traces("band", 101, 256, 8)[0].write(Path("t.json"))
    else:
        save_trace(random_trace(np.random.default_rng(5), kind), "t.json")
    grid = ["--nr", "64", "--ntheta", "256"]
    assert main(["minimize", "t.json", *grid, "--oracle", "--out", "f.csv"]) == 0
    stdout = capsys.readouterr().out
    relaxed = minimizer.relax_oracle(minimize(load_trace("t.json"), PolarGrid(64, 256)).field)
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (
        relaxed.sheet1.tobytes() + relaxed.sheet2.tobytes(),
        stdout.encode(),
    ))
    assert digests == GOLDEN_ORACLE_SHA256[kind]


def test_blowup_warns_when_mass_identity_misses(perturbed_trace_file, tmp_path, monkeypatch,
                                                capsys):
    """The criterion-5 trace (3/2 plus 0.2 times 7/2) blown up at r = 0.9
    alone has an unconverged limit: its H(1), the closed form 1/N(0.9) =
    0.6447, misses 1/N = 2/3 by 3.3%, and one stderr line says so. At the
    default radii it meets the identity and gets no warning; so does a
    broadband trace at 64x256, whose exact limit reads N within 0.005 of
    1/2 and H(1) within 1e-4 of 2."""
    out = tmp_path / "report.json"
    assert main(["blowup", perturbed_trace_file, "--radii", "0.9", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "detected class: swap (separation 1.6)",
        "warning: boundary mass 0.6447 differs from 1/N 0.6667 by 3.3%",
    ]
    report = json.loads(out.read_text())
    weights = np.array([1.0, 0.2**2]) * 0.9 ** np.array([3, 7])  # |c_k|^2 r^(2 nu_k)
    closed = weights.sum() / (weights @ [1.5, 3.5])
    assert (report["rounded_N"], report["1/N"]) == (1.5, 1 / 1.5)
    assert abs(report["boundary_mass"] - closed) <= 1e-12
    assert main(["blowup", perturbed_trace_file, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "detected class: swap (separation 1.6)\n"

    path = tmp_path / "broadband.json"
    perfbench_inputs(monkeypatch).make_traces("broadband", 1, 256, 2)[0].write(path)
    assert main(["blowup", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "detected class: swap (separation 2.95)\n"
    report = json.loads(out.read_text())
    assert (report["rounded_N"], report["1/N"]) == (0.5, 2.0)
    assert abs(report["fitted_N"] - 0.5) <= 0.005
    assert abs(report["boundary_mass"] - 2.0) <= 1e-4


def test_blowup_reports_folded_modes_at_frequency_zero(tmp_path, capsys):
    """N0 = 0 data: blowup writes the frequency-0 note, and mode 40 of each
    sheet's loop (128 samples), above the Nyquist mode 32 of a 64-angle
    grid, is still reported."""
    n = 128
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    wiggle = 1e-3 * np.stack([np.cos(40 * th), np.sin(40 * th)], axis=1)
    path = tmp_path / "const.json"
    save_trace(BoundaryTrace.from_values([1.0, 0.0] + 0.3 * z + wiggle,
                                         [1.0, 0.0] - 0.3 * z + wiggle), path)
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--nr", "32", "--ntheta", "64", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "detected class: identity (separation 0.6)"
    assert err[1].startswith("warning: folded modes: 2 at or above the grid's angular Nyquist")
    assert len(err) == 2
    assert json.loads(out.read_text())["note"] == "value at origin is nonzero; frequency 0"


def test_forced_swap_keeps_the_detected_sheet_order(monkeypatch, tmp_path, capsys):
    """On separated swap data --class swap builds the detected double loop:
    the dump, its sidecar and the profile equal those of the run without
    --class, and so does the energy."""
    path = tmp_path / "band.json"
    perfbench_inputs(monkeypatch).make_traces("band", 101, 256, 8)[0].write(path)
    outs = []
    for name, extra in (("auto", []), ("forced", ["--class", "swap"])):
        assert main(["minimize", str(path), "--out", str(tmp_path / f"{name}.csv"), *extra]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert outs[0][:3] == outs[1][:3]  # class, energy, N0
    for suffix in (".csv", ".json", "_profile.csv"):
        auto, forced = (tmp_path / f"{name}{suffix}" for name in ("auto", "forced"))
        assert auto.read_bytes() == forced.read_bytes()


def test_blowup_reports_non_conformal_fit(tmp_path, capsys):
    """The first criterion-4 trace: the lowest mode of its exact limit at
    r = 0.1 gives non-conformal tuples, and blowup says so on one line, exit
    3."""
    path = tmp_path / "crit4.json"
    save_trace(random_trace(np.random.default_rng(2), Continuation.IDENTITY), path)
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "detected class: identity (separation 0.473)\n"
        "error: NoCatalogMatch: limit tuples not conformal at tol=0.05: "
        "FourTuple(a=0.2355999841204592, b=-0.0818447394826626, c=-0.10357779255132235, "
        "d=-0.28561349528971747), FourTuple(a=-0.09009685638143754, b=0.02512977064201901, "
        "c=-0.12030825818090277, d=-0.37493668611509634)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, twice",
    [(["minimize", "{trace}", "--out", "{dir}/f.json"], "f.json"),
     (["blowup", "{trace}", "--out", "{dir}/P_r0.4.json", "--dump-fields", "{dir}/P"],
      "P_r0.4.json")],
    ids=["csv-is-its-sidecar", "report-is-a-dump-sidecar"],
)
def test_outputs_must_be_distinct(perturbed_trace_file, tmp_path, monkeypatch, capsys,
                                  argv, twice):
    """Two outputs that resolve to one path exit 2 before minimize runs and
    write nothing."""
    calls = []
    monkeypatch.setattr(cli, "minimize", lambda *args, **kwargs: calls.append(args))
    before = sorted(tmp_path.iterdir())
    assert main([a.format(trace=perturbed_trace_file, dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output {tmp_path / twice} would be written twice\n"
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "extra, out, expected",
    [(["--radii", "0.02,1"], "f.csv",
      ["error: GridTooCoarse: radius 0.02 is below 3 grid rings"]),
     ([], "missing/f.csv",
      ["detected class: swap (separation 2)", "error: [Errno 2] No such file or directory"])],
    ids=["grid-too-coarse", "unwritable-out"],
)
def test_minimize_exit_2_prints_no_results(branched_trace_file, tmp_path, capsys,
                                          extra, out, expected):
    """A minimize that fails, at a profile radius before the trace is read or
    at the dump after the minimizer ran, leaves stdout empty."""
    argv = ["minimize", branched_trace_file, "--out", str(tmp_path / out), *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == len(expected)
    assert err[:-1] == expected[:-1]
    assert err[-1].startswith(expected[-1])


def test_blowup_dump_fields_at_frequency_zero(tmp_path, capsys):
    """Frequency-0 data has no blow-up to dump: --dump-fields says so on one
    stderr line and writes nothing; the report and exit code are those of
    the run without the flag."""
    n = 128
    th = 2 * np.pi * np.arange(n) / n
    z = np.stack([np.cos(th), np.sin(th)], axis=1)
    path = tmp_path / "const.json"
    save_trace(BoundaryTrace.from_values([1.0, 0.0] + 0.3 * z, [1.0, 0.0] - 0.3 * z), path)
    assert main(["blowup", str(path)]) == 0
    plain = capsys.readouterr()
    assert main(["blowup", str(path), "--dump-fields", str(tmp_path / "P")]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert json.loads(captured.out)["note"] == "value at origin is nonzero; frequency 0"
    assert captured.err == plain.err + (
        "warning: --dump-fields ignored: frequency 0 has no blow-up to dump\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["const.json"]
