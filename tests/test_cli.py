import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_trace, single_mode_trace

from qdisk import cli, minimizer
from qdisk.cli import main
from qdisk.field import load_field
from qdisk.forms import Continuation
from qdisk.minimizer import BoundaryTrace, load_trace, save_trace


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


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "nan,0,0,0"],
        ["classify", "1,0,0,inf"],
        ["classify", "1,0,0,1", "--tol", "nan"],
        ["classify", "1,0,0,1", "--tol=-1"],
    ],
)
def test_classify_rejects_non_finite_input(argv, capsys):
    """NaN slipped past the defect gate (nan > tol is False) and printed
    not-conformal with exit 1."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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
    """Every class of the table comes from match_pair; the bytes stay those
    of the exact slit-value derivation it replaced."""
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


def test_blowup_bad_radii(perturbed_trace_file):
    assert main(["blowup", perturbed_trace_file, "--radii", "0.4,0.01"]) == 2
    assert main(["blowup", perturbed_trace_file, "--radii", "0.4,nope"]) == 2


def test_missing_trace_file():
    assert main(["minimize", "/nonexistent/trace.json"]) == 2


def test_usage_errors():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


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


@pytest.mark.parametrize(
    "content", ['{"theta": 1}', "[1, 2, 3]", '[{"theta": 0, "p1": {"x": 1}, "p2": [0, 1]}]']
)
def test_trace_that_is_not_an_array_of_rows(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        load_trace(path)
    for command in ("minimize", "blowup"):
        assert main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot load trace {path}")


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


def _n0_line(capsys):
    return next(line for line in capsys.readouterr().out.splitlines() if line.startswith("N0:"))


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
    """3/2 sheet plus a 1e-3 degree-3 sheet: the fitted slit values are
    opposite within the fit tolerance, so the swap seam closes at 3/2."""
    path = tmp_path / "trace.json"
    save_trace(_branched_trace_with_mode(256, 6), path)
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "detected class: swap (separation 2)\n"
    report = json.loads(out.read_text())
    assert report["rounded_N"] == 1.5
    assert report["continuation"] == "swap"
    assert report["residual"] < 1e-4


@pytest.mark.parametrize("radii", ["0.001", "0.4,0.01", "0.4,nope", "1.5", "0.4,0.4"])
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


def _perfbench_inputs(monkeypatch):
    """perfbench/inputs.py, loaded by path with bytecode writing off."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
    spec.loader.exec_module(inputs)
    return inputs


def test_blowup_warns_when_mass_identity_misses(perturbed_trace_file, tmp_path, monkeypatch,
                                                capsys):
    """A broadband trace at 64x256 has an unconverged limit at r = 0.1: H(1)
    misses 1/N by 3.6%, one stderr line says so, the report is unchanged.
    The criterion-5 trace meets the identity and gets no warning."""
    path = tmp_path / "broadband.json"
    _perfbench_inputs(monkeypatch).make_traces("broadband", 1, 256, 2)[0].write(path)
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "detected class: swap (separation 2.95)",
        "warning: boundary mass 1.927 differs from 1/N 2 by 3.6%",
    ]
    report = json.loads(out.read_text())
    assert (report["rounded_N"], report["1/N"]) == (0.5, 2.0)
    assert abs(report["boundary_mass"] - 1.9270927807466325) <= 1e-12
    assert main(["blowup", perturbed_trace_file, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "detected class: swap (separation 1.6)\n"


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
    _perfbench_inputs(monkeypatch).make_traces("band", 101, 256, 8)[0].write(path)
    outs = []
    for name, extra in (("auto", []), ("forced", ["--class", "swap"])):
        assert main(["minimize", str(path), "--out", str(tmp_path / f"{name}.csv"), *extra]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert outs[0][:3] == outs[1][:3]  # class, energy, N0
    for suffix in (".csv", ".json", "_profile.csv"):
        auto, forced = (tmp_path / f"{name}{suffix}" for name in ("auto", "forced"))
        assert auto.read_bytes() == forced.read_bytes()


def test_blowup_reports_non_conformal_fit(tmp_path, capsys):
    """The first criterion-4 trace: its limit at r = 0.1 on 64x256 fits
    non-conformal tuples, and blowup says so on one line, exit 3."""
    path = tmp_path / "crit4.json"
    save_trace(random_trace(np.random.default_rng(2), Continuation.IDENTITY), path)
    out = tmp_path / "report.json"
    assert main(["blowup", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "detected class: identity (separation 0.473)\n"
        "error: NoCatalogMatch: fitted tuples not conformal at tol=0.05: "
        "FourTuple(a=0.23549591328727218, b=-0.08180858646566762, c=-0.10353203946177644, "
        "d=-0.28548733214698546), FourTuple(a=-0.09005705818303715, b=0.02511867014819565, "
        "c=-0.12025511479587704, d=-0.37477106652279446)\n"
    )
    assert not out.exists()
