"""Self-check of the benchmark: python3 -m pytest perfbench

Short runs of every workload on tiny grids, with tracing off and on, show
that each metric named in BENCHMARK.json is printed with its unit, that no
invocation fails, and that the traced replay reproduces the CLI's answers
and files (a mismatch counts as a failure).
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import layers
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "minimize-oracle-64": dict(samples=64, n_r=16, n_theta=64, inputs=2),
    "minimize-broadband-256": dict(samples=64, n_r=32, n_theta=128),
    "blowup-256": dict(samples=128, n_r=32, n_theta=128, inputs=2),
}
# spans each workload's traced run must contain
MAIN_SPANS = {
    "minimize-oracle-64": {"minimizer.oracle", "kernels.sweep", "kernels.energy", "field.dump"},
    "minimize-broadband-256": {"minimizer.extension", "field.dump", "field.profile_csv"},
    "blowup-256": {"blowup.resample", "blowup.catalog", "blowup.report"},
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run(name, trace):
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    result, lines = run.run(wl, seed=3, seconds=0.5, trace=trace)

    assert result["failed"] == 0, lines
    assert result["correct"]
    assert any(line.startswith("error_rate 0.0 ratio ") for line in lines)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for metric, unit in wanted.items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
    if trace:
        # one replay per invocation, each checked against the CLI
        assert result["attempted"] % 2 == 0 and result["attempted"] >= 2 * wl.inputs
        (spans,) = [json.loads(line[len("spans: "):]) for line in lines
                    if line.startswith("spans: ")]
        assert MAIN_SPANS[name] | {"cli", "minimizer.lift", "minimizer.minimize"} <= set(spans)


def test_traced_run_restores_the_program():
    run._qdisk()
    import tracing
    from qdisk import _kernels, cli

    before = (cli.minimize, _kernels.gs_sweep)
    record = tracing.replay(["minimize", "no-such-trace.json"])
    assert record["rc"] == 2 and record["spans"][0][0] == "cli"
    assert (cli.minimize, _kernels.gs_sweep) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "blowup-256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    a = inputs.make_traces("band", 7, 64, 2)
    b = inputs.make_traces("band", 7, 64, 2)
    c = inputs.make_traces("band", 8, 64, 2)
    assert all(np.array_equal(x.loop(), y.loop()) for x, y in zip(a, b))
    assert not np.array_equal(a[0].loop(), c[0].loop())


@pytest.mark.parametrize("kind", ["band", "broadband"])
def test_closed_form_energy_matches_spectral_energy(kind):
    run._qdisk()
    from qdisk.minimizer import BoundaryTrace, analyze_spectrum, lift_boundary, spectral_energy

    (trace,) = inputs.make_traces(kind, 5, 128, 1)
    lift = lift_boundary(BoundaryTrace.from_values(*trace.sheets()))
    assert lift.kind.value == "swap"
    assert spectral_energy(analyze_spectrum(lift)) == pytest.approx(trace.energy(), rel=1e-12)


def test_blowup_mass_of_a_pure_sheet_is_one_over_n():
    pure = inputs.Trace(64, np.array([3]), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert pure.blowup_boundary_mass(0.1) == pytest.approx(1 / 1.5, rel=1e-14)


def test_self_times_subtract_children():
    spans = [["cli", -1, 0.0, 10.0], ["a", 0, 1.0, 4.0], ["k", 1, 2.0, 3.0],
             ["a", 0, 5.0, 6.0]]
    assert layers.self_times(spans) == {"cli": 6.0, "a": 3.0, "k": 1.0}
    assert layers.span_summary([{"spans": spans}])["a"] == {
        "calls": 2, "total_s": 4.0, "self_s": 3.0}
