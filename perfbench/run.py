"""End-to-end benchmark of ``qdisk minimize`` and ``qdisk blowup``.

Usage (from the root of a source checkout; nothing needs installing):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the boundary traces (inputs.py), which are written to a
scratch directory under ``.perfbench_work/`` before timing starts; the
program sees only those files. A fresh workload process (workload.py), with
BLAS/OpenMP pools capped at one thread, then calls ``qdisk.cli.main(argv)``
in a closed loop with one caller for S seconds. Afterwards this process
checks every invocation, prints one line per metric, the environment and
the SHA-256 of every output file, and as its last line a JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (every trace is branched, degree 3/2 unless broadband):

    minimize-oracle-64      minimize --oracle, 8 band-limited traces of 256
                            samples, 64x256 grid: the relaxation oracle and
                            its kernels dominate
    minimize-broadband-256  minimize, 1 broadband trace of 1024 samples with
                            all 1023 double-loop modes, 256x1024 grid: the
                            mode-loop extension and the field dump dominate
    blowup-256              blowup --radii 0.4,0.2,0.1, 8 band-limited traces
                            of 1024 samples, 256x1024 grid: bilinear resample
                            and quadrature reads, no dump

End-to-end metrics (``--trace 0``, tracing off):

    wall_s          median wall time of one CLI invocation
    setup_s         median time to import qdisk.cli in a fresh process
                    (11 processes, the workload process among them)
    peak_rss_mb     peak resident memory of the workload process (MiB)
    energy_rel_err  relative error of the CLI's quadrature against the
                    closed form of the generated modes, averaged over the
                    run's traces: the printed energy for minimize, and for
                    blowup the reported boundary mass H(1) of the
                    unit-energy limit (H/D of the rescaled minimizer)

wall_s and setup_s are scaled to a reference host speed: each timing is
multiplied by CALIBRATION_REF_S over the time of a fixed pure-Python loop run
next to it (workload.py). Shared hosts drift by up to 2x in speed over minutes,
which moves the loop and the program alike. The unscaled medians are printed
too.

The failed share of invocations (error rate) is printed too and is carried
by ``attempted`` / ``failed``. An invocation fails on a nonzero exit code,
energy_rel_err above 1%, a minimize dump that does not load bit-equal to
``minimize(trace, grid).field``, a missing or >1% oracle gap, a blow-up
that is not N = 3/2 with swap continuation and boundary mass within 2% of
1/N, or output bytes that differ between invocations on the same trace.

Per-layer metrics (``--trace 1``) come from a separate run that alternates
untraced invocations with traced ones (tracing.py: the same ``cli.main``
call with each layer's public functions wrapped). Each is the median
over replays of one span name's self time (``<span>_s``) or of a counter;
``cli.other_s`` is the untraced wall time minus the replay's layer time and
``trace.overhead_s`` the replay's total minus the untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_SAMPLES = 11
# nominal time of workload.py's calibration loop; scaled timings read as
# seconds on a host that runs the loop in this time
CALIBRATION_REF_S = 0.1
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ENERGY_TOL = 0.01
ORACLE_TOL = 0.01
MASS_TOL = 0.02
EXPECTED_N = 1.5
BLOWUP_RADII = (0.4, 0.2, 0.1)


@dataclass(frozen=True)
class Workload:
    command: str  # "minimize" or "blowup"
    traces: str  # "band" or "broadband"
    samples: int
    n_r: int
    n_theta: int
    inputs: int  # distinct traces per run, cycled through
    oracle: bool = False

    def argv(self, trace_path: Path) -> list[str]:
        grid = ["--nr", str(self.n_r), "--ntheta", str(self.n_theta)]
        if self.command == "blowup":
            return ["blowup", str(trace_path), *grid,
                    "--radii", ",".join(map(str, BLOWUP_RADII)), "--out", "{out}/report.json"]
        extra = ["--oracle"] if self.oracle else []
        return ["minimize", str(trace_path), *grid, *extra, "--out", "{out}/field.csv"]


WORKLOADS = {
    "minimize-oracle-64": Workload("minimize", "band", 256, 64, 256, 8, oracle=True),
    "minimize-broadband-256": Workload("minimize", "broadband", 1024, 256, 1024, 1),
    "blowup-256": Workload("blowup", "band", 1024, 256, 1024, 8),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "energy_rel_err": "ratio"}


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        check=True,
    )


def setup_samples(count: int) -> list[dict]:
    """Import and calibration times in fresh processes, after one warm-up."""
    samples = []
    for _ in range(count + 1):
        out = _child(["--setup-only"], timeout=60).stdout
        samples.append(json.loads(out))
    return samples[1:]


def _scaled(timing: float, calibration: float) -> float:
    return timing * CALIBRATION_REF_S / calibration


def _qdisk():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qdisk import field, minimizer

    return field, minimizer


def _value(stdout: str, prefix: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def _answers(stdout: str) -> list[str]:
    """Printed lines that must repeat exactly (the dump line names the path)."""
    return [line for line in stdout.splitlines() if not line.startswith("field dump:")]


class Checker:
    """Verifies invocations against references computed outside timing."""

    def __init__(self, wl: Workload, traces, paths):
        self.wl = wl
        self.traces = traces
        self.paths = paths
        # input -> (file digests, printed answers) of its verified invocation
        self.kept: dict[int, tuple] = {}
        self.errors: dict[int, list[float]] = {i: [] for i in range(len(traces))}

    def _field_problem(self, i: int, directory: Path) -> str | None:
        field, minimizer = _qdisk()
        grid = field.PolarGrid(self.wl.n_r, self.wl.n_theta)
        ref = minimizer.minimize(minimizer.load_trace(self.paths[i]), grid).field
        got = field.load_field(directory / "field.csv")
        same = (got.grid == ref.grid and got.seam is ref.seam
                and got.sheet1.tobytes() == ref.sheet1.tobytes()
                and got.sheet2.tobytes() == ref.sheet2.tobytes())
        return None if same else "dump does not load bit-equal to minimize()"

    def _error(self, i: int, inv: dict, directory: Path) -> tuple[float | None, list[str]]:
        """Closed-form relative error of the invocation's answer, and problems."""
        trace = self.traces[i]
        if self.wl.command == "minimize":
            energy = _value(inv["stdout"], "energy: ")
            if energy is None:
                return None, ["no energy line"]
            return abs(energy - trace.energy()) / trace.energy(), []
        report = json.loads((directory / "report.json").read_text())
        problems = []
        if report["rounded_N"] != EXPECTED_N or report["continuation"] != "swap":
            problems.append(f"blow-up is N={report['rounded_N']} {report['continuation']}")
        mass = report["boundary_mass"]
        if abs(mass - 1.0 / EXPECTED_N) > MASS_TOL / EXPECTED_N:
            problems.append(f"boundary mass {mass} not within 2% of 1/N")
        closed = trace.blowup_boundary_mass(min(BLOWUP_RADII))
        return abs(mass - closed) / closed, problems

    def check(self, inv: dict, directory: Path) -> list[str]:
        """Problems found with one invocation (empty when it passes)."""
        if inv["rc"] != 0:
            return [f"exit code {inv['rc']}: {inv['stderr'].strip()}"]
        i = inv["input"]
        if not inv["kept"]:
            same = (inv["files"], _answers(inv["stdout"])) == self.kept.get(i)
            return [] if same else ["output differs from the verified invocation"]
        try:
            err, problems = self._error(i, inv, directory)
            if self.wl.command == "minimize":
                problem = self._field_problem(i, directory)
                if problem:
                    problems.append(problem)
        except (OSError, ValueError, KeyError) as exc:
            return [f"cannot read the outputs: {type(exc).__name__}: {exc}"]
        if err is not None:
            self.errors[i].append(err)
            if err > ENERGY_TOL:
                problems.append(f"energy_rel_err {err:.3g} above {ENERGY_TOL}")
        if self.wl.oracle:
            gap = _value(inv["stdout"], "oracle gap: ")
            if gap is None or gap > ORACLE_TOL:
                problems.append(f"oracle gap {gap} missing or above {ORACLE_TOL}")
        if not problems:
            self.kept[i] = (inv["files"], _answers(inv["stdout"]))
        return problems

    def check_replay(self, rep: dict) -> list[str]:
        if "error" in rep:
            return [f"replay failed: {rep['error']}"]
        if rep["rc"] != 0:
            return [f"replay exit code {rep['rc']}: {rep['stderr'].strip()}"]
        if (rep["files"], _answers(rep["stdout"])) != self.kept.get(rep["input"]):
            return ["replay output or printed answers differ from the CLI's"]
        return []

    def energy_rel_err(self) -> float:
        return statistics.fmean(statistics.median(e) for e in self.errors.values())


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    WORKDIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        traces = inputs.make_traces(wl.traces, seed, wl.samples, wl.inputs)
        paths = [work / f"input{i}.json" for i in range(len(traces))]
        for t, path in zip(traces, paths):
            t.write(path)
        samples = [] if trace else setup_samples(SETUP_SAMPLES - 1)
        job = {"argv": [wl.argv(p) for p in paths], "workdir": str(work / "runs"),
               "seconds": seconds, "min_invocations": max(MIN_INVOCATIONS, wl.inputs),
               "trace": trace, "result": str(work / "result.json")}
        (work / "runs").mkdir()
        (work / "job.json").write_text(json.dumps(job))
        _child([str(work / "job.json")], timeout=CHILD_TIMEOUT_S)
        res = json.loads((work / "result.json").read_text())
        return _evaluate(wl, seed, seconds, trace, traces, paths, work, res, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


def _evaluate(wl, seed, seconds, trace, traces, paths, work, res, samples):
    checker = Checker(wl, traces, paths)
    lines, failed = [], 0
    invs = res["invocations"]
    for n, inv in enumerate(invs):
        problems = checker.check(inv, work / "runs" / f"inv{n:04d}")
        if problems:
            failed += 1
            lines.append(f"invocation {n} failed: {'; '.join(problems)}")
    for n, rep in enumerate(res["replays"]):
        problems = checker.check_replay(rep)
        if problems:
            failed += 1
            lines.append(f"replay {n} failed: {'; '.join(problems)}")
    attempted = len(invs) + len(res["replays"])

    wall_s = statistics.median(inv["wall_s"] for inv in invs)
    setups = samples + [res["setup"]]
    if trace:
        metrics = layers.layer_metrics(res["replays"], wall_s)
        units = layers.UNITS
        lines.append("spans: " + json.dumps(layers.span_summary(res["replays"])))
    else:
        metrics = {
            "wall_s": statistics.median(
                _scaled(inv["wall_s"], inv["calibration_s"]) for inv in invs),
            "setup_s": statistics.median(
                _scaled(s["setup_s"], s["calibration_s"]) for s in setups),
            "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
        }
        if all(checker.errors.values()):
            metrics["energy_rel_err"] = checker.energy_rel_err()
        units = END_TO_END_UNITS

    env = {
        "workload_process": {"backend": res["backend"], "numpy": res["numpy"]},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "grid": [wl.n_r, wl.n_theta],
        "trace_samples": wl.samples, "traces": len(traces), "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "setup_samples": setups,
    }
    lines.append("environment: " + json.dumps(env))
    lines.append("outputs: " + json.dumps(
        [{"invocation": n, "input": inv["input"], "sha256": inv["files"]}
         for n, inv in enumerate(invs)]))
    lines.append(f"invocations: {len(invs)}  replays: {len(res['replays'])}  "
                 f"wall_s samples: {[round(inv['wall_s'], 4) for inv in invs]}")
    lines.append(
        f"unscaled medians: wall_s {wall_s} s  "
        f"setup_s {statistics.median(s['setup_s'] for s in setups)} s  "
        f"calibration_s {statistics.median(inv['calibration_s'] for inv in invs)} s")
    lines.append(f"error_rate {failed / attempted} ratio ({failed}/{attempted} failed)")
    for name, value in metrics.items():
        lines.append(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdisk" / "cli.py").is_file():
        print(f"error: no qdisk sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"error: workload process failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
