"""A seeded, bounded fuzz of the two trace commands: mutated random traces
at scales from 1e-300 to 1e300 on grids from 8x8 to 32x128. Whatever the
data, a run ends with a result or a typed error: it exits 0, 2 or 3, prints
no traceback, and prints only finite numbers on stdout when it exits 0."""

import re

import numpy as np

from conftest import random_trace

from qdisk.cli import main
from qdisk.forms import Continuation
from qdisk.minimizer import BoundaryTrace, save_trace

RUNS = 150
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


def _mutated(rng, p1, p2):
    """One of: the trace as drawn, sheets relabelled at random samples, a
    collision, a spiked point, added noise, or one sheet made constant."""
    p1, p2 = p1.copy(), p2.copy()
    n = len(p1)
    mutation = rng.integers(6)
    if mutation == 1:
        rows = rng.random(n) < 0.3
        p1[rows], p2[rows] = p2[rows], p1[rows]
    elif mutation == 2:
        j = rng.integers(n)
        p2[j] = p1[j]
    elif mutation == 3:
        p1[rng.integers(n)] *= 1e3
    elif mutation == 4:
        p1 += 10.0 ** rng.uniform(-12, 0) * rng.normal(size=p1.shape)
    elif mutation == 5:
        p2[:] = p2[0]
    return p1, p2


def test_trace_commands_end_with_a_result_or_a_typed_error(tmp_path, capsys):
    rng = np.random.default_rng(19)
    path = tmp_path / "trace.json"
    codes = []
    for _ in range(RUNS):
        kind = (Continuation.IDENTITY, Continuation.SWAP)[rng.integers(2)]
        trace = random_trace(rng, kind, n=int(rng.choice([8, 16, 32, 64])), kmax=3)
        p1, p2 = _mutated(rng, trace.p1, trace.p2)
        scale = 10.0 ** rng.uniform(-300, 300)
        save_trace(BoundaryTrace.from_values(scale * p1, scale * p2), path)
        command = ("minimize", "blowup")[rng.integers(2)]
        nr = int(rng.integers(8, 33))
        ntheta = 2 * int(rng.integers(4, 65))
        argv = [command, str(path), "--nr", str(nr), "--ntheta", str(ntheta),
                "--out", str(tmp_path / ("f.csv" if command == "minimize" else "report.json"))]
        if rng.random() < 0.5:
            argv += ["--radii", "0.5,0.25" if command == "blowup" else "0.25,0.5,1"]
        code = main(argv)
        out, err = capsys.readouterr()
        if command == "blowup" and code == 0:
            out = (tmp_path / "report.json").read_text()
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in out + err, argv
        if code == 0:
            assert not NON_FINITE.search(out), (argv, out)
            assert all(np.isfinite(float(x)) for x in NUMBER.findall(out)), (argv, out)
        codes.append(code)
    # every outcome is reached
    assert set(codes) == {0, 2, 3}
