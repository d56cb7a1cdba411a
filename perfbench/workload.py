"""Workload process: runs the qdisk CLI in-process in a closed loop.

Usage:
    python3 perfbench/workload.py --setup-only   print the import time of qdisk.cli
                                                 and a calibration time
    python3 perfbench/workload.py JOB.json       run the job, write its result file

One caller runs invocations back to back, cycling through the job's argument
lists, until the next one would end past the job's deadline (and at least
``min_invocations`` ran). Each invocation calls ``qdisk.cli.main(argv)`` with
stdout and stderr captured and writes into a fresh directory. After each
invocation, outside the timed region, the SHA-256 of every file it wrote is
taken; the first invocation's files of each argument list are kept for the
parent to verify, later ones are deleted.

With ``trace`` set, every untraced invocation is followed by a traced
run of the same arguments (see tracing.py).

A fixed pure-Python loop is timed after the import and between invocations,
outside the timed regions. The whole host's speed drifts by up to 2x over minutes on
shared machines; run.py divides each timing by the loop's time next to it.

Only the standard library is imported before ``qdisk.cli``, so the timed
import pays for numpy as a CLI process does.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _timed_import():
    start = time.perf_counter()
    import qdisk.cli

    return qdisk.cli, time.perf_counter() - start


CALIBRATION_LOOPS = 1_000_000
# a calibration after an invocation lasts at least this share of its time, so
# that it follows the host over a stretch comparable to a long invocation
CALIBRATION_SHARE = 0.1


def _calibration_s(repeats: int = 1) -> float:
    """Mean time of ``repeats`` runs of a fixed pure-Python loop.

    It allocates no arrays, so its time follows the host's speed and not the
    state the program left in the process (a numpy loop on fresh arrays runs
    up to 2x faster once the program has raised malloc's mmap threshold).
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS * repeats):
        total += i * i
    return (time.perf_counter() - start) / repeats


def _digests(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = h.hexdigest()
    return out


def _argv(template, directory: Path) -> list:
    return [arg.replace("{out}", str(directory)) for arg in template]


def _invoke(cli, template, directory: Path) -> dict:
    directory.mkdir()
    argv = _argv(template, directory)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": _digests(directory)}


def _replay(template, directory: Path) -> dict:
    import tracing

    directory.mkdir()
    gc.collect()
    try:
        record = tracing.replay(_argv(template, directory))
    except Exception:  # a replay that breaks is a failed check, not a crash
        return {"error": traceback.format_exc()}
    record["files"] = _digests(directory)
    return record


def run_job(cli, job: dict) -> dict:
    templates = job["argv"]
    work = Path(job["workdir"])
    start = time.perf_counter()
    kept = set()
    invocations, replays = [], []
    before = _calibration_s()
    while True:
        index = len(invocations)
        which = index % len(templates)
        directory = work / f"inv{index:04d}"
        record = _invoke(cli, templates[which], directory)
        after = _calibration_s(max(1, round(CALIBRATION_SHARE * record["wall_s"] / before)))
        record["calibration_s"] = (before + after) / 2
        before = after
        record["input"] = which
        record["kept"] = which not in kept
        invocations.append(record)
        if record["kept"]:
            kept.add(which)
        else:
            shutil.rmtree(directory)
        if job["trace"]:
            rdir = work / f"replay{index:04d}"
            rec = _replay(templates[which], rdir)
            rec["input"] = which
            replays.append(rec)
            shutil.rmtree(rdir)
        done = len(invocations)
        elapsed = time.perf_counter() - start
        per = elapsed / done
        if done >= job["min_invocations"] and elapsed + per > job["seconds"]:
            break
    return {"invocations": invocations, "replays": replays}


def main(argv) -> int:
    cli, setup_s = _timed_import()
    setup = {"setup_s": setup_s, "calibration_s": _calibration_s()}
    if argv == ["--setup-only"]:
        print(json.dumps(setup))
        return 0
    (job_path,) = argv
    job = json.loads(Path(job_path).read_text())
    result = run_job(cli, job)
    import numpy
    from qdisk._kernels import BACKEND

    result.update(
        setup=setup,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        backend=BACKEND,
        numpy=numpy.__version__,
    )
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
