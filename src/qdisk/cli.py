"""Command-line front end.

Subcommands:
    classify  a,b,c,d     classify a sheet coefficient tuple
    table                 emit the full matching table (CSV or JSON)
    minimize  TRACE.json  spectral minimizer for boundary data, field dump +
                          frequency profile, optional relaxation oracle
    blowup    TRACE.json  blow-up at given radii and catalog identification

Exit codes: 0 success, 1 negative classification result, 2 invalid input,
3 numerical-verification failure. Stdout carries only results; the detected
class, errors and warnings (trace modes folded at or above the grid's
angular Nyquist, a blow-up limit whose boundary mass misses 1/N) go to
stderr. No output may overwrite the input trace (exit 2).

File formats:
    boundary trace  JSON array of {"theta": t, "p1": [x, y], "p2": [x, y]}
                    at uniform angles starting from 0
    field dump      CSV rows (ring_index, angle_index, sheet, x, y) plus a
                    JSON sidecar {"n_r", "n_theta", "seam"}
    profile         CSV columns r, D, H, N
    match table     CSV columns form_i, form_j, continuation,
                    frequency_class, constraints (JSON: same records)
    blow-up report  JSON {fitted_N, rounded_N, continuation, residual,
                    boundary_mass, 1/N}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .blowup import (
    blowup_report,
    blowup_sequence,
    check_radii,
    identify_catalog,
    report_to_json,
)
from .errors import NoCatalogMatch, NotStationary, QdiskError
from .field import (
    PolarGrid,
    dirichlet_energy,
    dump_files,
    frequency_profile,
    save_field,
)
from .forms import (
    Continuation,
    FourTuple,
    build_match_table,
    classify_form,
    conformal_defect,
    table_to_csv,
    table_to_json,
)
# unused here; perfbench/tracing.py wraps them: analyze_spectrum, forced_lift, lift_boundary
from .minimizer import (
    analyze_spectrum,
    folded_modes,
    forced_lift,
    frequency_from_spectrum,
    lift_boundary,
    load_trace,
    minimize,
    relax_oracle,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Classification tolerance for tuples fitted from finite-resolution blow-up
# limits; the exact-input tolerance (--tol) is far below fit noise.
BLOWUP_FIT_TOL = 0.05
# |H(1) N - 1| above criterion 5's tolerance: the blow-up limit is not converged
MASS_IDENTITY_TOL = 0.02

DEFAULT_ORACLE_TOL = 0.01
DEFAULT_PROFILE_RADII = tuple(np.linspace(0.25, 1.0, 16))
DEFAULT_BLOWUP_RADII = (0.4, 0.2, 0.1)


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    """Arguments minimize and blowup share: trace, grid, radii, output, class."""
    parser.add_argument("trace", help="boundary trace JSON file")
    parser.add_argument("--nr", type=int, default=64, help="radial cells")
    parser.add_argument("--ntheta", type=int, default=256, help="angular cells")
    parser.add_argument("--radii", type=str, default=None, help="comma-separated radii")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument(
        "--class",
        dest="klass",
        choices=("identity", "swap"),
        default=None,
        help="force the continuation class",
    )


def _parse_radii(arg: str | None, default) -> tuple:
    if arg is None:
        return tuple(default)
    try:
        radii = tuple(float(x) for x in arg.split(","))
    except ValueError as exc:
        raise UsageError(f"bad radii list {arg!r}") from exc
    if not radii or any(not 0 < r <= 1 for r in radii):
        raise UsageError("radii must lie in (0, 1]")
    return radii


class UsageError(Exception):
    pass


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_classify(args) -> int:
    parts = args.tuple.split(",")
    if len(parts) != 4:
        raise UsageError(f"expected 4 comma-separated reals, got {args.tuple!r}")
    try:
        t = FourTuple(*(float(p) for p in parts))
    except ValueError as exc:
        raise UsageError(f"bad tuple {args.tuple!r}") from exc
    form = classify_form(t, args.tol)
    d1, d2 = conformal_defect(t)
    print(f"tuple: ({t.a:g}, {t.b:g}, {t.c:g}, {t.d:g})")
    print(f"conformal defect: ({d1:.6g}, {d2:.6g})")
    print(f"classification: {form}")
    return EXIT_OK if form.is_conformal else EXIT_NEGATIVE


def cmd_table(args) -> int:
    rows = build_match_table()
    text = table_to_json(rows) if args.format == "json" else table_to_csv(rows)
    _write_out(text, args.out)
    return EXIT_OK


def _load_trace_checked(path: str):
    try:
        return load_trace(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load trace {path}: {exc}") from exc


def _minimize_trace(args):
    """Load the trace and minimize it: the run's one class decision, which
    the rest of the command reads from the result. Unless --class forced
    the class, the decision goes to stderr, followed by any folded modes."""
    trace = _load_trace_checked(args.trace)
    grid = PolarGrid(args.nr, args.ntheta)
    kind = Continuation(args.klass) if args.klass else None
    result = minimize(trace, grid, kind=kind)
    if kind is None:
        detected = (
            f"{result.kind.value} (separation {trace.separation():.3g})"
            if result.alt_energy is None
            else "ambiguous (sheets collide)"
        )
        print(f"detected class: {detected}", file=sys.stderr)
    _report_folding(result.spectrum, grid)
    return grid, result


def _refuse_overwrite(trace: str, outputs) -> None:
    """UsageError when an output path resolves to the input trace."""
    source = Path(trace).resolve()
    for out in outputs:
        if Path(out).resolve() == source:
            raise UsageError(f"output {out} would overwrite the input trace {trace}")


def _report_folding(spectrum, grid: PolarGrid) -> None:
    """One stderr line when the grid cannot resolve some of the trace's modes."""
    count, share = folded_modes(spectrum, grid)
    if count:
        print(
            f"warning: folded modes: {count} at or above the grid's angular Nyquist "
            f"carry {share:.3e} of the spectral energy",
            file=sys.stderr,
        )


def cmd_minimize(args) -> int:
    if args.oracle_tol is not None and not args.oracle:
        raise UsageError("--oracle-tol requires --oracle")
    oracle_tol = DEFAULT_ORACLE_TOL if args.oracle_tol is None else args.oracle_tol
    base = Path(args.out) if args.out else Path("minimized_field.csv")
    profile_path = base.with_name(base.stem + "_profile.csv")
    _refuse_overwrite(args.trace, (*dump_files(base), profile_path))
    grid, result = _minimize_trace(args)
    print(f"class: {result.kind.value}")
    print(f"energy: {result.energy:.12g}")
    if result.alt_energy is not None:
        print(f"alt-energy: {result.alt_energy:.12g}")

    radii = _parse_radii(args.radii, DEFAULT_PROFILE_RADII)
    profile = frequency_profile(result.field, radii)
    N0 = frequency_from_spectrum(result.spectrum)
    print(f"N0: {N0:.6g}  monotonicity defect: {profile.monotonicity_defect:.3g}")

    save_field(result.field, base)
    profile.to_csv(profile_path)
    print(f"field dump: {base}  profile: {profile_path}")

    if args.oracle:
        relaxed = relax_oracle(result.spectrum, grid)
        gap = abs(dirichlet_energy(relaxed, 1.0) - result.energy) / max(
            result.energy, 1e-30
        )
        print(f"oracle gap: {gap:.3e}")
        if gap > oracle_tol:
            print(f"oracle gap exceeds {oracle_tol:g}", file=sys.stderr)
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_blowup(args) -> int:
    if args.out is not None:
        _refuse_overwrite(args.trace, (args.out,))
    # every argument check runs before minimize, whatever the data
    grid = PolarGrid(args.nr, args.ntheta)
    radii = check_radii(
        sorted(_parse_radii(args.radii, DEFAULT_BLOWUP_RADII), reverse=True), grid.n_r
    )
    dumps = [Path(f"{args.dump_fields}_r{r:g}.csv") for r in radii] if args.dump_fields else []
    _refuse_overwrite(args.trace, [p for csv in dumps for p in dump_files(csv)])

    _, result = _minimize_trace(args)
    if frequency_from_spectrum(result.spectrum) == 0.0:
        # nonzero value at the origin: frequency zero, nothing to blow up
        report = {"fitted_N": 0.0, "rounded_N": 0.0, "continuation": None,
                  "residual": None, "boundary_mass": None, "1/N": None,
                  "note": "value at origin is nonzero; frequency 0"}
        _write_out(report_to_json(report), args.out)
        return EXIT_OK

    seq = blowup_sequence(result.field, radii)
    limit = seq.fields[-1]
    entry, fitted, residual = identify_catalog(limit, BLOWUP_FIT_TOL)
    report = blowup_report(limit, entry, fitted, residual)
    mass_error = abs(report["boundary_mass"] * entry.N - 1.0)
    if mass_error > MASS_IDENTITY_TOL:
        print(f"warning: boundary mass {report['boundary_mass']:.4g} differs from "
              f"1/N {report['1/N']:.4g} by {mass_error:.1%}", file=sys.stderr)
    report["cauchy_defects"] = list(seq.cauchy_defects)
    for path, rescaled in zip(dumps, seq.fields):
        save_field(rescaled, path)
    _write_out(report_to_json(report), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisk",
        description="Two-valued Dirichlet minimizers on the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a sheet coefficient tuple")
    p.add_argument("tuple", help="four comma-separated reals a,b,c,d")
    p.add_argument("--tol", type=float, default=1e-9, help="classification tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", help="emit the matching table")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("minimize", help="minimize boundary data")
    _add_trace_args(p)
    p.add_argument("--oracle", action="store_true", help="run the relaxation oracle")
    p.add_argument(
        "--oracle-tol",
        type=float,
        default=None,
        help=f"max relative oracle gap (default {DEFAULT_ORACLE_TOL:g}; needs --oracle)",
    )
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("blowup", help="blow-up analysis of a minimizer")
    _add_trace_args(p)
    p.add_argument(
        "--dump-fields",
        metavar="PREFIX",
        default=None,
        help="write each rescaled field to PREFIX_r<RADIUS>.csv",
    )
    p.set_defaults(func=cmd_blowup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoCatalogMatch, NotStationary) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QdiskError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
