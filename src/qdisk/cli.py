"""Command-line front end.

Subcommands:
    classify  a,b,c,d     classify a sheet coefficient tuple
    table                 emit the full matching table (CSV or JSON)
    minimize  TRACE.json  spectral minimizer for boundary data, field dump +
                          frequency profile, optional relaxation oracle
    blowup    TRACE.json  blow-up at given radii and catalog identification

Exit codes: 0 success, 1 negative classification result, 2 invalid input
(finite data whose arithmetic overflows or turns invalid included),
3 numerical-verification failure. Stdout carries only results; the detected
class, errors and warnings (trace modes folded at or above the grid's
angular Nyquist, a blow-up limit whose boundary mass misses 1/N,
--dump-fields on frequency-0 data) go to stderr. Before reading the trace,
both trace commands check the grid, their radii and their output paths,
none of which may overwrite the input trace or another output (exit 2). A
radius lies in (0, 1]; minimize's profile radii also pass the grid's ring
rule (PolarGrid.rings), while blowup's radii, read exactly, must be
distinct. minimize prints its results only after writing its files, and a
run that fails while writing removes the files it wrote, the one it was
writing included, so a run that exits 2 leaves no results.

main parses with the invoked subcommand's parser alone and falls back to
the parser of every subcommand when no subcommand leads or arguments are
left over, so each help, usage and error text is that parser's.

File formats:
    boundary trace  JSON array of {"theta": t, "p1": [x, y], "p2": [x, y]}
                    at uniform angles starting from 0
    field dump      CSV rows (ring_index, angle_index, sheet, x, y) plus a
                    JSON sidecar {"n_r", "n_theta", "seam"}
    profile         CSV columns r, D, H, N: one row per grid ring read, r
                    being that ring's radius
    match table     CSV columns form_i, form_j, continuation,
                    frequency_class, constraints (JSON: same records)
    blow-up report  JSON {fitted_N, rounded_N, continuation, residual,
                    boundary_mass, 1/N, cauchy_defects}; at frequency 0
                    both N are 0, the next four null, and a note stands
                    in place of cauchy_defects

blowup rescales the spectral minimizer exactly: at radius r, each present
mode nu times r^nu / sqrt(D(r)), D(r) the closed-form energy of the present
modes, a spectrum of unit energy. The report reads the limit (the last
radius) from the spectrum in closed form: fitted_N is the median of
N = rD/H at the exact radii 0.25, 0.5, 0.75 and 1, boundary_mass is H/D
at 1. The catalog entry is read, not fitted: the limit's lowest present
mode, scaled to unit energy; rounded_N is its degree, and the run exits 3
when fitted_N lies farther than 0.1 from it. The residual is the largest
pair distance between limit and entry on the unit circle at the grid's
angles. cauchy_defects[k] is the largest labelled distance (sheet 1 to
sheet 1, sheet 2 to sheet 2) on that circle between the rescales at radii
k and k+1: the sheets' difference is harmonic, so it bounds their pair
distance over the whole disk. A dump is the extension of a rescale on the
grid, with unit closed-form energy: --nr sets that grid alone, and the
report does not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
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
    output_file,
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
    harmonic_extension,
    lift_boundary,
    load_trace,
    minimize,
    relax_oracle,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# |H(1) N - 1| above criterion 5's tolerance: the blow-up limit is not converged
MASS_IDENTITY_TOL = 0.02

DEFAULT_ORACLE_TOL = 0.01
DEFAULT_PROFILE_RADII = tuple(np.linspace(0.25, 1.0, 16))
DEFAULT_BLOWUP_RADII = (0.4, 0.2, 0.1)


def _add_trace_args(parser: argparse.ArgumentParser, out_help: str) -> None:
    """Arguments minimize and blowup share: trace, grid, radii, output, class."""
    parser.add_argument("trace", help="boundary trace JSON file")
    parser.add_argument("--nr", type=int, default=64, help="radial cells")
    parser.add_argument("--ntheta", type=int, default=256, help="angular cells")
    parser.add_argument("--radii", type=str, default=None, help="comma-separated radii")
    parser.add_argument("--out", type=str, default=None, help=out_help)
    parser.add_argument(
        "--class",
        dest="klass",
        choices=("identity", "swap"),
        default=None,
        help="force the continuation class",
    )


def _parse_radii(arg: str | None, default) -> tuple:
    """The --radii list as floats, unchecked: minimize holds them to the
    grid's ring rule (PolarGrid.rings), blowup to check_radii alone."""
    if arg is None:
        return tuple(default)
    try:
        return tuple(float(x) for x in arg.split(","))
    except ValueError as exc:
        raise UsageError(f"bad radii list {arg!r}") from exc


class UsageError(Exception):
    pass


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with output_file(out) as fh:
            fh.write(text.encode())


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
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load trace {path}: {exc}") from exc


def _minimize_trace(args, grid: PolarGrid):
    """Load the trace and minimize it on the grid: the run's one class
    decision, which the rest of the command reads from the result. Unless
    --class forced the class, the decision goes to stderr, followed by any
    folded modes."""
    trace = _load_trace_checked(args.trace)
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
    return result


def _refuse_overwrite(trace: str, outputs) -> None:
    """UsageError when an output path resolves to the input trace or to an
    earlier output."""
    source = Path(trace).resolve()
    resolved = [Path(out).resolve() for out in outputs]
    for out, path in zip(outputs, resolved):
        if path == source:
            raise UsageError(f"output {out} would overwrite the input trace {trace}")
    for k, path in enumerate(resolved):
        if path in resolved[:k]:
            raise UsageError(f"output {outputs[k]} would be written twice")


@contextlib.contextmanager
def _removed_on_error():
    """Yield a list for the paths of the files a run has written; when the
    block fails, remove them before the error propagates."""
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


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
    if not oracle_tol >= 0:
        raise UsageError(f"--oracle-tol must be a nonnegative number, got {oracle_tol!r}")
    # every argument check runs before the trace is read
    grid = PolarGrid(args.nr, args.ntheta)
    radii = _parse_radii(args.radii, DEFAULT_PROFILE_RADII)
    grid.rings(radii)
    base = Path(args.out) if args.out else Path("minimized_field.csv")
    profile_path = base.with_name(base.stem + "_profile.csv")
    _refuse_overwrite(args.trace, (*dump_files(base), profile_path))

    result = _minimize_trace(args, grid)
    lines = [f"class: {result.kind.value}", f"energy: {result.energy:.12g}"]
    if result.alt_energy is not None:
        lines.append(f"alt-energy: {result.alt_energy:.12g}")
    profile = frequency_profile(result.field, radii)
    N0 = frequency_from_spectrum(result.spectrum)
    lines.append(f"N0: {N0:.6g}  monotonicity defect: {profile.monotonicity_defect:.3g}")

    with _removed_on_error() as written:
        save_field(result.field, base)
        written.extend(dump_files(base))
        profile.to_csv(profile_path)
    lines.append(f"field dump: {base}  profile: {profile_path}")
    # results reach stdout only once their files are written
    print("\n".join(lines))

    if args.oracle:
        relaxed = relax_oracle(result.field)
        gap = abs(dirichlet_energy(relaxed, 1.0) - result.energy) / (result.energy or 1.0)
        print(f"oracle gap: {gap:.3e}")
        if gap > oracle_tol:
            print(f"oracle gap exceeds {oracle_tol:g}", file=sys.stderr)
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_blowup(args) -> int:
    # every argument check runs before minimize, whatever the data
    grid = PolarGrid(args.nr, args.ntheta)
    radii = check_radii(sorted(_parse_radii(args.radii, DEFAULT_BLOWUP_RADII), reverse=True))
    dumps = [Path(f"{args.dump_fields}_r{r:g}.csv") for r in radii] if args.dump_fields else []
    outputs = [args.out] if args.out is not None else []
    _refuse_overwrite(args.trace, outputs + [p for csv in dumps for p in dump_files(csv)])

    result = _minimize_trace(args, grid)
    if frequency_from_spectrum(result.spectrum) == 0.0:
        # nonzero value at the origin: frequency zero, nothing to blow up
        if dumps:
            print("warning: --dump-fields ignored: frequency 0 has no blow-up to dump",
                  file=sys.stderr)
        report = {"fitted_N": 0.0, "rounded_N": 0.0, "continuation": None,
                  "residual": None, "boundary_mass": None, "1/N": None,
                  "note": "value at origin is nonzero; frequency 0"}
        _write_out(report_to_json(report), args.out)
        return EXIT_OK

    # the exact rescales of the spectrum; none of them builds a grid field
    seq = blowup_sequence(result, radii)
    limit = seq.fields[-1]
    entry, fitted, residual = identify_catalog(limit)
    report = blowup_report(limit, entry, fitted, residual)
    mass_error = abs(report["boundary_mass"] * entry.N - 1.0)
    if mass_error > MASS_IDENTITY_TOL:
        print(f"warning: boundary mass {report['boundary_mass']:.4g} differs from "
              f"1/N {report['1/N']:.4g} by {mass_error:.1%}", file=sys.stderr)
    report["cauchy_defects"] = list(seq.cauchy_defects)
    with _removed_on_error() as written:
        for path, rescaled in zip(dumps, seq.fields):
            # one grid field at a time, freed once written
            save_field(harmonic_extension(rescaled.spectrum, grid), path)
            written.extend(dump_files(path))
        _write_out(report_to_json(report), args.out)
    return EXIT_OK


def _classify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("tuple", help="four comma-separated reals a,b,c,d")
    p.add_argument("--tol", type=float, default=1e-9, help="classification tolerance")


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _minimize_args(p: argparse.ArgumentParser) -> None:
    _add_trace_args(p, "field dump path, with its .json sidecar and _profile.csv "
                       "beside it (default minimized_field.csv)")
    p.add_argument("--oracle", action="store_true", help="run the relaxation oracle")
    p.add_argument(
        "--oracle-tol",
        type=float,
        default=None,
        help=f"max relative oracle gap (default {DEFAULT_ORACLE_TOL:g}; needs --oracle)",
    )


def _blowup_args(p: argparse.ArgumentParser) -> None:
    _add_trace_args(p, "output path (default stdout)")
    p.add_argument(
        "--dump-fields",
        metavar="PREFIX",
        default=None,
        help="write each rescaled field to PREFIX_r<RADIUS>.csv",
    )


# name: (help, arguments, command), in the order `qdisk -h` lists them
SUBCOMMANDS = {
    "classify": ("classify a sheet coefficient tuple", _classify_args, cmd_classify),
    "table": ("emit the matching table", _table_args, cmd_table),
    "minimize": ("minimize boundary data", _minimize_args, cmd_minimize),
    "blowup": ("blow-up analysis of a minimizer", _blowup_args, cmd_blowup),
}


def build_parser() -> argparse.ArgumentParser:
    """The qdisk parser: every subcommand with its help and its arguments."""
    parser = argparse.ArgumentParser(
        prog="qdisk",
        description="Two-valued Dirichlet minimizers on the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """The parsed ``argv``. When ``argv[0]`` names a subcommand, a parser of
    that subcommand's arguments alone reads the rest; ``build_parser`` reads
    the whole of ``argv`` when none does or arguments are left over, so the
    top-level help, usage errors and "unrecognized arguments" keep its
    bytes."""
    if argv and argv[0] in SUBCOMMANDS:
        name = argv[0]
        _, add_arguments, func = SUBCOMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"qdisk {name}")
        add_arguments(parser)
        parser.set_defaults(command=name, func=func)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # data so large that its squares overflow must not pass as a result
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoCatalogMatch, NotStationary) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (QdiskError, FloatingPointError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
