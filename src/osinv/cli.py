"""Command-line front end.

Four subcommands drive the library end to end:

``table``
    Sweep one structure over an n-grid and tabulate its fundamental
    functions, exactness and projection constants, and the diagonal
    summing norm, with fitted exponents in a footer row.
``pi1``
    Sweep a domain/codomain pair and tabulate the summing norm with its
    per-quadrant breakdown and breaking points.
``fit``
    Report only the fitted exponents of a self-sweep.
``verify``
    Run the named self-check suites and report pass/fail per check.

Space descriptors are given as inline JSON or as a path to a JSON
file; n-grids as ``"16,64,256"`` or ``"geometric:a:b:count"``.

The three sweep commands share one driver: it parses the descriptors
and the grid, sweeps once, and writes the command's view of the sweep
(its rows, slopes and CSV footer) as CSV (default) or JSON.  Both
formats carry a metadata record of the descriptors, the grid, and the
tool version; ``fit`` has no rows, so its JSON holds only ``meta`` and
``slopes``.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 failed verification, 2 non-regular space,
3 parse/config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__
from .errors import NotRegular, OsinvError, ParseError
from .invariants import SweepResult, sweep
from .monotone_fn import evaluate
from .spaces import SpaceDescriptor, descriptor_from_json, descriptor_to_json
from .util import MAX_N
from .verify import SUITE_NAMES, run_suite

__all__ = [
    "MAX_GRID_COUNT",
    "MAX_N",
    "cmd_verify",
    "main",
    "parse_n_grid",
    "parse_space_descriptor",
]

#: Most points a ``geometric:a:b:count`` grid may ask for; every point is
#: built before duplicates collapse, so the count bounds the work.
MAX_GRID_COUNT = 10_000

#: Most characters of an offending input that an error message quotes.
_QUOTE_LIMIT = 40


def parse_space_descriptor(text: str) -> SpaceDescriptor:
    """Descriptor from inline JSON (leading ``{``) or a JSON file path.

    Raises
    ------
    ParseError
        Unreadable or non-UTF-8 file, malformed JSON (with line/column),
        JSON nested too deeply to decode or holding an integer too long
        to convert, or a structurally invalid descriptor.
    NotRegular
        Explicit fundamental tables that fail the regularity gate.
    """
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            raw = Path(text).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"descriptor file {text!r} is not UTF-8 text: {exc}"
            ) from exc
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ParseError(
                f"cannot read descriptor file {text!r}: {exc}"
            ) from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"descriptor is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(
            "descriptor JSON is nested too deeply to decode"
        ) from exc
    except ValueError as exc:  # an integer longer than int() converts
        raise ParseError(
            "descriptor JSON has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    return descriptor_from_json(obj)


def parse_n_grid(text: str) -> tuple[int, ...]:
    """Grid from ``"16,64,256"`` or ``"geometric:a:b:count"``.

    Geometric grids are rounded to integers; duplicates collapse and
    the result is sorted.  Points may not exceed :data:`MAX_N`, nor a
    geometric count :data:`MAX_GRID_COUNT`.

    Raises
    ------
    ParseError
        Malformed syntax, non-finite geometric bounds, a geometric count
        above :data:`MAX_GRID_COUNT`, an empty grid, or a point below 1
        or above :data:`MAX_N`.  The message quotes at most
        :data:`_QUOTE_LIMIT` characters of the offending text.
    """
    s = text.strip()
    ns: list[int]
    if s.startswith("geometric:"):
        parts = s.split(":")
        if len(parts) != 4:
            raise ParseError(
                "geometric grid must be geometric:a:b:count, "
                f"got {_clip(text)!r}"
            )
        try:
            a, b, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParseError(
                f"bad geometric grid {_clip(text)!r}: a and b must be "
                f"numbers and count an integer from 1 to {MAX_GRID_COUNT}"
            ) from exc
        if not (math.isfinite(a) and math.isfinite(b)) or b > MAX_N:
            raise ParseError(
                f"geometric grid bounds must be finite and at most "
                f"2**60 = {MAX_N}, got {_clip(text)!r}"
            )
        if not (0.0 < a <= b) or count < 1:
            raise ParseError(
                f"need 0 < a <= b and count >= 1, got {_clip(text)!r}"
            )
        if count > MAX_GRID_COUNT:
            raise ParseError(
                f"geometric grid count must be at most {MAX_GRID_COUNT}, "
                f"got {_clip(str(count))}"
            )
        if count == 1:
            ns = [round(a)]
        else:
            ratio = b / a
            ns = [
                round(a * ratio ** (k / (count - 1))) for k in range(count)
            ]
    else:
        ns = []
        for tok in s.split(","):
            if not tok.strip():
                continue
            try:
                ns.append(int(tok))
            except ValueError as exc:
                raise ParseError(
                    f"bad n-grid point {_clip(tok.strip())!r}: grid points "
                    f"must be integers from 1 to 2**60 = {MAX_N}"
                ) from exc
    ns = sorted(set(ns))
    if not ns:
        raise ParseError(f"empty n-grid {_clip(text)!r}")
    if ns[0] < 1:
        raise ParseError(f"grid points must be >= 1, got {_clip(str(ns[0]))}")
    if ns[-1] > MAX_N:
        raise ParseError(
            f"grid points must be at most 2**60 = {MAX_N}, "
            f"got {_clip(str(ns[-1]))}"
        )
    return tuple(ns)


def _clip(text: str) -> str:
    """`text` cut to :data:`_QUOTE_LIMIT` characters for an error message."""
    if len(text) <= _QUOTE_LIMIT:
        return text
    return text[:_QUOTE_LIMIT] + "..."


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _emit(text: str, out_path: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ParseError(
            f"cannot write output file {out_path!r}: {exc}"
        ) from exc


#: A sweep command's view of its sweep: column names, data rows (``None``
#: for none, and then no ``rows`` key in JSON), slopes, and the CSV lines
#: after the rows.
_View = tuple[
    tuple[str, ...],
    list[tuple[Any, ...]] | None,
    Mapping[str, tuple[float, float]],
    list[str],
]


def _table_view(result: SweepResult, space: SpaceDescriptor) -> _View:
    """Fundamental functions and invariants per n, slopes in a footer."""
    rows = [
        (
            rep.n,
            evaluate(space.phi_c, float(rep.n)),
            evaluate(space.phi_r, float(rep.n)),
            float(rep.ex or 0.0),
            float(rep.proj or 0.0),
            rep.pi1,
        )
        for rep in result.reports
    ]
    upper = rows[-result.window:]
    fits = result._design.fit([[r[i] for r in upper] for i in (1, 2)])
    slopes = dict(zip(("phi_c", "phi_r"), fits))
    slopes.update((k, result.slopes[k]) for k in ("ex", "proj", "pi1"))
    # One column, and one footer entry, per fitted quantity.
    footer = "slope," + ",".join(_fmt(s) for s, _ in slopes.values())
    return ("n", *slopes), rows, slopes, [footer]


def _pi1_view(result: SweepResult, *_: SpaceDescriptor) -> _View:
    """Summing norm with its per-quadrant breakdown per n."""
    columns = (
        "n", "pi1", "lambda1_mp", "lambda1_pm", "lambda2_mp",
        "lambda2_pm", "lambda3_mp", "lambda3_pm", "s_break", "t_break",
    )
    rows = [
        (rep.n, rep.pi1, *rep.lambda1, *rep.lambda2, *rep.lambda3,
         rep.s_break, rep.t_break)
        for rep in result.reports
    ]
    footer = (
        "slope," + _fmt(result.slopes["pi1"][0]) + "," * (len(columns) - 2)
    )
    return columns, rows, result.slopes, [footer]


def _fit_view(result: SweepResult, *_: SpaceDescriptor) -> _View:
    """Fitted exponents of a self-sweep, one CSV line per quantity."""
    slopes = {k: result.slopes[k] for k in ("ex", "proj", "pi1")}
    lines = [f"{k},{_fmt(s)},{_fmt(r2)}" for k, (s, r2) in slopes.items()]
    return ("quantity", "slope", "r_squared"), None, slopes, lines


def _run_sweep(args: argparse.Namespace) -> int:
    """``table``, ``pi1`` or ``fit``: parse the descriptors and grid,
    sweep once, and write the command's view as CSV or JSON.

    ``fit`` prints no rows, so its sweep builds only the reports its
    slopes are fitted over.  Only the chosen format's header is built,
    so each descriptor is serialised once.
    """
    keys = ("domain", "codomain") if args.command == "pi1" else ("space",)
    descs = {key: parse_space_descriptor(getattr(args, key)) for key in keys}
    ns = parse_n_grid(args.n_grid)
    result = sweep(*descs.values(), n_grid=ns,
                   _slopes_only=args.command == "fit")
    columns, rows, slopes, footer = args.view(result, *descs.values())
    if args.out_format == "json":
        doc: dict[str, Any] = {
            "meta": {
                "tool": "osinv",
                "version": __version__,
                "command": args.command,
                "n_grid": list(ns),
                **{key: descriptor_to_json(d) for key, d in descs.items()},
            },
            "slopes": {k: list(v) for k, v in slopes.items()},
        }
        if rows is not None:
            doc["rows"] = [dict(zip(columns, r)) for r in rows]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        comment = " ".join([
            f"# osinv {__version__} {args.command}",
            *(
                f"{key}=" + json.dumps(descriptor_to_json(d), sort_keys=True,
                                       separators=(",", ":"))
                for key, d in descs.items()
            ),
            "n_grid=" + ",".join(str(n) for n in ns),
        ])
        data = [
            ",".join([str(r[0]), *(_fmt(v) for v in r[1:])])
            for r in rows or ()
        ]
        lines = [comment, ",".join(columns), *data, *footer]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out_path)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the self-check suites; exit 0 only if every check passes.

    With ``timings`` set, each check's wall time also goes to standard
    error, one ``suite.check elapsed_ms`` line per check.
    """
    results = run_suite(args.suite)
    if args.timings:
        for r in results:
            print(f"{r.suite + '.' + r.name:<30} {r.elapsed_ms:.1f}",
                  file=sys.stderr)
    lines = [
        f"{'pass' if r.passed else 'fail'}  "
        f"{r.suite + '.' + r.name:<30} {r.detail}"
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``osinv`` argument parser, built on first use and then reused.

    Parsing leaves the parser unchanged, and help text is laid out
    afresh on each request, so it still follows ``COLUMNS``.
    """
    parser = argparse.ArgumentParser(
        prog="osinv",
        description=(
            "Tables, exponent fits, and self-checks for homogeneous "
            "Hilbertian structures given by weight pairs."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"osinv {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table", help="sweep one structure and tabulate its invariants"
    )
    table.add_argument(
        "--space", required=True, help="inline JSON descriptor or a path"
    )
    pi1 = sub.add_parser(
        "pi1", help="sweep a pair and tabulate the summing-norm breakdown"
    )
    pi1.add_argument("--domain", required=True, help="domain descriptor")
    pi1.add_argument("--codomain", required=True, help="codomain descriptor")
    fit = sub.add_parser("fit", help="report only the fitted exponents")
    fit.add_argument(
        "--space", required=True, help="inline JSON descriptor or a path"
    )
    views = ((table, _table_view), (pi1, _pi1_view), (fit, _fit_view))
    for cmd, view in views:
        cmd.set_defaults(run=_run_sweep, view=view)
        cmd.add_argument(
            "--n",
            dest="n_grid",
            required=True,
            help='n-grid: "16,64,256" or "geometric:a:b:count"',
        )
        cmd.add_argument(
            "--out",
            dest="out_format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )
        cmd.add_argument(
            "--out-path",
            default="-",
            help="output file, or - for standard output (default)",
        )

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument(
        "--suite",
        choices=(*SUITE_NAMES, "all"),
        default="all",
        help="which suite to run (default all)",
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="print each check's elapsed milliseconds to standard error",
    )
    verify.set_defaults(run=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except NotRegular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OsinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
