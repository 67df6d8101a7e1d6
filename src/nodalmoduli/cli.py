"""Command-line front end with deterministic JSON/CSV output.

Every command prints one JSON document (sorted keys) holding the command
name, its inputs, the structured outputs, and any warnings; the scan-type
commands can emit CSV instead.  Rational inputs are accepted only as "p/q"
or integer strings, never decimals.

Exit codes: 0 success; 1 domain error (structured error JSON on stdout);
2 usage error (argparse message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys

from .curves import NodalCurve, Polarization
from .feasibility import feasible_interval, region_cells
from .gluing import GluingDatum, glued_class, parse_matrix
from .moduli import (
    component_dimension,
    component_rows,
    fixed_det_fiber_dimension,
    is_generic_for,
    projective_bundle_dimension,
)
from .rationals import format_ratio, format_rational, parse_rational
from .stability import StabilityHypotheses, check_sufficiency, mk_semistable_test

MAX_CELLS_ENV = "NODAL_MODULI_MAX_CELLS"
DEFAULT_MAX_CELLS = 10**6

# Rows per write of a streamed region or component list: enough to amortise
# the write, few enough that memory stays flat in the size of the output.
REGION_BATCH = 1000

_JSON_BOOL = {False: "false", True: "true"}


def rational_arg(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def int_range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integer bounds in {text!r}") from exc


def _document(command: str, inputs: dict, outputs: dict, warnings: list[str]) -> str:
    doc = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "warnings": warnings,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit(command: str, inputs: dict, outputs: dict, warnings: list[str]) -> None:
    print(_document(command, inputs, outputs, warnings))


def _emit_streamed(
    command: str, inputs: dict, outputs: dict, warnings: list[str], key: str, texts
) -> None:
    """Print the document whose outputs[key] is [] with the JSON texts
    streamed into those brackets, REGION_BATCH at a time.  There must be at
    least one text."""
    text = _document(command, inputs, outputs, warnings)
    head, _, tail = text.partition(f'"{key}": []')
    sys.stdout.write(head + f'"{key}": [\n')
    _write_joined(texts, ",\n")
    sys.stdout.write("\n    ]" + tail + "\n")


def _cmd_feasible(args) -> int:
    report = feasible_interval(args.r, args.k, args.chi1, args.chi2)
    inputs = {
        "r": str(args.r),
        "k": str(args.k),
        "chi1": str(args.chi1),
        "chi2": str(args.chi2),
    }
    _emit("feasible", inputs, report.to_json(), [])
    return 0


def _json_cells(cells):
    """The text of each region cell (chi1, chi2, bounds), laid out exactly as
    json.dumps(..., sort_keys=True, indent=2) lays it out inside "cells"; an
    empty interval is written as the open (0, 0)."""
    for chi1, chi2, bounds in cells:
        if bounds is None:
            feasible, lower, lower_open, upper, upper_open = (
                "false", "0", "true", "0", "true"
            )
        else:
            lo, hi, den, lo_open, hi_open = bounds
            feasible = "true"
            lower, lower_open = format_ratio(lo, den), _JSON_BOOL[lo_open]
            upper, upper_open = format_ratio(hi, den), _JSON_BOOL[hi_open]
        yield f"""\
      {{
        "chi1": {chi1},
        "chi2": {chi2},
        "feasible": {feasible},
        "w1_interval": {{
          "lower": "{lower}",
          "lower_open": {lower_open},
          "upper": "{upper}",
          "upper_open": {upper_open}
        }}
      }}"""


def _csv_rows(cells):
    """The CSV row of each region cell (chi1, chi2, bounds); the four
    interval columns are empty on an infeasible row."""
    for chi1, chi2, bounds in cells:
        if bounds is None:
            yield f"{chi1},{chi2},false,,,,\n"
        else:
            lo, hi, den, lo_open, hi_open = bounds
            yield (
                f"{chi1},{chi2},true,{format_ratio(lo, den)},{format_ratio(hi, den)},"
                f"{_JSON_BOOL[lo_open]},{_JSON_BOOL[hi_open]}\n"
            )


def _json_components(rows):
    """The text of each component row, laid out the same way inside
    "components"."""
    for chi1, chi2, d1, d2, dimension in rows:
        yield f"""\
      {{
        "chi1": {chi1},
        "chi2": {chi2},
        "d1": {d1},
        "d2": {d2},
        "dimension": {dimension}
      }}"""


def _csv_components(rows):
    """The CSV row of each component row."""
    for chi1, chi2, d1, d2, dimension in rows:
        yield f"{chi1},{chi2},{d1},{d2},{dimension}\n"


def _write_joined(texts, sep: str) -> None:
    """Write texts separated by sep, REGION_BATCH at a time."""
    texts = iter(texts)
    lead = ""
    while batch := list(itertools.islice(texts, REGION_BATCH)):
        sys.stdout.write(lead + sep.join(batch))
        lead = sep


def _max_cells() -> int:
    """The work cap: NODAL_MODULI_MAX_CELLS, or DEFAULT_MAX_CELLS when unset."""
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}")


def _check_work(units: int, what: str) -> None:
    """Refuse a command whose work in units exceeds the cap; `what` names
    the work with a {} for the count, as in the region message."""
    cap = _max_cells()
    if units > cap:
        raise ValueError(f"{what.format(units)} exceeds the cap of {cap}")


def _cmd_region(args) -> int:
    cells = region_cells(args.r, args.k, args.chi1, args.chi2, max_cells=_max_cells())
    if args.format == "csv":
        sys.stdout.write("chi1,chi2,feasible,w1_lo,w1_hi,w1_lo_open,w1_hi_open\n")
        _write_joined(_csv_rows(cells), "")
        return 0
    inputs = {
        "r": str(args.r),
        "k": str(args.k),
        "chi1": f"{args.chi1[0]}:{args.chi1[1]}",
        "chi2": f"{args.chi2[0]}:{args.chi2[1]}",
    }
    (lo1, hi1), (lo2, hi2) = args.chi1, args.chi2
    count = max(0, hi1 - lo1 + 1) * max(0, hi2 - lo2 + 1)
    outputs = {"cells": [], "count": count}
    if count == 0:
        _emit("region", inputs, outputs, [])
        return 0
    _emit_streamed("region", inputs, outputs, [], "cells", _json_cells(cells))
    return 0


def _cmd_components(args) -> int:
    _check_work(args.r + 1, "component enumeration of {} splittings")
    curve = NodalCurve(args.g1, args.g2)
    w = Polarization(args.w1, 1 - args.w1)
    rows = component_rows(curve, args.r, args.chi, w)
    generic = is_generic_for(args.chi, w)
    warnings = []
    if not generic:
        warnings.append(
            "non-generic polarization: window boundaries are integers, "
            "both boundary values included"
        )
    if args.format == "csv":
        sys.stdout.write("chi1,chi2,d1,d2,dimension\n")
        _write_joined(_csv_components(rows), "")
        return 0
    inputs = {
        "g1": str(args.g1),
        "g2": str(args.g2),
        "r": str(args.r),
        "chi": str(args.chi),
        "w1": format_rational(args.w1),
    }
    # r rows, or r + 1 when both window boundaries are integers.
    outputs = {"components": [], "count": args.r + (not generic)}
    _emit_streamed(
        "components", inputs, outputs, warnings, "components", _json_components(rows)
    )
    return 0


def _read_sigma(path: str) -> tuple[tuple[int, ...], ...]:
    """The matrix in the JSON file at path, as parse_matrix's integer rows.
    An array of n rows is refused when its n^3 elimination updates exceed
    the cap, before any cell is decoded.  The decoded JSON dies on return,
    so it is not held while the rank is eliminated."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, list):
        _check_work(len(raw) ** 3, "rank elimination of {} entry updates")
    return parse_matrix(raw)


def _cmd_glue(args) -> int:
    sigma = _read_sigma(args.matrix)
    datum = GluingDatum(r=len(sigma), k=None, chi1=args.chi1, chi2=args.chi2, sigma=sigma)
    sheaf, stalk, is_bundle = glued_class(datum)
    inputs = {
        "matrix": str(args.matrix),
        "chi1": str(args.chi1),
        "chi2": str(args.chi2),
    }
    outputs = {
        "r": datum.r,
        "k": datum.k,
        "chi": sheaf.chi,
        "sheaf": sheaf.to_json(),
        "stalk": stalk.to_json(),
        "vector_bundle": is_bundle,
    }
    _emit("glue", inputs, outputs, [])
    return 0


def _cmd_check_sufficiency(args) -> int:
    shapes = (args.k + 1) * (args.r + 1) ** 2
    _check_work(shapes, "sufficiency sweep of {} subsheaf shapes")
    h = StabilityHypotheses(args.r, args.k, args.chi1, args.chi2, args.g1, args.g2)
    warnings = []
    if args.w1 is not None:
        w = Polarization(args.w1, 1 - args.w1)
    else:
        report = feasible_interval(args.r, args.k, args.chi1, args.chi2)
        if report.sample is None:
            raise ValueError(
                "no compatible polarization exists for this datum; supply --w1"
            )
        w = report.sample
        warnings.append(f"polarization defaulted to w1 = {format_rational(w.w1)}")
    holds, witness = check_sufficiency(h, w, strict=args.strict)
    inputs = {
        "r": str(args.r),
        "k": str(args.k),
        "chi1": str(args.chi1),
        "chi2": str(args.chi2),
        "g1": str(args.g1),
        "g2": str(args.g2),
        "w1": format_rational(w.w1),
        "strict": str(args.strict).lower(),
    }
    outputs = {
        "holds": holds,
        "witness": None if witness is None else witness.to_json(),
        "w": w.to_json(),
        "d1": h.d1,
        "d2": h.d2,
    }
    _emit("check-sufficiency", inputs, outputs, warnings)
    return 0


def _cmd_dims(args) -> int:
    curve = NodalCurve(args.g1, args.g2)
    inputs = {"g1": str(args.g1), "g2": str(args.g2), "r": str(args.r)}
    outputs = {
        "component": component_dimension(curve, args.r),
        "pf_bundle": projective_bundle_dimension(curve, args.r),
        "fixed_det_fiber": fixed_det_fiber_dimension(curve, args.r),
    }
    _emit("dims", inputs, outputs, [])
    return 0


def _cmd_mk_test(args) -> int:
    holds = mk_semistable_test(
        (args.sub_d, args.sub_rk), (args.amb_d, args.amb_rk), args.m, args.k,
        strict=args.strict,
    )
    inputs = {
        "sub_d": str(args.sub_d),
        "sub_rk": str(args.sub_rk),
        "amb_d": str(args.amb_d),
        "amb_rk": str(args.amb_rk),
        "m": str(args.m),
        "k": str(args.k),
        "strict": str(args.strict).lower(),
    }
    _emit("mk-test", inputs, {"holds": holds}, [])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.  Reusing it is safe:
    parse_args reads the parser and fills a fresh Namespace, every default
    here is immutable, and usage text is formatted (at the COLUMNS of that
    moment) only when it is printed."""
    parser = argparse.ArgumentParser(
        prog="nodalmoduli",
        description="Exact feasibility and moduli invariants for sheaves glued "
        "over a two-component nodal curve.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("feasible", help="compatible-polarization interval for a gluing")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--chi1", type=int, required=True)
    p.add_argument("--chi2", type=int, required=True)
    p.set_defaults(handler=_cmd_feasible)

    p = sub.add_parser("region", help="feasibility over a lattice box of (chi1, chi2)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--chi1", type=int_range_arg, required=True, metavar="LO:HI")
    p.add_argument("--chi2", type=int_range_arg, required=True, metavar="LO:HI")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    # Let "--chi1 -5:5" parse: argparse treats only plain negative numbers as values.
    p._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$|^-\d*\.\d+$")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("components", help="moduli components for (g1, g2, r, chi, w)")
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--w1", type=rational_arg, required=True, metavar="P/Q")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(handler=_cmd_components)

    p = sub.add_parser("glue", help="invariants of the sheaf glued by a matrix")
    p.add_argument("--matrix", required=True, help="JSON file: rows of 'p/q' entries")
    p.add_argument("--chi1", type=int, required=True)
    p.add_argument("--chi2", type=int, required=True)
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser(
        "check-sufficiency", help="extremal subsheaf-slope sweep for a gluing"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--chi1", type=int, required=True)
    p.add_argument("--chi2", type=int, required=True)
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--w1", type=rational_arg, default=None, metavar="P/Q")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_check_sufficiency)

    p = sub.add_parser("dims", help="dimension formulas for the moduli space")
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("mk-test", help="shifted-slope (m,k)-semistability comparison")
    p.add_argument("--sub-d", type=int, required=True)
    p.add_argument("--sub-rk", type=int, required=True)
    p.add_argument("--amb-d", type=int, required=True)
    p.add_argument("--amb-rk", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_mk_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # the reader has gone; console_main ends quietly
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, sort_keys=True, indent=2))
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
