"""Command-line front end with deterministic JSON/CSV output.

Every command prints one JSON document (sorted keys) holding the command
name, its inputs, the structured outputs, and any warnings; the scan-type
commands can emit CSV instead, with each warning on stderr.  Rational
inputs are accepted only as "p/q" or integer strings, never decimals.

Exit codes: 0 success; 1 domain error (structured error JSON on stdout);
2 usage error (argparse message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

from .curves import NodalCurve, Polarization
from .feasibility import feasible_interval, region_runs
from .gluing import GluingDatum, glued_class, parse_matrix
from .moduli import (
    component_dimension,
    component_rows,
    fixed_det_fiber_dimension,
    is_generic_for,
    projective_bundle_dimension,
)
from .rationals import parse_rational, short_repr
from .stability import StabilityHypotheses, check_sufficiency, mk_semistable_test

MAX_CELLS_ENV = "NODAL_MODULI_MAX_CELLS"
DEFAULT_MAX_CELLS = 10**6

# Rows per write (at most, for a region) of a streamed region or component
# list: enough to amortise the write, few enough that memory stays flat in
# the size of the output.
REGION_BATCH = 1000

_JSON_BOOL = {False: "false", True: "true"}

# An integer as int() reads it, but of any length: int() refuses a match only
# for its digits.  Spaces are \s less \x1c-\x1f, which int() does not strip.
_INTEGER_RE = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*")

# What argparse reads as a value, not an option, such as "-5:+3" and "-1_0":
# no option here starts with "-" and a digit.
_NEGATIVE_VALUE_RE = re.compile(r"^-\.?\d")

# Parsed arguments that are not inputs of the command.
_NOT_ECHOED = frozenset({"subcommand", "handler", "format"})


def rational_arg(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_arg(text: str) -> int:
    """int(text), the type of every integer option.  A refusal quotes text
    through short_repr, and names the digit limit when that is the cause."""
    try:
        return int(text)
    except ValueError:
        too_long = _INTEGER_RE.fullmatch(text)
        what = "too many digits in integer" if too_long else "invalid int value"
        raise argparse.ArgumentTypeError(f"{what}: {short_repr(text)}") from None


def int_range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {short_repr(text)}")
    if not (_INTEGER_RE.fullmatch(lo) and _INTEGER_RE.fullmatch(hi)):
        raise argparse.ArgumentTypeError(f"expected integer bounds in {short_repr(text)}")
    return _int_arg(lo), _int_arg(hi)


def _echo(value) -> str:
    """One parsed argument as the inputs echo writes it."""
    if isinstance(value, bool):
        return _JSON_BOOL[value]
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    return str(value)


def _document(args, outputs: dict, warnings) -> str:
    """The document of args.subcommand: its parsed arguments echoed as
    inputs, with the outputs and warnings."""
    inputs = {
        name: _echo(value)
        for name, value in vars(args).items()
        if name not in _NOT_ECHOED
    }
    doc = {
        "command": args.subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "warnings": warnings,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit(args, outputs: dict, warnings=()) -> None:
    print(_document(args, outputs, warnings))


def _emit_streamed(args, outputs: dict, key: str, batches, warnings=()) -> None:
    """Print the document whose outputs[key] is [] with the JSON texts
    streamed into those brackets one batch (of texts joined by ",\n") per
    write.  There must be at least one batch."""
    text = _document(args, outputs, warnings)
    head, _, tail = text.partition(f'"{key}": []')
    sys.stdout.write(head + f'"{key}": [\n')
    _write_batches(batches, ",\n")
    sys.stdout.write("\n    ]" + tail + "\n")


def _cmd_feasible(args) -> None:
    _emit(args, feasible_interval(args.r, args.k, args.chi1, args.chi2).to_json())


def _json_cell(chi1, chi2, lower, upper, lower_open, upper_open) -> str:
    """The text of one region cell, laid out exactly as json.dumps(...,
    sort_keys=True, indent=2) lays it out inside "cells"; lower is None on
    an infeasible cell, which is written as the open (0, 0)."""
    feasible = "true"
    if lower is None:
        feasible, lower, upper, lower_open, upper_open = "false", "0", "0", "true", "true"
    return f"""\
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


def _csv_row(chi1, chi2, lower, upper, lower_open, upper_open) -> str:
    """The CSV row of one region cell; lower is None on an infeasible cell,
    whose four interval columns are empty."""
    if lower is None:
        return f"{chi1},{chi2},false,,,,\n"
    return f"{chi1},{chi2},true,{lower},{upper},{lower_open},{upper_open}\n"


# Marks the fields in which the cells of one shape differ: chi1, chi2 and
# the closed endpoints.
_SLOT = "\0"

# str(i) for -_TEXTS_N <= i < _TEXTS_N, at _TEXTS[i]: negative indices wrap
# into the second half.  _run_text reads the ints of a cell with a closed
# end from it when in range: a lookup costs less than formatting the int.
_TEXTS_N = 1024
_TEXTS = [*map(str, range(_TEXTS_N)), *map(str, range(-_TEXTS_N, 0))]


def _shapes(layout) -> dict:
    """layout's text of each interval shape, cut at its slots: keyed by the
    openness flags (lo_open, hi_open) of a feasible cell, and by None for an
    infeasible one.  Open ends are "0" and "1"."""
    shapes = {None: layout(_SLOT, _SLOT, None, None, None, None).split(_SLOT)}
    for lo_open, hi_open in itertools.product((False, True), repeat=2):
        lower, upper = "0" if lo_open else _SLOT, "1" if hi_open else _SLOT
        text = layout(_SLOT, _SLOT, lower, upper, _JSON_BOOL[lo_open], _JSON_BOOL[hi_open])
        shapes[lo_open, hi_open] = text.split(_SLOT)
    return shapes


def _laid_out(runs, layout, sep: str):
    """The cells of region_runs' runs laid out by layout and joined by sep,
    in texts of at most REGION_BATCH cells.

    Each interval shape is laid out once; every run joins its chi1 into its
    shape's pieces, and _run_text fills the other slots, at most
    REGION_BATCH cells at a time.
    """
    shapes = _shapes(layout)
    batch, room = [], REGION_BATCH
    for chi1, first, last, bounds, step in runs:
        # An infeasible run has no closed end, and its shape's key is None.
        lo, hi, den, lo_open, hi_open = bounds or (0, 0, 0, True, True)
        ends = ([] if lo_open else [lo]) + ([] if hi_open else [hi])
        head, mid, *rest = shapes[bounds and (lo_open, hi_open)]
        pieces = [head + str(chi1) + mid, *rest]
        while first <= last:
            if not room:
                yield sep.join(batch)
                batch, room = [], REGION_BATCH
            n = min(room, last - first + 1)
            batch.append(_run_text(pieces, ends, range(first, first + n), den, step, sep))
            first, den, room = first + n, den + step * n, room - n
    if batch:
        yield sep.join(batch)


def _run_text(pieces, ends, chi2s, den, step, sep: str) -> str:
    """The cells chi2s of one run joined by sep: pieces is the run's layout
    cut at its slots, and ends holds the numerators of its closed endpoints,
    over a denominator that starts at den and moves by step per cell.

    Without a closed end the cells differ in chi2 alone, so they are one
    join over the chi2 values.  A closed endpoint lies strictly inside
    (0, 1), so it is never an integer, and its "p/q" is written from one gcd
    per cell.  chi2 and the p and q of each "p/q" are read from _TEXTS when
    in its range and formatted otherwise; p and q are positive, so they
    are compared with its upper end alone.
    """
    if not ends:
        head, tail = pieces
        return head + (tail + sep + head).join(map(str, chi2s)) + tail
    dens = range(den, den + step * len(chi2s), step)
    T, N = _TEXTS, _TEXTS_N
    if len(ends) == 1:
        head, mid, tail = pieces
        (e,) = ends
        return sep.join([
            f"{head}{T[c] if c < N and c >= -N else c}{mid}{T[x] if (x := e // g) < N else x}/"
            f"{T[y] if (y := d // g) < N else y}{tail}"
            for c, d in zip(chi2s, dens) for g in [math.gcd(e, d)]
        ])
    head, mid1, mid2, tail = pieces
    lo, hi = ends
    return sep.join([
        f"{head}{T[c] if c < N and c >= -N else c}{mid1}{T[x] if (x := lo // g) < N else x}/"
        f"{T[y] if (y := d // g) < N else y}{mid2}{T[x] if (x := hi // h) < N else x}/"
        f"{T[y] if (y := d // h) < N else y}{tail}"
        for c, d in zip(chi2s, dens) for g in [math.gcd(lo, d)] for h in [math.gcd(hi, d)]
    ])


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


def _batched(texts, sep: str):
    """texts joined by sep, REGION_BATCH at a time."""
    texts = iter(texts)
    while batch := list(itertools.islice(texts, REGION_BATCH)):
        yield sep.join(batch)


def _write_batches(batches, sep: str) -> None:
    """Write each batch in its own write, separated by sep."""
    lead = ""
    for batch in batches:
        sys.stdout.write(lead + batch)
        lead = sep


def _check_work(units: int, what: str) -> None:
    """Refuse a command whose work in units exceeds the cap,
    NODAL_MODULI_MAX_CELLS or DEFAULT_MAX_CELLS when unset; `what` names the
    work with a {} for the count, as in the region message.  A cap that is
    not an int is quoted through short_repr, and the digit limit is named
    when that is the cause."""
    raw = os.environ.get(MAX_CELLS_ENV)
    try:
        cap = DEFAULT_MAX_CELLS if raw is None else int(raw)
    except ValueError:
        cause = "has too many digits" if _INTEGER_RE.fullmatch(raw) else "must be an integer"
        raise ValueError(f"{MAX_CELLS_ENV} {cause}, got {short_repr(raw)}") from None
    if units > cap:
        raise ValueError(f"{what.format(units)} exceeds the cap of {cap}")


def _cmd_region(args) -> None:
    (lo1, hi1), (lo2, hi2) = args.chi1, args.chi2
    # Counted in ints: len(range(...)) overflows for bounds beyond ssize_t.
    count = max(0, hi1 - lo1 + 1) * max(0, hi2 - lo2 + 1)
    _check_work(count, "region of {} lattice points")
    runs = region_runs(args.r, args.k, args.chi1, args.chi2)
    if args.format == "csv":
        sys.stdout.write("chi1,chi2,feasible,w1_lo,w1_hi,w1_lo_open,w1_hi_open\n")
        _write_batches(_laid_out(runs, _csv_row, ""), "")
    elif count == 0:
        _emit(args, {"cells": [], "count": 0})
    else:
        cells = _laid_out(runs, _json_cell, ",\n")
        _emit_streamed(args, {"cells": [], "count": count}, "cells", cells)


def _cmd_components(args) -> None:
    _check_work(args.r + 1, "component enumeration of {} splittings")
    curve = NodalCurve(args.g1, args.g2)
    w = Polarization.from_w1(args.w1)
    rows = component_rows(curve, args.r, args.chi, w)
    generic = is_generic_for(args.chi, w)
    warnings = []
    if not generic:
        warnings.append(
            "non-generic polarization: window boundaries are integers, "
            "both boundary values included"
        )
    if args.format == "csv":
        for warning in warnings:  # CSV has no place for them
            print(f"warning: {warning}", file=sys.stderr)
        sys.stdout.write("chi1,chi2,d1,d2,dimension\n")
        _write_batches(_batched(_csv_components(rows), ""), "")
        return
    # r rows, or r + 1 when both window boundaries are integers.
    outputs = {"components": [], "count": args.r + (not generic)}
    batches = _batched(_json_components(rows), ",\n")
    _emit_streamed(args, outputs, "components", batches, warnings)


def _read_sigma(path: str) -> tuple[tuple[int, ...], ...]:
    """The matrix in the JSON file at path, as parse_matrix's integer rows.
    An array of n rows is refused when its n^3 elimination updates exceed
    the cap, before any cell is decoded.  The decoded JSON dies on return,
    so it is not held while the rank is eliminated.  Arrays nested deeper
    than the decoder's recursion limit are a ValueError, not a crash; so are
    a byte that is not UTF-8 and an integer cell of more digits than the
    interpreter converts: integers are decoded as text, so parse_ratio
    refuses such a cell by name.  A message names a path whose repr is
    longer than 40 characters through short_repr."""
    named = path if len(repr(path)) <= 40 else short_repr(path)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        # The message OSError writes, with the path quoted short.
        raise type(exc)(f"[Errno {exc.errno}] {exc.strerror}: {short_repr(path)}") from None
    with fh:
        try:
            raw = json.load(fh, parse_int=str)
        except RecursionError:
            raise ValueError(f"{named}: arrays nested too deeply to decode") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{named}: not UTF-8 at byte {exc.start}") from None
    if isinstance(raw, list):
        _check_work(len(raw) ** 3, "rank elimination of {} entry updates")
    return parse_matrix(raw)


def _cmd_glue(args) -> None:
    sigma = _read_sigma(args.matrix)
    datum = GluingDatum(r=len(sigma), k=None, chi1=args.chi1, chi2=args.chi2, sigma=sigma)
    sheaf, stalk, is_bundle = glued_class(datum)
    outputs = {
        "r": datum.r,
        "k": datum.k,
        "chi": sheaf.chi,
        "sheaf": sheaf.to_json(),
        "stalk": stalk.to_json(),
        "vector_bundle": is_bundle,
    }
    _emit(args, outputs)


def _cmd_check_sufficiency(args) -> None:
    shapes = (args.k + 1) * (args.r + 1) ** 2
    _check_work(shapes, "sufficiency sweep of {} subsheaf shapes")
    h = StabilityHypotheses(args.r, args.k, args.chi1, args.chi2, args.g1, args.g2)
    warnings = []
    if args.w1 is not None:
        w = Polarization.from_w1(args.w1)
    else:
        report = feasible_interval(args.r, args.k, args.chi1, args.chi2)
        if report.sample is None:
            raise ValueError(
                "no compatible polarization exists for this datum; supply --w1"
            )
        w = report.sample
        warnings.append(f"polarization defaulted to w1 = {w.w1}")
    holds, witness = check_sufficiency(h, w, strict=args.strict)
    args.w1 = w.w1  # echo the weight actually used
    outputs = {
        "holds": holds,
        "witness": None if witness is None else witness.to_json(),
        "w": w.to_json(),
        "d1": h.d1,
        "d2": h.d2,
    }
    _emit(args, outputs, warnings)


def _cmd_dims(args) -> None:
    curve = NodalCurve(args.g1, args.g2)
    outputs = {
        "component": component_dimension(curve, args.r),
        "pf_bundle": projective_bundle_dimension(curve, args.r),
        "fixed_det_fiber": fixed_det_fiber_dimension(curve, args.r),
    }
    _emit(args, outputs)


def _cmd_mk_test(args) -> None:
    holds = mk_semistable_test(
        (args.sub_d, args.sub_rk), (args.amb_d, args.amb_rk), args.m, args.k,
        strict=args.strict,
    )
    _emit(args, {"holds": holds})


def _int_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add each of names to parser as a required integer option, in order."""
    for name in names:
        parser.add_argument(name, type=_int_arg, required=True)


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
    _int_options(p, "--r", "--k", "--chi1", "--chi2")
    p.set_defaults(handler=_cmd_feasible)

    p = sub.add_parser("region", help="feasibility over a lattice box of (chi1, chi2)")
    _int_options(p, "--r", "--k")
    p.add_argument("--chi1", type=int_range_arg, required=True, metavar="LO:HI")
    p.add_argument("--chi2", type=int_range_arg, required=True, metavar="LO:HI")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("components", help="moduli components for (g1, g2, r, chi, w)")
    _int_options(p, "--g1", "--g2", "--r", "--chi")
    p.add_argument("--w1", type=rational_arg, required=True, metavar="P/Q")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(handler=_cmd_components)

    p = sub.add_parser("glue", help="invariants of the sheaf glued by a matrix")
    p.add_argument("--matrix", required=True, help="JSON file: rows of 'p/q' entries")
    _int_options(p, "--chi1", "--chi2")
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser(
        "check-sufficiency", help="extremal subsheaf-slope sweep for a gluing"
    )
    _int_options(p, "--r", "--k", "--chi1", "--chi2", "--g1", "--g2")
    p.add_argument("--w1", type=rational_arg, default=None, metavar="P/Q")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_check_sufficiency)

    p = sub.add_parser("dims", help="dimension formulas for the moduli space")
    _int_options(p, "--g1", "--g2", "--r")
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("mk-test", help="shifted-slope (m,k)-semistability comparison")
    _int_options(p, "--sub-d", "--sub-rk", "--amb-d", "--amb-rk", "--m", "--k")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_mk_test)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except BrokenPipeError:
        raise  # the reader has gone; console_main ends quietly
    except (ValueError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, sort_keys=True, indent=2))
        return 1
    return 0


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
