"""Time one layer of two source trees on named classes of inputs.

    python3 bench/ab.py LAYER A_SRC B_SRC [SEED]

LAYER is ``matrix_rank``, ``parse_matrix``, ``region_layout`` or
``check_sufficiency``.  A_SRC and B_SRC are the ``src`` directories of two
checkouts (the same one twice gives the noise floor).  Each tree's package
is loaded under its own name, so both run in one process on the same
inputs.  SEED (default 1) fixes the inputs.  ``LAYERS`` maps each layer to
its classes and the function it times, so a new layer is one more entry
there.  The layers:

- ``matrix_rank``: ``gluing.matrix_rank`` on matrices;
- ``parse_matrix``: ``gluing.parse_matrix`` on matrices of cells as
  ``json.load(..., parse_int=str)`` returns them from a file, which is how
  the ``glue`` command hands them over;
- ``region_layout``: the region writer, ``cli._laid_out`` over
  ``feasibility.region_runs``, on boxes; a sample is one box's cell text,
  as the ``region`` command writes it between its header and its footer;
- ``check_sufficiency``: ``stability.check_sufficiency`` on feasible data
  at the sample weight of ``feasibility.feasible_interval``, non-strict or
  strict; the hypotheses and the weight are built once per datum, on the
  check before the timing, so a sample times the sweep alone.

The classes of ``matrix_rank`` are:

- ``glue-n<n>``: the glue-cli matrices of ``perfbench/inputs.rank_t_matrix``
  (rank n, n - 1 and 1..3), as ``parse_matrix`` hands them to the rank: rows
  of ints, each row of "p/q" cells times the lcm of its denominators;
- ``dense<n>-<d>d``: dense random rationals p/q with d-digit p and q, as
  ``Fraction`` entries;
- ``shared30-16``: small integers whose rows carry one of two factors of
  about 10**30;
- ``growth-n48``: 1 on the diagonal, -1 below it and 1 in the last column,
  and its negative: every pivot is +-1, but the last column doubles at
  each step, so its entries outgrow the packed slot partway through and
  the elimination hands off to lists;
- ``handoff-n64``: three unit-lead cores L diag(+-1) U, with L 1 on the
  diagonal and -1 below it and U unit upper triangular with entries in
  [-1, 1].  In each, column c = 8, 32 or 60 is replaced by 0 above row
  max(0, c - 16) and 1 from there down; under L's -1s it doubles at every
  step from that row's step on, so the handoff comes early, mid-way or
  late (at steps 11-14, 27-28 and 55-56 over seeds 1-10).

The classes of ``parse_matrix`` are:

- ``glue-n<n>``: the same matrices as ``matrix_rank``'s classes of that
  name for a given seed, as cells;
- ``ints-n64``: three 64x64 matrices of JSON integers of up to 4 digits;
- ``padded-n64``: three 64x64 matrices of "p/q" cells with a sign, leading
  zeros, unreduced fractions and spaces around the cell.

The classes of ``region_layout`` hold one box each:

- ``first-json``: the first box of ``perfbench/inputs.region_requests``,
  the 10**5-cell JSON box that opens every region-box run;
- ``largest-json``, ``largest-csv`` and ``median-<format>``: the largest
  JSON box, the largest CSV box and the box of median size among the
  LATER requests after it, for the given seed;
- ``narrow-json`` and ``narrow-csv``: the 10,001 x 8 box r = 4, k = 2,
  chi1 -5000..5000, chi2 0..7, whose rows are cut into runs of one to
  four cells, narrower than any row of region-box;
- ``tall-json`` and ``tall-csv``: the 100,000 x 1 box r = 3, k = 2,
  chi1 -50000..49999, chi2 0..0, one cell per row, where the per-row cost
  of the writer is paid once per cell.
- ``far-json`` and ``far-csv``: the 300 x 300 box r = 3, k = 2,
  chi1 2,000,000..2,000,299, chi2 1,100..1,399, whose cells all have two
  closed ends and print every chi2, numerator and denominator at 1,024 or
  more, past the writer's table of int texts, so they are all formatted.

The classes of ``check_sufficiency`` hold (datum, strict) pairs, an
``inputs.Datum`` and a mode:

- ``r4``, ``r8`` and ``r16``: the data of that r among the first
  ``3 * inputs.CLASS_DECK`` requests of ``perfbench/inputs.classify_requests``,
  one deck per r, less the deck's one infeasible datum, so 23 each;
- ``r32``: the first ``R32`` feasible data of ``classify_requests`` with its
  ranks set to (32,);
- ``r<r>``, non-strict, and ``r<r>-strict``, strict, hold the same data.

Before a class is timed, both trees run on each of its inputs, and the
script stops if they return different results.  Then the trees run in the
order A B B A, ROUNDS times; one sample is the time of one pass over the
class's inputs, divided by their number, and each B sample is paired with
the A sample next to it.  The script prints, per class, each tree's median
and quartiles in ms per input, the ratio of the medians B/A and how many
of the 2 * ROUNDS pairs B won (ran faster in), after the Python version
and both commits.  It needs only the standard library.
"""

from __future__ import annotations

import functools
import gc
import importlib
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py, for the glue and region inputs)

ROUNDS = 5

# Requests after the first among which region_layout's largest and median
# boxes are picked.
LATER = 400

NARROW = (4, 2, (-5000, 5000), (0, 7))
TALL = (3, 2, (-50000, 49999), (0, 0))
FAR = (3, 2, (2_000_000, 2_000_299), (1_100, 1_399))

# Feasible data in check_sufficiency's r32 class.
R32 = 3


def load(src: str, name: str):
    """The package under src, imported as the package `name`, with its cli
    module."""
    package = os.path.join(os.path.abspath(src), "nodalmoduli")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def commit(src: str) -> str:
    """The short commit of the checkout holding src, "+dirty" when src has
    uncommitted changes, or "unknown" outside a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", src, *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain", "--", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def glue_classes(rng: random.Random, convert) -> dict[str, list]:
    """``glue-n<n>`` -> the glue-cli matrices of that size, each converted
    from its "p/q" cells by convert."""
    return {
        f"glue-n{n}": [
            convert(inputs.rank_t_matrix(rng, n, t)) for t in (n, n - 1, rng.randint(1, 3))
        ]
        for n in inputs.GLUE_SIZES
    }


def int_rows(cells: list[list[str]]) -> tuple[tuple[int, ...], ...]:
    """Rows of "p/q" cells as parse_matrix returns them."""
    rows = []
    for row in cells:
        entries = [Fraction(cell) for cell in row]
        scale = math.lcm(*(e.denominator for e in entries))
        rows.append(tuple(e.numerator * (scale // e.denominator) for e in entries))
    return tuple(rows)


def rank_classes(seed: int) -> dict[str, list]:
    """matrix_rank's class name -> its matrices, the same for a given seed."""
    rng = random.Random(seed)
    out = glue_classes(rng, int_rows)

    def dense(n: int, d: int) -> list[list[Fraction]]:
        def part(low: int) -> int:
            return rng.randint(max(low, 10 ** (d - 1)), 10**d - 1)

        return [
            [Fraction(rng.choice((-1, 1)) * part(0), part(1)) for _ in range(n)]
            for _ in range(n)
        ]

    for n, d, count in ((16, 2, 3), (16, 5, 3), (16, 50, 1), (32, 3, 1), (48, 2, 1)):
        out[f"dense{n}-{d}d"] = [dense(n, d) for _ in range(count)]
    shared = (rng.randint(10**29, 10**31), rng.randint(10**29, 10**31))
    out["shared30-16"] = [
        [[f * rng.randint(-5, 5) for _ in range(16)] for f in rng.choices(shared, k=16)]
        for _ in range(3)
    ]
    out["growth-n48"] = [
        [[sign * (1 if j in (i, 47) else -1 if j < i else 0) for j in range(48)]
         for i in range(48)]
        for sign in (1, -1)
    ]

    def handoff_core(c: int) -> list[list[int]]:
        n = 64
        d = [rng.choice((-1, 1)) for _ in range(n)]
        up = [[rng.randint(-1, 1) if j > i else int(i == j) for j in range(n)] for i in range(n)]
        # Row i of L diag(d) U is d_i U_i less the sum of the rows above it.
        rows, above = [], [0] * n
        for i in range(n):
            row = [d[i] * u for u in up[i]]
            rows.append([a - b for a, b in zip(row, above)])
            above = [a + b for a, b in zip(above, row)]
        for i, row in enumerate(rows):
            row[c] = int(i >= c - 16)
        return rows

    out["handoff-n64"] = [handoff_core(c) for c in (8, 32, 60)]
    return out


def as_read(cells: list) -> list:
    """The matrix as the glue command reads it back from a JSON file."""
    return json.loads(json.dumps(cells), parse_int=str)


def parse_classes(seed: int) -> dict[str, list]:
    """parse_matrix's class name -> its matrices of cells, the same for a
    given seed."""
    rng = random.Random(seed)
    out = glue_classes(rng, as_read)
    out["ints-n64"] = [
        as_read([[rng.randint(-9999, 9999) for _ in range(64)] for _ in range(64)])
        for _ in range(3)
    ]

    def padded() -> str:
        m = rng.randint(1, 4)
        p, q = rng.randint(-99, 99) * m, rng.randint(1, 99) * m
        sign = "+" if p >= 0 and rng.random() < 0.5 else ""
        return f"{' ' * rng.randint(0, 2)}{sign}{p:03d}/{q:03d}{' ' * rng.randint(0, 2)}"

    out["padded-n64"] = [
        as_read([[padded() for _ in range(64)] for _ in range(64)]) for _ in range(3)
    ]
    return out


def region_classes(seed: int) -> dict[str, list]:
    """region_layout's class name -> its one box, an ``inputs.Region``, the
    same for a given seed."""
    requests = itertools.islice(inputs.region_requests(seed), 1 + LATER)
    first, *later = requests
    by_size = sorted(later, key=lambda box: box.cells)
    median = by_size[len(by_size) // 2]
    out = {"first-json": [first]}
    for fmt in ("json", "csv"):
        out[f"largest-{fmt}"] = [max((b for b in by_size if b.fmt == fmt), key=lambda b: b.cells)]
    out[f"median-{median.fmt}"] = [median]
    for shape, box in (("narrow", NARROW), ("tall", TALL), ("far", FAR)):
        for fmt in ("json", "csv"):
            out[f"{shape}-{fmt}"] = [inputs.Region(*box, fmt)]
    return out


def laid_out(cli):
    """The function from a box to the cell text cli's region command
    writes for it."""
    def text(box) -> str:
        layout, sep = (cli._csv_row, "") if box.fmt == "csv" else (cli._json_cell, ",\n")
        runs = cli.region_runs(box.r, box.k, box.chi1, box.chi2)
        return sep.join(cli._laid_out(runs, layout, sep))

    return text


def feasible(datum) -> bool:
    """Whether perfbench's own oracle finds the datum feasible."""
    return inputs.oracle.interval(datum.r, datum.k, datum.chi1, datum.chi2)[0]


def sufficiency_classes(seed: int) -> dict[str, list]:
    """check_sufficiency's class name -> its (datum, strict) pairs, the same
    for a given seed."""
    requests = itertools.islice(inputs.classify_requests(seed), 3 * inputs.CLASS_DECK)
    by_r = {f"r{r}": [] for r in inputs.CLASSIFY_RANKS}
    for datum in filter(feasible, requests):
        by_r[f"r{datum.r}"].append(datum)
    with mock.patch.object(inputs, "CLASSIFY_RANKS", (32,)):
        by_r["r32"] = list(itertools.islice(filter(feasible, inputs.classify_requests(seed)), R32))
    out = {}
    for name, data in by_r.items():
        out[name] = [(datum, False) for datum in data]
        out[f"{name}-strict"] = [(datum, True) for datum in data]
    return out


def sufficiency(package):
    """The function from a (datum, strict) pair to package's
    check_sufficiency answer for it, at the datum's sample weight."""
    @functools.cache
    def built(datum):
        report = package.feasibility.feasible_interval(datum.r, datum.k, datum.chi1, datum.chi2)
        return package.stability.StabilityHypotheses(*datum), report.sample

    def check(case):
        datum, strict = case
        return package.stability.check_sufficiency(*built(datum), strict=strict)

    return check


# Layer -> (its classes for a seed, the function it times in a package).
LAYERS = {
    "matrix_rank": (rank_classes, lambda package: package.gluing.matrix_rank),
    "parse_matrix": (parse_classes, lambda package: package.gluing.parse_matrix),
    "region_layout": (region_classes, lambda package: laid_out(package.cli)),
    "check_sufficiency": (sufficiency_classes, sufficiency),
}


def sample_ms(fn, inputs: list) -> float:
    gc.collect()
    start = time.perf_counter()
    for x in inputs:
        fn(x)
    return (time.perf_counter() - start) * 1e3 / len(inputs)


def compare(a_src: str, b_src: str, seed: int, fn_a, fn_b, cases: dict[str, list]) -> None:
    """Print the header and, per class, each tree's median and quartiles of
    ROUNDS ABBA samples, the ratio B/A and the pairs B won, after checking
    that fn_a and fn_b return the same on every input of the class."""
    print(f"python {platform.python_version()} on {platform.machine()}, seed {seed}, "
          f"{ROUNDS} ABBA rounds")
    print(f"A: {a_src} @ {commit(a_src)}")
    print(f"B: {b_src} @ {commit(b_src)}")
    print(f"{'class':<13} {'A median [q1-q3] ms':>26} {'B median [q1-q3] ms':>26} {'B/A':>6}"
          f" {'B won':>6}")
    for name, inputs in cases.items():
        if list(map(fn_a, inputs)) != list(map(fn_b, inputs)):
            raise SystemExit(f"{name}: the trees disagree")
        times = {fn_a: [], fn_b: []}
        for _ in range(ROUNDS):
            for fn in (fn_a, fn_b, fn_b, fn_a):
                times[fn].append(sample_ms(fn, inputs))
        cols = []
        for fn in (fn_a, fn_b):
            q1, median, q3 = statistics.quantiles(times[fn], n=4)
            cols.append((median, f"{median:.3g} [{q1:.3g}-{q3:.3g}]"))
        ratio = cols[1][0] / cols[0][0]
        # Sample i of each tree comes from the same half of one ABBA round.
        won = sum(b < a for a, b in zip(times[fn_a], times[fn_b]))
        print(f"{name:<13} {cols[0][1]:>26} {cols[1][1]:>26} {ratio:>6.2f}"
              f" {f'{won}/{2 * ROUNDS}':>6}")


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or argv[0] not in LAYERS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    layer, a_src, b_src = argv[:3]
    seed = int(argv[3]) if len(argv) == 4 else 1
    classes, timed = LAYERS[layer]
    fn_a = timed(load(a_src, "nodalmoduli_a"))
    fn_b = timed(load(b_src, "nodalmoduli_b"))
    compare(a_src, b_src, seed, fn_a, fn_b, classes(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
