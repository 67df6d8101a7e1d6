"""Time the region writer, cli._laid_out over feasibility.region_runs, of
two source trees on named boxes.

    python3 bench/region_layout.py A_SRC B_SRC [SEED]

A_SRC and B_SRC are the ``src`` directories of two checkouts (the same one
twice gives the noise floor).  The trees are loaded, timed and reported as
``bench/matrix_rank.py`` does, whose loader and table this script imports;
a sample is one box's cell text, as the ``region`` command writes it
between its header and its footer.  Each class holds one box:

- ``first-json``: the first box of ``perfbench/inputs.region_requests``,
  the 10**5-cell JSON box that opens every region-box run;
- ``largest-json``, ``largest-csv`` and ``median-<format>``: the largest
  JSON box, the largest CSV box and the box of median size among the
  LATER requests after it, for the given seed;
- ``narrow-json`` and ``narrow-csv``: the 10,001 x 8 box r = 4, k = 2,
  chi1 -5000..5000, chi2 0..7, whose rows are cut into runs of one to
  four cells, narrower than any row of region-box.

It needs only the standard library.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from matrix_rank import compare, inputs, load_matrix_rank  # noqa: E402

# Requests after the first among which the largest and median boxes are
# picked.
LATER = 400

NARROW = (4, 2, (-5000, 5000), (0, 7))


def classes(seed: int) -> dict[str, list]:
    """Class name -> its one box, an ``inputs.Region``, the same for a
    given seed."""
    requests = itertools.islice(inputs.region_requests(seed), 1 + LATER)
    first, *later = requests
    by_size = sorted(later, key=lambda box: box.cells)
    median = by_size[len(by_size) // 2]
    out = {"first-json": [first]}
    for fmt in ("json", "csv"):
        out[f"largest-{fmt}"] = [max((b for b in by_size if b.fmt == fmt), key=lambda b: b.cells)]
    out[f"median-{median.fmt}"] = [median]
    for fmt in ("json", "csv"):
        out[f"narrow-{fmt}"] = [inputs.Region(*NARROW, fmt)]
    return out


def laid_out(cli):
    """The function from a box to the cell text cli's region command
    writes for it."""
    def text(box) -> str:
        layout, sep = (cli._csv_row, "") if box.fmt == "csv" else (cli._json_cell, ",\n")
        runs = cli.region_runs(box.r, box.k, box.chi1, box.chi2)
        return sep.join(cli._laid_out(runs, layout, sep))

    return text


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_src, b_src = argv[:2]
    seed = int(argv[2]) if len(argv) == 3 else 1
    trees = []
    for src, name in ((a_src, "nodalmoduli_a"), (b_src, "nodalmoduli_b")):
        load_matrix_rank(src, name)
        trees.append(laid_out(importlib.import_module(f"{name}.cli")))
    compare(a_src, b_src, seed, *trees, classes(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
