"""Time gluing.parse_matrix of two source trees on named classes of cells.

    python3 bench/parse_matrix.py A_SRC B_SRC [SEED]

A_SRC and B_SRC are the ``src`` directories of two checkouts (the same one
twice gives the noise floor).  The trees are loaded, timed and reported as
``bench/matrix_rank.py`` does, whose loader and table this script imports.
Every class holds matrices as ``json.load(..., parse_int=str)`` returns
them from a file, which is how the ``glue`` command hands them over:

- ``glue-n<n>``: the glue-cli matrices of ``perfbench/inputs.rank_t_matrix``
  (rank n, n - 1 and 1..3), the same ones as ``bench/matrix_rank.py``'s
  classes of that name for a given seed;
- ``ints-n64``: three 64x64 matrices of JSON integers of up to 4 digits;
- ``padded-n64``: three 64x64 matrices of "p/q" cells with a sign, leading
  zeros, unreduced fractions and spaces around the cell.

One sample is the time of one pass over a class's matrices, divided by
their number.  It needs only the standard library.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from matrix_rank import compare, inputs, load_matrix_rank  # noqa: E402


def as_read(cells: list) -> list:
    """The matrix as the glue command reads it back from a JSON file."""
    return json.loads(json.dumps(cells), parse_int=str)


def classes(seed: int) -> dict[str, list]:
    """Class name -> its matrices, the same for a given seed."""
    rng = random.Random(seed)
    out = {}
    for n in inputs.GLUE_SIZES:
        out[f"glue-n{n}"] = [
            as_read(inputs.rank_t_matrix(rng, n, t)) for t in (n, n - 1, rng.randint(1, 3))
        ]
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


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_src, b_src = argv[:2]
    seed = int(argv[2]) if len(argv) == 3 else 1
    parse_a = sys.modules[load_matrix_rank(a_src, "nodalmoduli_a").__module__].parse_matrix
    parse_b = sys.modules[load_matrix_rank(b_src, "nodalmoduli_b").__module__].parse_matrix
    compare(a_src, b_src, seed, parse_a, parse_b, classes(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
