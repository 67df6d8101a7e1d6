"""Time gluing.matrix_rank of two source trees on named classes of matrices.

    python3 bench/matrix_rank.py A_SRC B_SRC [SEED]

A_SRC and B_SRC are the ``src`` directories of two checkouts (the same one
twice gives the noise floor).  Each tree's package is loaded under its own
name, so both run in one process on the same matrices.  The classes are:

- ``glue-n<n>``: the glue-cli matrices of ``perfbench/inputs.rank_t_matrix``
  (rank n, n - 1 and 1..3), as ``parse_matrix`` hands them to the rank: rows
  of ints, each row of "p/q" cells times the lcm of its denominators;
- ``dense<n>-<d>d``: dense random rationals p/q with d-digit p and q, as
  ``Fraction`` entries;
- ``shared30-16``: small integers whose rows carry one of two factors of
  about 10**30.

For each class the trees run in the order A B B A, ROUNDS times; one sample
is the time of one pass over the class's matrices, divided by their number.
The script prints, per class, each tree's median and quartiles in ms per
matrix and the ratio of the medians B/A, after the Python version and both
commits.  It needs only the standard library.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py, for the glue-cli matrices)

ROUNDS = 5


def load_matrix_rank(src: str, name: str):
    """matrix_rank of the package under src, imported as the package `name`."""
    package = os.path.join(os.path.abspath(src), "nodalmoduli")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.gluing").matrix_rank


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


def int_rows(cells: list[list[str]]) -> tuple[tuple[int, ...], ...]:
    """Rows of "p/q" cells as parse_matrix returns them."""
    rows = []
    for row in cells:
        entries = [Fraction(cell) for cell in row]
        scale = math.lcm(*(e.denominator for e in entries))
        rows.append(tuple(e.numerator * (scale // e.denominator) for e in entries))
    return tuple(rows)


def classes(seed: int) -> dict[str, list]:
    """Class name -> its matrices, the same for a given seed."""
    rng = random.Random(seed)
    out = {}
    for n in inputs.GLUE_SIZES:
        out[f"glue-n{n}"] = [
            int_rows(inputs.rank_t_matrix(rng, n, t)) for t in (n, n - 1, rng.randint(1, 3))
        ]

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
    return out


def sample_ms(fn, inputs: list) -> float:
    gc.collect()
    start = time.perf_counter()
    for x in inputs:
        fn(x)
    return (time.perf_counter() - start) * 1e3 / len(inputs)


def compare(a_src: str, b_src: str, seed: int, fn_a, fn_b, cases: dict[str, list]) -> None:
    """Print the header and, per class, each tree's median and quartiles of
    ROUNDS ABBA samples and the ratio B/A, after checking that fn_a and fn_b
    return the same on every input of the class."""
    print(f"python {platform.python_version()} on {platform.machine()}, seed {seed}, "
          f"{ROUNDS} ABBA rounds")
    print(f"A: {a_src} @ {commit(a_src)}")
    print(f"B: {b_src} @ {commit(b_src)}")
    print(f"{'class':<13} {'A median [q1-q3] ms':>26} {'B median [q1-q3] ms':>26} {'B/A':>6}")
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
        print(f"{name:<13} {cols[0][1]:>26} {cols[1][1]:>26} {ratio:>6.2f}")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_src, b_src = argv[:2]
    seed = int(argv[2]) if len(argv) == 3 else 1
    rank_a = load_matrix_rank(a_src, "nodalmoduli_a")
    rank_b = load_matrix_rank(b_src, "nodalmoduli_b")
    compare(a_src, b_src, seed, rank_a, rank_b, classes(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
