"""Seeded inputs for the three workloads.

The same seed always gives the same request sequence.  Request streams are
endless; the closed loop takes as many as fit in the measured time.  Where a
property would make the per-request cost swing from run to run (box size in
region-box, r in classify-sweep, n and rank in glue-cli), the sequence is
stratified rather than drawn independently, so every seed sees the same mix
and only the details vary.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

import oracle

WORKLOADS = ("region-box", "classify-sweep", "glue-cli")

# region-box: the first request is one JSON box of LARGEST_BOX cells, so the
# peak-memory request is the same in every run.  Later sizes lie in
# [SMALLEST_BOX, LARGE_BOX] with a triangular distribution of log size, so
# many requests sit near the median size and request_p50_ms averages over
# them; a golden-ratio sequence with a seeded offset spreads them evenly, and
# formats alternate JSON, CSV.
LARGEST_BOX = 100_000
SMALLEST_BOX = 1_000
LARGE_BOX = 30_000
_GOLDEN = (math.sqrt(5) - 1) / 2

# classify-sweep: r cycles through these.  Per r, one datum in CLASS_DECK is
# infeasible and one has chi = 0 (feasible, weight non-generic); a third of
# the data sit at g1 = g2 = r + 2.  The sweep cost depends on (r, k) only,
# so latencies form plateaus; these shares put the median inside the wide
# r = 8, k >= 4 plateau rather than on a step between two plateaus.
CLASSIFY_RANKS = (4, 8, 16)
CLASS_DECK = 24

# glue-cli: n follows GLUE_CYCLE, the rank kind cycles through full, n - 1
# and small t; GLUE_VARIANTS distinct matrices per (n, kind) are written
# once.  Two thirds of the requests are small (n = 8, 16), where the CLI's
# per-request cost dominates, so the median sits among them and not on the
# step up to n = 32.
GLUE_SIZES = (8, 16, 32, 64)
GLUE_CYCLE = (8, 16, 8, 16, 32, 64)
GLUE_KINDS = ("full", "corank1", "small")
GLUE_VARIANTS = 4


class Region(NamedTuple):
    r: int
    k: int
    chi1: tuple[int, int]
    chi2: tuple[int, int]
    fmt: str

    @property
    def cells(self) -> int:
        return (self.chi1[1] - self.chi1[0] + 1) * (self.chi2[1] - self.chi2[0] + 1)


class Datum(NamedTuple):
    r: int
    k: int
    chi1: int
    chi2: int
    g1: int
    g2: int


class Glue(NamedTuple):
    path: str
    n: int
    t: int
    chi1: int
    chi2: int


def region_requests(seed: int) -> Iterator[Region]:
    """Lattice boxes centred near (chi1, chi2) = (0, r), so every box spans
    negative ranges, crosses the chi = 0 diagonal chi1 + chi2 = r, and is
    about half feasible (the two feasible quadrants meet near that point)."""
    rng = random.Random(seed)
    offset = rng.random()
    span = math.log10(LARGE_BOX / SMALLEST_BOX)
    i = 0
    while True:
        if i == 0:
            cells, fmt = LARGEST_BOX, "json"
        else:
            u = (offset + i * _GOLDEN) % 1.0
            # Inverse CDF of the symmetric triangular distribution on [0, 1].
            t = math.sqrt(u / 2) if u < 0.5 else 1 - math.sqrt((1 - u) / 2)
            cells = round(SMALLEST_BOX * 10 ** (span * t))
            fmt = "json" if i % 2 == 0 else "csv"
        r = rng.randint(2, 8)
        k = rng.randint(1, r)
        n1 = max(1, round(math.sqrt(cells * 2 ** rng.uniform(-1, 1))))
        n2 = max(1, round(cells / n1))
        lo1 = -(n1 // 2) + rng.randint(-(n1 // 8), n1 // 8)
        lo2 = r - n2 // 2 + rng.randint(-(n2 // 8), n2 // 8)
        yield Region(r, k, (lo1, lo1 + n1 - 1), (lo2, lo2 + n2 - 1), fmt)
        i += 1


def _decks(rng: random.Random, cards: list):
    """Endless draws that use every card once per shuffled deck."""
    while True:
        deck = list(cards)
        rng.shuffle(deck)
        yield from deck


def classify_requests(seed: int) -> Iterator[Datum]:
    """r cycles through CLASSIFY_RANKS; per r, k, the feasibility class and
    the genus choice come from shuffled decks, so their shares are the same
    for every seed and only the order and the exact values vary."""
    rng = random.Random(seed)
    streams = {
        r: (
            _decks(rng, list(range(1, r + 1))),
            _decks(rng, ["infeasible"] + ["chi0"] + ["feasible"] * (CLASS_DECK - 2)),
            _decks(rng, [True, False, False]),
        )
        for r in CLASSIFY_RANKS
    }
    i = 0
    while True:
        r = CLASSIFY_RANKS[i % len(CLASSIFY_RANKS)]
        ks, classes, at_bound = streams[r]
        k, cls = next(ks), next(classes)
        if cls == "chi0":
            chi1 = rng.randint(0, k)
            chi2 = r - chi1
        else:
            while True:
                chi1, chi2 = rng.randint(-r, 2 * r), rng.randint(-r, 2 * r)
                feasible = oracle.interval(r, k, chi1, chi2)[0]
                if chi1 + chi2 != r and feasible == (cls == "feasible"):
                    break
        if next(at_bound):
            g1 = g2 = r + 2
        else:
            g1, g2 = rng.randint(1, r + 3), rng.randint(1, r + 3)
        yield Datum(r, k, chi1, chi2, g1, g2)
        i += 1


def glue_requests(seed: int, pool: list[dict]) -> Iterator[Glue]:
    """Cycle through the written pool: n fastest (GLUE_CYCLE), then rank
    kind, then variant."""
    rng = random.Random(seed)
    index = {(m["n"], m["kind"], m["variant"]): m for m in pool}
    per_kind = len(GLUE_CYCLE)
    i = 0
    while True:
        n = GLUE_CYCLE[i % per_kind]
        kind = GLUE_KINDS[(i // per_kind) % len(GLUE_KINDS)]
        variant = (i // (per_kind * len(GLUE_KINDS))) % GLUE_VARIANTS
        m = index[(n, kind, variant)]
        yield Glue(m["path"], n, m["t"], rng.randint(-2 * n, 2 * n), rng.randint(-2 * n, 2 * n))
        i += 1


def _format(x: Fraction) -> str:
    """Render as "p/q" or "p".  Written here so the matrix files do not
    depend on the rational codec that glue-cli exercises."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rank_t_matrix(rng: random.Random, n: int, t: int) -> list[list[str]]:
    """An n x n rational matrix of rank exactly t.

    L diag(d) R with L unit lower and R unit upper triangular (both
    unimodular) and d nonzero on the first t places only, then every row and
    every column scaled by a nonzero rational.
    """
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(t)]
    low = [[rng.randint(-2, 2) for _ in range(i)] + [1] for i in range(n)]
    up = [[1] + [rng.randint(-2, 2) for _ in range(n - 1 - i)] for i in range(n)]
    # (L diag(d) R)[i][j] sums over l <= min(i, j) with l < t.
    core = [
        [
            sum(low[i][l] * d[l] * up[l][j - l] for l in range(min(t, i + 1, j + 1)))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def scale() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))

    rows = [scale() for _ in range(n)]
    cols = [scale() for _ in range(n)]
    return [[_format(rows[i] * core[i][j] * cols[j]) for j in range(n)] for i in range(n)]


def write_glue_pool(seed: int, directory: str) -> list[dict]:
    """Write the glue-cli matrices and a small warm-up matrix as JSON files."""
    rng = random.Random(seed)
    pool = []
    for n in GLUE_SIZES:
        for kind in GLUE_KINDS:
            for variant in range(GLUE_VARIANTS):
                t = {"full": n, "corank1": n - 1, "small": rng.randint(1, 3)}[kind]
                path = os.path.join(directory, f"m{n}-{kind}-{variant}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(rank_t_matrix(rng, n, t), fh)
                pool.append({"path": path, "n": n, "t": t, "kind": kind, "variant": variant})
    with open(os.path.join(directory, "warmup.json"), "w", encoding="utf-8") as fh:
        json.dump(rank_t_matrix(rng, 4, 3), fh)
    with open(os.path.join(directory, "pool.json"), "w", encoding="utf-8") as fh:
        json.dump(pool, fh)
    return pool
