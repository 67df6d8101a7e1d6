"""Independent answer oracles for the benchmark workloads.

Nothing here imports nodalmoduli.  Every expected value is derived in
integer arithmetic from the closed forms, and every rational the program
prints or returns is compared by cross-multiplication, so a check never
shares interval, slope or rank code with the program it checks.

Each ``check_*`` function returns a list of error strings; an empty list
means the answer is correct.
"""

from __future__ import annotations

import math

# An endpoint is (numerator, denominator, open) with denominator > 0.
_ZERO_OPEN = (0, 1, True)
_ONE_OPEN = (1, 1, True)


def interval(r: int, k: int, chi1: int, chi2: int):
    """(feasible, lower, upper) of the admissible w1-interval.

    chi = chi1 + chi2 - r.  At chi = 0 the system reduces to 0 <= chi1 <= k
    and admits all of (0, 1).  Otherwise the raw interval has endpoints
    a/m <= b/m with m = |chi| (a = chi1 - k, b = chi1 for chi > 0;
    a = -chi1, b = k - chi1 for chi < 0), cut to the open unit interval.
    Since k >= 1 gives a < b, the cut is nonempty iff max(a, 0) < min(b, m).
    """
    chi = chi1 + chi2 - r
    if chi == 0:
        return 0 <= chi1 <= k, _ZERO_OPEN, _ONE_OPEN
    if chi > 0:
        a, b, m = chi1 - k, chi1, chi
    else:
        a, b, m = -chi1, k - chi1, -chi
    lower = (a, m, False) if a > 0 else _ZERO_OPEN
    upper = (b, m, False) if b < m else _ONE_OPEN
    return max(a, 0) < min(b, m), lower, upper


def parse_q(text: str) -> tuple[int, int]:
    """Read a printed rational "p" or "p/q"; the form must be canonical."""
    num, sep, den = text.partition("/")
    if not sep:
        return int(num), 1
    p, q = int(num), int(den)
    if q <= 1 or math.gcd(p, q) != 1:
        raise ValueError(f"non-canonical rational {text!r}")
    return p, q


def _same(p: int, q: int, endpoint) -> bool:
    return p * endpoint[1] == endpoint[0] * q


def _empty(lo, hi, lo_open, hi_open) -> bool:
    """Whether printed endpoints (p, q) describe an empty interval."""
    side = lo[0] * hi[1] - hi[0] * lo[1]
    return side > 0 or (side == 0 and (lo_open or hi_open))


def check_json_cell(r: int, k: int, chi1: int, chi2: int, cell) -> list[str]:
    """A ``region`` JSON cell: coordinates, verdict, endpoints and openness."""
    if (cell.get("chi1"), cell.get("chi2")) != (chi1, chi2):
        return [f"cell out of order: want ({chi1}, {chi2}), got {cell}"]
    feasible, lower, upper = interval(r, k, chi1, chi2)
    if cell["feasible"] is not feasible:
        return [f"({r},{k},{chi1},{chi2}): verdict {cell['feasible']}, want {feasible}"]
    iv = cell["w1_interval"]
    if iv["lower"] is None or iv["upper"] is None:
        return [f"({r},{k},{chi1},{chi2}): unbounded interval {iv}"]
    lo, hi = parse_q(iv["lower"]), parse_q(iv["upper"])
    if not feasible:
        if _empty(lo, hi, iv["lower_open"], iv["upper_open"]):
            return []
        return [f"({r},{k},{chi1},{chi2}): infeasible cell with nonempty {iv}"]
    if (
        _same(*lo, lower)
        and _same(*hi, upper)
        and iv["lower_open"] is lower[2]
        and iv["upper_open"] is upper[2]
    ):
        return []
    return [f"({r},{k},{chi1},{chi2}): interval {iv}, want {lower} {upper}"]


def check_csv_row(r: int, k: int, chi1: int, chi2: int, row: dict) -> list[str]:
    """A ``region`` CSV row.  Endpoint openness is checked when the format
    carries the ``w1_lo_open``/``w1_hi_open`` columns."""
    if (int(row["chi1"]), int(row["chi2"])) != (chi1, chi2):
        return [f"row out of order: want ({chi1}, {chi2}), got {row}"]
    feasible, lower, upper = interval(r, k, chi1, chi2)
    if row["feasible"] != ("true" if feasible else "false"):
        return [f"({r},{k},{chi1},{chi2}): verdict {row['feasible']}, want {feasible}"]
    if not feasible:
        if row["w1_lo"] == row["w1_hi"] == "":
            return []
        return [f"({r},{k},{chi1},{chi2}): infeasible row with endpoints {row}"]
    lo, hi = parse_q(row["w1_lo"]), parse_q(row["w1_hi"])
    ok = _same(*lo, lower) and _same(*hi, upper)
    for column, endpoint in (("w1_lo_open", lower), ("w1_hi_open", upper)):
        if column in row:
            ok = ok and row[column] == ("true" if endpoint[2] else "false")
    return [] if ok else [f"({r},{k},{chi1},{chi2}): row {row}, want {lower} {upper}"]


def check_glue(n: int, t: int, chi1: int, chi2: int, doc) -> list[str]:
    """A ``glue`` document for an n x n matrix of rank t built in."""
    out = doc["outputs"]
    want = {
        "r": n,
        "k": t,
        "chi": chi1 + chi2 - n,
        "stalk": [t, n - t, n - t],
        "vector_bundle": t == n,
        "sheaf": {"r1": n, "r2": n, "chi": chi1 + chi2 - n, "chi1": chi1, "chi2": chi2},
    }
    got = {key: out.get(key) for key in want}
    if doc.get("command") != "glue" or got != want:
        return [f"glue n={n} t={t}: got {got}, want {want}"]
    return []


def _beats(chi_f: int, s1: int, s2: int, p: int, q: int, r: int, chi: int, strict: bool):
    """Whether slope chi_f / (w1 s1 + w2 s2) exceeds (or, strict, reaches) the
    ambient slope chi / r at w1 = p/q, cross-multiplied by the positive
    weighted ranks."""
    lhs = chi_f * q * r
    rhs = chi * (p * s1 + (q - p) * s2)
    return lhs >= rhs if strict else lhs > rhs


def check_witness(datum, p: int, q: int, strict: bool, witness) -> list[str]:
    """A sufficiency witness must be a legal shape within the degree bounds
    of the hypotheses whose slope beats the ambient slope."""
    r, k, chi1, chi2, g1, g2 = datum
    s, s1, s2 = witness["s"], witness["s1"], witness["s2"]
    deg1, deg2 = witness["deg_g1"], witness["deg_g2"]
    d1, d2 = chi1 + r * (g1 - 1), chi2 + r * (g2 - 1)
    legal = 0 <= s <= k and s <= s1 <= r and s <= s2 <= r and (s1, s2) != (0, 0)
    if strict and (s1, s2) == (r, r):
        legal = False
    # deg(G1) <= s1 (d1 - k) / r and deg(G2) <= s2 (d2 - 2r) / r, strict in
    # strict mode; a rank-zero side has degree 0.
    for rank, deg, bound in ((s1, deg1, s1 * (d1 - k)), (s2, deg2, s2 * (d2 - 2 * r))):
        if rank == 0:
            legal = legal and deg == 0
        else:
            legal = legal and (deg * r < bound if strict else deg * r <= bound)
    chi_f = deg1 + s1 * (1 - g1) + deg2 + s2 * (1 - g2) + s
    if legal and _beats(chi_f, s1, s2, p, q, r, chi1 + chi2 - r, strict):
        return []
    return [f"{datum}: witness {witness} (strict={strict}) is not a destabilizing shape"]


def check_classify(datum, got) -> list[str]:
    """One library sweep step.

    ``got`` holds plain values read from the library's answers: ``feasible``,
    ``lower``/``upper`` as ((p, q), open), the sample weight ``w`` as
    ((p1, q1), (p2, q2)), the two sufficiency results as (holds, witness
    dict or None), and ``components`` as a list of record dicts.
    """
    r, k, chi1, chi2, g1, g2 = datum
    feasible, lower, upper = interval(r, k, chi1, chi2)
    if got["feasible"] is not feasible:
        return [f"{datum}: verdict {got['feasible']}, want {feasible}"]
    if not feasible:
        return []
    errors = []
    for name, want in (("lower", lower), ("upper", upper)):
        (p, q), is_open = got[name]
        if not (_same(p, q, want) and is_open is want[2]):
            errors.append(f"{datum}: {name} endpoint {got[name]}, want {want}")
    (p, q), (p2, q2) = got["w"]
    inside = (
        (lower[0] * q < p * lower[1] or (lower[0] * q == p * lower[1] and not lower[2]))
        and (p * upper[1] < upper[0] * q or (p * upper[1] == upper[0] * q and not upper[2]))
    )
    if not inside or p2 * q != (q - p) * q2:
        errors.append(f"{datum}: sample weight {got['w']} is not compatible")
    for strict, (holds, witness) in ((False, got["semistable"]), (True, got["stable"])):
        if witness is not None:
            errors += check_witness(datum, p, q, strict, witness)
        elif g1 == g2 == r + 2 and not holds:
            errors.append(f"{datum}: sufficiency fails at g = r + 2 (strict={strict})")
    errors += check_components(datum, p, q, got["components"])
    return errors


def check_components(datum, p: int, q: int, records) -> list[str]:
    """Components at (chi, w1 = p/q): chi1 + chi2 = chi + r, both windows
    w_i chi <= chi_i <= w_i chi + r hold, ascending chi1, dimensions and
    degrees as the formulas give, and the count is r, or r + 1 exactly
    when w1 chi is an integer (the non-generic case)."""
    r, _, chi1, chi2, g1, g2 = datum
    chi = chi1 + chi2 - r
    generic = (p * chi) % q != 0
    errors = []
    if len(records) != (r if generic else r + 1):
        errors.append(f"{datum}: {len(records)} components at w1={p}/{q}")
    dimension = r * r * (g1 + g2 - 1) + 1
    previous = None
    for rec in records:
        c1, c2 = rec["chi1"], rec["chi2"]
        ok = (
            c1 + c2 == chi + r
            and p * chi <= q * c1 <= p * chi + q * r
            and (q - p) * chi <= q * c2 <= (q - p) * chi + q * r
            and rec["d1"] == c1 + r * (g1 - 1)
            and rec["d2"] == c2 + r * (g2 - 1)
            and rec["dimension"] == dimension
            and (previous is None or c1 > previous)
        )
        if not ok:
            errors.append(f"{datum}: bad component {rec} at w1={p}/{q}")
        previous = c1
    return errors
