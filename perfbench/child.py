"""One benchmark client process: set up, warm up, then a closed request loop.

Started by run.py with ``src`` on PYTHONPATH.  It imports ``nodalmoduli.cli``
first thing (timed as import_s), runs one small untimed warm-up request,
prints a ``ready`` line and then, unless in setup mode, sends requests one
at a time until the time or request budget is spent.  Every answer is
checked by the independent oracles in oracle.py; checking time is kept out
of request latency.  The last stdout line is the result as JSON.
"""

import sys
import time

_T0 = time.perf_counter()
import nodalmoduli.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

from nodalmoduli import curves, feasibility, moduli, stability  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

clock = time.perf_counter
MAX_ERRORS_KEPT = 5
CHECK_BATCH = 1 << 20


class Sink:
    """Replacement stdout: counts what the program writes and checks it.

    Writes are buffered and checked in batches of CHECK_BATCH characters,
    so checking does not interleave with the program row by row and memory
    stays bounded however the program splits its output.  A check pass
    inside write() is timed into ``check_s`` (and, when traced, recorded as
    a ``bench.check`` span) so the caller can take it out of the request
    latency.  Program output is ASCII, so characters counted are bytes.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.bytes = 0
        self.check_s = 0.0
        self.errors = []
        self.pending = []
        self.pending_size = 0

    def write(self, text):
        self.bytes += len(text)
        self.pending.append(text)
        self.pending_size += len(text)
        if self.pending_size >= CHECK_BATCH:
            self.drain()
        return len(text)

    def flush(self):
        pass

    def drain(self):
        """Check everything buffered so far."""
        start = clock()
        span = self.tracer.open("bench.check") if self.tracer else None
        text = self.pending[0] if len(self.pending) == 1 else "".join(self.pending)
        self.pending, self.pending_size = [], 0
        self.consume(text)
        if span is not None:
            self.tracer.close(span)
        self.check_s += clock() - start

    def fail(self, messages):
        """Record errors; a few are enough to mark the request failed."""
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors += messages


def _expected_cells(req):
    return itertools.product(
        range(req.chi1[0], req.chi1[1] + 1), range(req.chi2[0], req.chi2[1] + 1)
    )


_CELLS_OPEN = re.compile(r'"cells"\s*:\s*\[')
_WS = re.compile(r"\s*")
_DECODER = json.JSONDecoder()


class RegionJsonSink(Sink):
    """Checks a ``region`` JSON document cell by cell as it arrives, so the
    check holds no more than one unparsed write in memory."""

    def __init__(self, req, tracer, corrupt):
        super().__init__(tracer)
        self.req, self.corrupt = req, corrupt
        self.expected = _expected_cells(req)
        self.buf, self.pos = "", 0
        self.head = None
        self.tail = None
        self.need_comma = False
        self.cells = self.feasible = self.chi0 = 0

    def consume(self, text):
        if self.tail is not None:
            self.tail.append(text)
            return
        buf = self.buf[self.pos:] + text if self.pos < len(self.buf) else text
        pos = 0
        if self.head is None:
            m = _CELLS_OPEN.search(buf)
            if m is None:
                self.buf, self.pos = buf, 0
                return
            self.head, pos = buf[: m.end()], m.end()
        while True:
            pos = _WS.match(buf, pos).end()
            if pos == len(buf):
                break
            if buf[pos] == "]":
                self.tail = [buf[pos + 1:]]
                buf, pos = "", 0
                break
            if self.need_comma:
                if buf[pos] != ",":
                    self.fail([f"expected ',' between cells at {buf[pos:pos + 40]!r}"])
                    self.tail = []
                    break
                pos += 1
                self.need_comma = False
                continue
            try:
                cell, pos = _DECODER.raw_decode(buf, pos)
            except ValueError:
                break  # the cell is not complete yet
            self.check(cell)
            self.need_comma = True
        self.buf, self.pos = buf, pos

    def check(self, cell):
        chi1, chi2 = next(self.expected, (None, None))
        if chi1 is None:
            self.fail([f"extra cell {cell}"])
            return
        if self.corrupt and self.cells == 0:
            cell["feasible"] = not cell["feasible"]
        self.cells += 1
        self.feasible += cell["feasible"] is True
        self.chi0 += chi1 + chi2 == self.req.r
        try:
            self.fail(oracle.check_json_cell(self.req.r, self.req.k, chi1, chi2, cell))
        except (KeyError, TypeError, ValueError) as exc:
            self.fail([f"malformed cell {cell}: {exc!r}"])

    def finish(self):
        self.drain()
        if self.tail is None:
            return self.errors + ["region JSON document is incomplete"]
        doc = json.loads(self.head + "]" + "".join(self.tail))
        req = self.req
        want_inputs = {
            "r": str(req.r),
            "k": str(req.k),
            "chi1": f"{req.chi1[0]}:{req.chi1[1]}",
            "chi2": f"{req.chi2[0]}:{req.chi2[1]}",
        }
        errors = list(self.errors)
        if next(self.expected, None) is not None:
            errors.append(f"region stopped after {self.cells} of {req.cells} cells")
        if (doc["command"], doc["inputs"], doc["outputs"]["count"], doc["warnings"]) != (
            "region", want_inputs, req.cells, []
        ):
            errors.append(f"region header/footer mismatch: {doc}")
        return errors


class RegionCsvSink(Sink):
    """Checks ``region`` CSV output row by row; columns are found by header
    name."""

    def __init__(self, req, tracer, corrupt):
        super().__init__(tracer)
        self.req, self.corrupt = req, corrupt
        self.expected = _expected_cells(req)
        self.partial = ""
        self.header = None
        self.cells = self.feasible = self.chi0 = 0

    def consume(self, text):
        lines = (self.partial + text).split("\n")
        self.partial = lines.pop()
        for line in lines:
            self.line(line)

    def line(self, line):
        fields = line.split(",")
        if self.header is None:
            self.header = fields
            return
        chi1, chi2 = next(self.expected, (None, None))
        if chi1 is None or len(fields) != len(self.header):
            self.fail([f"unexpected CSV row {line!r}"])
            return
        row = dict(zip(self.header, fields))
        if self.corrupt and self.cells == 0:
            row["feasible"] = "false" if row["feasible"] == "true" else "true"
        self.cells += 1
        self.feasible += row["feasible"] == "true"
        self.chi0 += chi1 + chi2 == self.req.r
        try:
            self.fail(oracle.check_csv_row(self.req.r, self.req.k, chi1, chi2, row))
        except (KeyError, ValueError) as exc:
            self.fail([f"malformed row {line!r}: {exc!r}"])

    def finish(self):
        self.drain()
        errors = list(self.errors)
        if self.partial or self.header is None:
            errors.append("region CSV output is incomplete")
        if next(self.expected, None) is not None:
            errors.append(f"region stopped after {self.cells} of {self.req.cells} rows")
        return errors


class TextSink(Sink):
    """Keeps the (small) output for checking after the request."""

    def __init__(self, tracer):
        super().__init__(tracer)
        self.chunks = []

    def consume(self, text):
        self.chunks.append(text)


def _call_cli(argv, sink):
    """Run one in-process CLI request; returns (exit code, latency in s)."""
    with contextlib.redirect_stdout(sink):
        start = clock()
        code = nodalmoduli.cli.main(argv)
        latency = clock() - start
    return code, latency - sink.check_s


class RegionBox:
    unit = "cell"
    warm_up = inputs.Region(3, 2, (-5, 4), (-5, 4), "json")

    def __init__(self, workdir, tracer=None):
        self.tracer = tracer
        self.props = Counter()

    def requests(self, seed):
        return inputs.region_requests(seed)

    def run(self, req, corrupt=False):
        sink_type = RegionJsonSink if req.fmt == "json" else RegionCsvSink
        sink = sink_type(req, self.tracer, corrupt)
        argv = [
            "region", "--r", str(req.r), "--k", str(req.k),
            f"--chi1={req.chi1[0]}:{req.chi1[1]}",
            f"--chi2={req.chi2[0]}:{req.chi2[1]}",
            "--format", req.fmt,
        ]
        code, latency = _call_cli(argv, sink)
        errors = sink.finish() if code == 0 else [f"exit code {code} for {argv}"]
        p = self.props
        p["requests." + req.fmt] += 1
        p["cells"] += sink.cells
        p["feasible_cells"] += sink.feasible
        p["chi0_cells"] += sink.chi0
        p["output_bytes"] += sink.bytes
        return latency, req.cells, errors

    def properties(self):
        p = self.props
        cells = max(p["cells"], 1)
        return {
            "cells": p["cells"],
            "feasible_share": p["feasible_cells"] / cells,
            "chi0_share": p["chi0_cells"] / cells,
            "json_requests": p["requests.json"],
            "csv_requests": p["requests.csv"],
            "output_bytes": p["output_bytes"],
        }


def _pq(x):
    return x.numerator, x.denominator


def _endpoint(value, is_open):
    return (None if value is None else _pq(value)), is_open


class ClassifySweep:
    unit = "datum"
    warm_up = inputs.Datum(4, 2, 3, 4, 6, 6)

    def __init__(self, workdir, tracer=None):
        self.tracer = tracer
        self.r_hist, self.k_hist, self.props = Counter(), Counter(), Counter()

    def requests(self, seed):
        return inputs.classify_requests(seed)

    def run(self, d, corrupt=False):
        start = clock()
        report = feasibility.feasible_interval(d.r, d.k, d.chi1, d.chi2)
        if report.feasible:
            h = stability.StabilityHypotheses(d.r, d.k, d.chi1, d.chi2, d.g1, d.g2)
            w = report.sample
            semistable = stability.check_sufficiency(h, w)
            stable = stability.check_sufficiency(h, w, strict=True)
            records = moduli.enumerate_components(
                curves.NodalCurve(d.g1, d.g2), d.r, d.chi1 + d.chi2 - d.r, w
            )
        latency = clock() - start
        got = {"feasible": report.feasible}
        if report.feasible:
            iv = report.w1_interval
            got.update(
                lower=_endpoint(iv.lower, iv.lower_open),
                upper=_endpoint(iv.upper, iv.upper_open),
                w=(_pq(w.w1), _pq(w.w2)),
                semistable=(semistable[0], semistable[1] and vars(semistable[1])),
                stable=(stable[0], stable[1] and vars(stable[1])),
                components=[vars(rec) for rec in records],
            )
        if corrupt:
            got["feasible"] = not got["feasible"]
        errors = oracle.check_classify(tuple(d), got)
        self.r_hist[d.r] += 1
        self.k_hist[d.k] += 1
        p = self.props
        p["data"] += 1
        p["g_r_plus_2"] += d.g1 == d.g2 == d.r + 2
        if report.feasible:
            p["feasible"] += 1
            p["non_generic"] += (w.w1 * (d.chi1 + d.chi2 - d.r)).denominator == 1
            p["witnesses"] += (not semistable[0]) + (not stable[0])
        return latency, 1, errors

    def properties(self):
        p = self.props
        data = max(p["data"], 1)
        return {
            "data": p["data"],
            "r_histogram": {str(r): c for r, c in sorted(self.r_hist.items())},
            "k_histogram": {str(k): c for k, c in sorted(self.k_hist.items())},
            "infeasible_share": (p["data"] - p["feasible"]) / data,
            "non_generic_share_of_feasible": p["non_generic"] / max(p["feasible"], 1),
            "g_r_plus_2_share": p["g_r_plus_2"] / data,
            "witnesses": p["witnesses"],
        }


class GlueCli:
    unit = "matrix"

    def __init__(self, workdir, tracer=None):
        self.tracer = tracer
        self.workdir = workdir
        self.warm_up = inputs.Glue(os.path.join(workdir, "warmup.json"), 4, 3, 1, 2)
        self.n_hist, self.props = Counter(), Counter()

    def requests(self, seed):
        with open(os.path.join(self.workdir, "pool.json"), encoding="utf-8") as fh:
            pool = json.load(fh)
        return inputs.glue_requests(seed, pool)

    def run(self, g, corrupt=False):
        sink = TextSink(self.tracer)
        argv = ["glue", "--matrix", g.path, "--chi1", str(g.chi1), "--chi2", str(g.chi2)]
        code, latency = _call_cli(argv, sink)
        if code != 0:
            errors = [f"exit code {code} for {argv}"]
        else:
            sink.drain()
            doc = json.loads("".join(sink.chunks))
            if corrupt:
                doc["outputs"]["vector_bundle"] = not doc["outputs"]["vector_bundle"]
            errors = oracle.check_glue(g.n, g.t, g.chi1, g.chi2, doc)
        self.n_hist[g.n] += 1
        self.props["requests"] += 1
        self.props["rank_deficient"] += g.t < g.n
        self.props["output_bytes"] += sink.bytes
        return latency, 1, errors

    def properties(self):
        p = self.props
        return {
            "matrices": p["requests"],
            "n_histogram": {str(n): c for n, c in sorted(self.n_hist.items())},
            "rank_deficient_share": p["rank_deficient"] / max(p["requests"], 1),
            "output_bytes": p["output_bytes"],
        }


RUNNERS = {"region-box": RegionBox, "classify-sweep": ClassifySweep, "glue-cli": GlueCli}


def closed_loop(runner, requests, seconds, max_requests, negative_control, tracer):
    """Send one request at a time until the budget is spent.

    With ``negative_control`` every other answer is corrupted before it is
    checked, so the oracles must report exactly those requests as failed.
    """
    latencies, errors = [], []
    units = attempted = failed = corrupted = 0
    start = clock()
    deadline = start + seconds
    for i, req in enumerate(requests):
        if max_requests is not None:
            if i >= max_requests:
                break
        elif clock() >= deadline:
            break
        corrupt = negative_control and i % 2 == 0
        span = tracer.open("bench.request") if tracer else None
        try:
            latency, n_units, request_errors = runner.run(req, corrupt)
        except Exception:  # a crashing request is a failed request, not a crashed run
            latency, n_units, request_errors = None, 0, [traceback.format_exc()]
        if span is not None:
            tracer.close(span)
        attempted += 1
        corrupted += corrupt
        if request_errors:
            failed += 1
            errors += [f"request {i}: {e}" for e in request_errors[:2]]
            del errors[MAX_ERRORS_KEPT:]
        if latency is not None:
            latencies.append(latency)
            units += n_units
    return {
        "wall_s": clock() - start,
        "latencies_s": latencies,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "corrupted": corrupted,
        "errors": errors,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-requests", type=int, default=None)
    parser.add_argument("--spans", default=None, help="trace the run and write its spans here")
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    out = sys.stdout

    runner = RUNNERS[args.workload](args.workdir)
    _, _, errors = runner.run(runner.warm_up)
    if errors:
        print(f"warm-up request failed: {errors}", file=sys.stderr)
        return 1
    out.write("ready " + json.dumps({"import_s": IMPORT_S}) + "\n")
    out.flush()
    if args.mode == "setup":
        return 0

    runner = RUNNERS[args.workload](args.workdir)  # fresh input statistics
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
    result = closed_loop(
        runner, runner.requests(args.seed), args.seconds, args.max_requests,
        args.negative_control, tracer,
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["unit"] = runner.unit
    result["properties"] = runner.properties()
    if tracer is not None:
        result["trace"] = {
            "layers": tracer.aggregate(),
            "counters": dict(tracer.counters),
            "spans": tracer.write(args.spans),
        }
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    package = os.path.dirname(nodalmoduli.__file__)
    expected = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(package) != expected:
        print(f"nodalmoduli imported from {package}, not from {expected}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
