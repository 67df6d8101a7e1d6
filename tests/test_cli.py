import argparse
import contextlib
import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import nodalmoduli
from nodalmoduli import cli
from nodalmoduli.cli import build_parser, main
from nodalmoduli.curves import NodalCurve, Polarization
from nodalmoduli.feasibility import feasible_interval, region_runs, region_scan
from nodalmoduli.gluing import GluingDatum, matrix_rank
from nodalmoduli.moduli import enumerate_components
from nodalmoduli.rationals import format_rational, short_repr
from nodalmoduli.stability import StabilityHypotheses, check_sufficiency
from by_path import mutant
from test_gluing import _rank_t_core, _scaled_matrix
from oracles import DEFAULT_DIGIT_LIMIT, needs_default_digit_limit
from golden_cases import CASES, DIGIT_LIMIT_CASES, GOLDEN, compared


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


class TestFeasible:
    def test_worked_example(self, capsys):
        doc = run_json(
            capsys, "feasible", "--r", "2", "--k", "1", "--chi1", "2", "--chi2", "3"
        )
        assert doc["command"] == "feasible"
        assert doc["outputs"]["feasible"] is True
        assert doc["outputs"]["w1_interval"]["lower"] == "1/3"
        assert doc["outputs"]["w1_interval"]["upper"] == "2/3"
        assert doc["outputs"]["sample"] == {"w1": "1/2", "w2": "1/2"}
        assert doc["warnings"] == []

    def test_interval_round_trips_to_library_value(self, capsys):
        doc = run_json(
            capsys, "feasible", "--r", "3", "--k", "2", "--chi1", "2", "--chi2", "4"
        )
        want = feasible_interval(3, 2, 2, 4).w1_interval.to_json()
        assert doc["outputs"]["w1_interval"] == want

    def test_byte_determinism(self, capsys):
        args = ("feasible", "--r", "2", "--k", "2", "--chi1", "1", "--chi2", "1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_domain_error_k_out_of_range(self, capsys):
        code, out, _ = run(
            capsys, "feasible", "--r", "2", "--k", "5", "--chi1", "0", "--chi2", "0"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "ValueError"
        assert "k" in doc["error"]["message"]


class TestDims:
    def test_worked_example(self, capsys):
        doc = run_json(capsys, "dims", "--g1", "2", "--g2", "2", "--r", "2")
        assert doc["outputs"] == {
            "component": 13,
            "pf_bundle": 13,
            "fixed_det_fiber": 9,
        }


class TestGlue:
    def test_identity_matrix(self, capsys, tmp_path):
        path = tmp_path / "id2.json"
        path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
        doc = run_json(
            capsys, "glue", "--matrix", str(path), "--chi1", "1", "--chi2", "1"
        )
        assert doc["outputs"]["chi"] == 0
        assert doc["outputs"]["stalk"] == [2, 0, 0]
        assert doc["outputs"]["vector_bundle"] is True
        assert doc["outputs"]["k"] == 2

    def test_degenerate_matrix(self, capsys, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps([["1/2", "1"], ["1/4", "1/2"]]))
        doc = run_json(
            capsys, "glue", "--matrix", str(path), "--chi1", "3", "--chi2", "1"
        )
        assert doc["outputs"]["k"] == 1
        assert doc["outputs"]["stalk"] == [1, 1, 1]
        assert doc["outputs"]["vector_bundle"] is False
        assert doc["outputs"]["sheaf"]["chi1"] == 3

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "glue", "--matrix", str(tmp_path / "no.json"),
            "--chi1", "0", "--chi2", "0",
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "FileNotFoundError"

    def test_decoder_recursion_is_domain_error(self, capsys, tmp_path, monkeypatch):
        # How deep json.load decodes depends on the interpreter, so the
        # decoder is made to give up on this file whatever its limit.
        depth = 10 * sys.getrecursionlimit()
        monkeypatch.chdir(tmp_path)
        path = "deep.json"
        Path(path).write_text("[" * depth + "]" * depth)

        def load(fh, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli.json, "load", load)
        code, out, err = run(
            capsys, "glue", "--matrix", str(path), "--chi1", "0", "--chi2", "0"
        )
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {
            "message": f"{path}: arrays nested too deeply to decode",
            "type": "ValueError",
        }

    def test_non_utf8_file_names_its_path_and_byte(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = "latin1.json"
        Path(path).write_bytes(b'[["\xff"]]')
        code, out, _ = run(
            capsys, "glue", "--matrix", path, "--chi1", "0", "--chi2", "0"
        )
        assert code == 1
        assert json.loads(out)["error"] == {
            "message": f"{path}: not UTF-8 at byte 3",
            "type": "ValueError",
        }

    def test_decode_error_names_the_file_offset_past_the_first_chunk(
        self, capsys, tmp_path, monkeypatch
    ):
        # 33,000 bytes before the bad byte: more than one read buffer.
        head = b"[" + b'["1", "2"],' * 3000 + b'["'
        monkeypatch.chdir(tmp_path)
        path = "late.json"
        Path(path).write_bytes(head + b'\xe9"]]')
        code, out, _ = run(
            capsys, "glue", "--matrix", path, "--chi1", "0", "--chi2", "0"
        )
        assert code == 1
        assert json.loads(out)["error"]["message"] == f"{path}: not UTF-8 at byte {len(head)}"

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "[Errno 2] No such file or directory: {}"),
            (b'[["\xff"]]', "{}: not UTF-8 at byte 3"),
            (b"[" * 10**5 + b"]" * 10**5, "{}: arrays nested too deeply to decode"),
        ],
        ids=["missing", "not_utf8", "deep_nesting"],
    )
    def test_a_long_path_is_quoted_short(self, capsys, tmp_path, content, message):
        # Each message names a path longer than 40 characters by its first
        # 40 and its length; the glue_* golden cases pin short paths whole.
        path = str(tmp_path / ("d" * 200) / ("m" * 200 + ".json"))
        if content is not None:
            Path(path).parent.mkdir()
            Path(path).write_bytes(content)
        code, out, _ = run(capsys, "glue", "--matrix", path, "--chi1", "0", "--chi2", "0")
        assert code == 1
        assert json.loads(out)["error"]["message"] == message.format(short_repr(path))
        assert len(out) < 200

    def test_zero_matrix_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps([["0", "0"], ["0", "0"]]))
        code, out, _ = run(
            capsys, "glue", "--matrix", str(path), "--chi1", "0", "--chi2", "0"
        )
        assert code == 1

    def test_warm_64x64_request_keeps_one_matrix_copy(self, capsys, tmp_path):
        # A corank-1 matrix of "p/q" cells; the peak is about 0.45 MB.  Keeping
        # the decoded JSON (about 0.27 MB of cell strings) alive through the
        # elimination, or a second copy of the rows per elimination step,
        # takes it over 0.5 MB.
        rng = random.Random(64)
        matrix, _, _ = _scaled_matrix(rng, 64, _rank_t_core(rng, 64, 63))
        cells = [[f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in row]
                 for row in matrix]
        path = tmp_path / "corank1.json"
        path.write_text(json.dumps(cells))
        argv = ["glue", "--matrix", str(path), "--chi1", "0", "--chi2", "0"]
        assert run_json(capsys, *argv)["outputs"]["k"] == 63
        peak = traced_peak(argv)
        assert peak < 500_000, peak


class TestRegion:
    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "region", "--r", "2", "--k", "1",
            "--chi1", "1:1", "--chi2", "0:3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "chi1,chi2,feasible,w1_lo,w1_hi,w1_lo_open,w1_hi_open"
        assert lines[1] == "1,0,false,,,,"              # chi = -1 needs chi1 < k
        assert lines[2] == "1,1,true,0,1,true,true"     # chi = 0 with 0 <= chi1 <= k
        assert lines[3] == "1,2,true,0,1,true,true"
        assert lines[4] == "1,3,true,0,1/2,true,false"  # (0, 1/2]

    def test_json_format(self, capsys):
        doc = run_json(
            capsys, "region", "--r", "2", "--k", "1", "--chi1", "1:1", "--chi2", "2:3"
        )
        assert doc["outputs"]["count"] == 2
        assert all(cell["feasible"] for cell in doc["outputs"]["cells"])

    def test_cell_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", "10")
        code, out, _ = run(
            capsys, "region", "--r", "2", "--k", "1", "--chi1", "0:10", "--chi2", "0:10"
        )
        assert code == 1
        assert "exceeds the cap" in json.loads(out)["error"]["message"]

    def test_cap_counts_a_range_beyond_ssize_t(self, capsys, monkeypatch):
        # len(range(...)) would raise OverflowError on this box.
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", "10")
        code, out, _ = run(
            capsys, "region", "--r", "2", "--k", "1",
            "--chi1=-100000000000000000000:100000000000000000000", "--chi2", "0:1",
        )
        assert code == 1
        assert json.loads(out)["error"]["message"] == (
            "region of 400000000000000000002 lattice points exceeds the cap of 10"
        )

    def test_bad_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", "lots")
        code, out, _ = run(
            capsys, "region", "--r", "2", "--k", "1", "--chi1", "0:1", "--chi2", "0:1"
        )
        assert code == 1

    def test_negative_range_after_a_space(self, capsys):
        # The README form: a range starting with "-" as a separate argument
        # prints the same bytes as the "--chi1=LO:HI" form in the corpus.
        code, out, _ = run(
            capsys, "region", "--r", "2", "--k", "1",
            "--chi1", "-5:5", "--chi2", "-5:5", "--format", "csv",
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "region_csv.out").read_bytes()
        code, out, _ = run(
            capsys, "region", "--r", "3", "--k", "2", "--chi1", "-2:3", "--chi2", "0:4"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "region_json.out").read_bytes()

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "region", "--r", "2", "--k", "1", "--chi1", "1", "--chi2", "0:1"
        )
        assert code == 2
        assert "--chi1" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dims", "--g1", "2", "--g2", "3", "--r", "-1_0"], 1),
        (["components", "--g1", "2", "--g2", "3", "--r", "3", "--chi", "5",
          "--w1", "-2/7"], 1),
        (["mk-test", "--sub-d", "-1_0", "--sub-rk", "1", "--amb-d", "3", "--amb-rk", "2",
          "--m", "0", "--k", "1"], 0),
    ],
    ids=["dims", "components", "mk-test"],
)
def test_every_command_reads_a_negative_value(capsys, argv, code):
    # "-1_0" and "-2/7" are values, not options: a command answers, or
    # refuses them as a domain error, never as a missing argument (exit 2).
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert json.loads(out)


def whole_box_output(r, k, chi1_range, chi2_range, fmt):
    """The region output built from feasible_interval with the whole box in
    memory: one json.dumps document, or every CSV row."""
    rows = [
        (chi1, chi2, feasible_interval(r, k, chi1, chi2))
        for chi1 in range(chi1_range[0], chi1_range[1] + 1)
        for chi2 in range(chi2_range[0], chi2_range[1] + 1)
    ]
    if fmt == "csv":
        lines = ["chi1,chi2,feasible,w1_lo,w1_hi,w1_lo_open,w1_hi_open"]
        for chi1, chi2, report in rows:
            interval = report.w1_interval
            fields = ["", "", "", ""]
            if report.feasible:
                fields = [
                    format_rational(interval.lower),
                    format_rational(interval.upper),
                    str(interval.lower_open).lower(),
                    str(interval.upper_open).lower(),
                ]
            verdict = str(report.feasible).lower()
            lines.append(",".join([str(chi1), str(chi2), verdict, *fields]))
        return "".join(line + "\n" for line in lines)
    cells = [
        {
            "chi1": chi1,
            "chi2": chi2,
            "feasible": report.feasible,
            "w1_interval": report.w1_interval.to_json(),
        }
        for chi1, chi2, report in rows
    ]
    doc = {
        "command": "region",
        "inputs": {
            "r": str(r),
            "k": str(k),
            "chi1": f"{chi1_range[0]}:{chi1_range[1]}",
            "chi2": f"{chi2_range[0]}:{chi2_range[1]}",
        },
        "outputs": {"cells": cells, "count": len(cells)},
        "warnings": [],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def traced_peak(argv) -> int:
    """Peak traced allocation, in bytes, of a successful CLI run writing to a
    sink that keeps nothing."""
    class NullSink:
        def write(self, text):
            return len(text)

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(NullSink()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _seeded_boxes(n):
    """n boxes of up to 16 x 16 cells, seeded; negative starts, empty and
    one-cell ranges and boxes across chi = 0 all occur."""
    rng = random.Random(20190)
    for _ in range(n):
        r = rng.randint(2, 8)
        k = rng.randint(1, r)
        ranges = []
        for _ in range(2):
            lo = rng.randint(-12, 12)
            ranges.append((lo, lo + rng.choice([-2, -1, 0, 0, 1, 3, 7, 15])))
        yield r, k, ranges[0], ranges[1]


# Boxes whose closed-end cells print ints on both sides of -N and N, N =
# cli._TEXTS_N, the edges of the table the writer reads them from: chi2 runs
# over -N - 1..N, and each numerator and denominator of a "p/q" takes N - 1
# and N in some cell.  Every cell of the first has two closed ends (chi < 0,
# chi1 < 0, chi2 < r - k), every cell of the second one (0 <= chi1 < k); no
# one box can do both, as the two kinds need rows about N apart.
TABLE_EDGE_BOXES = [
    (1030, 1, (-1024, -1022), (-1025, 1024)),
    (2049, 1024, (0, 1), (-1025, 1024)),
]

# Special boxes: empty either way, one cell, one cell at chi = 0, boxes
# longer than one write batch in each direction, and the table's edges.
EDGE_BOXES = [
    (2, 1, (3, 1), (0, 1)),
    (2, 1, (0, 1), (5, -5)),
    (3, 2, (-7, -7), (4, 4)),
    (4, 3, (2, 2), (2, 2)),
    (3, 1, (-1200, 1300), (2, 2)),
    (5, 5, (0, 0), (-1500, 1000)),
    (2, 2, (-22, 22), (-22, 22)),
    *TABLE_EDGE_BOXES,
]


def _first_mismatch(capsys, boxes, fmt):
    """The first of boxes whose region output in fmt differs from
    whole_box_output's, or None.  Every run must succeed."""
    for r, k, (lo1, hi1), (lo2, hi2) in boxes:
        code, out, _ = run(
            capsys, "region", "--r", str(r), "--k", str(k),
            f"--chi1={lo1}:{hi1}", f"--chi2={lo2}:{hi2}", "--format", fmt,
        )
        assert code == 0
        if out != whole_box_output(r, k, (lo1, hi1), (lo2, hi2), fmt):
            return r, k, (lo1, hi1), (lo2, hi2)
    return None


class TestRegionStreaming:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bytes_match_the_whole_box_output(self, capsys, fmt):
        boxes = list(_seeded_boxes(200)) + EDGE_BOXES
        assert _first_mismatch(capsys, boxes, fmt) is None
        chi0_cells = sum(
            lo2 <= r - chi1 <= hi2
            for r, k, (lo1, hi1), (lo2, hi2) in boxes
            for chi1 in range(lo1, hi1 + 1)
        )
        assert chi0_cells > 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "chi1, chi2",
        [("0:0", "-50000:49999"), ("-50000:49999", "0:0"), ("-158:157", "-158:157")],
        ids=["1x100000", "100000x1", "316x316"],
    )
    def test_memory_stays_flat(self, fmt, chi1, chi2):
        argv = ["region", "--r", "3", "--k", "2", f"--chi1={chi1}", f"--chi2={chi2}",
                "--format", fmt]
        peak = traced_peak(argv)
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize(
        "r, k, message",
        [(1, 0, "gluing rank must be >= 2, got 1"), (2, 3, "fiber-map rank")],
    )
    def test_empty_box_with_bad_ranks_is_domain_error(self, capsys, r, k, message):
        code, out, _ = run(
            capsys, "region", "--r", str(r), "--k", str(k),
            "--chi1", "3:1", "--chi2", "0:1",
        )
        assert code == 1
        assert message in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_region_writes_at_most_a_batch_of_cells(fmt):
    # Long constant runs, runs cut at a batch boundary, short runs and
    # one-cell rows: no write may hold more than REGION_BATCH cells.
    class Writes:
        def __init__(self):
            self.cells = []

        def write(self, text):
            self.cells.append(text.count('"chi1"') if fmt == "json" else text.count("\n"))
            return len(text)

    boxes = [("0:0", "-30000:29999"), ("-1200:1200", "2:2"), ("-60:60", "-70:70"),
             ("-400:400", "-3:9"), ("-3:3", "-2999:2999")]
    for chi1, chi2 in boxes:
        writes = Writes()
        with contextlib.redirect_stdout(writes):
            assert main(["region", "--r", "4", "--k", "2", f"--chi1={chi1}",
                         f"--chi2={chi2}", "--format", fmt]) == 0
        (lo1, hi1), (lo2, hi2) = cli.int_range_arg(chi1), cli.int_range_arg(chi2)
        # The CSV header line and the JSON inputs echo count once more.
        assert sum(writes.cells) == (hi1 - lo1 + 1) * (hi2 - lo2 + 1) + 1
        assert max(writes.cells) <= cli.REGION_BATCH, (chi1, chi2)


# One cell of each kind the region encoders meet: (r, k, chi1, chi2).
ENCODER_CELLS = {
    "infeasible": (2, 1, 2, 1),
    "closed": (2, 1, 2, 3),
    "open_lower": (2, 1, 1, 4),
    "open_upper": (2, 1, 3, 2),
    "chi_zero": (3, 2, 1, 2),
    "chi_negative": (3, 2, -1, -2),
}

# What makes each cell the kind it is named for, read off its report.
ENCODER_KINDS = {
    "infeasible": lambda rep: not rep.feasible,
    "closed": lambda rep: rep.chi > 0 and rep.feasible
    and not rep.w1_interval.lower_open and not rep.w1_interval.upper_open,
    "open_lower": lambda rep: rep.feasible
    and rep.w1_interval.lower_open and not rep.w1_interval.upper_open,
    "open_upper": lambda rep: rep.feasible
    and not rep.w1_interval.lower_open and rep.w1_interval.upper_open,
    "chi_zero": lambda rep: rep.chi == 0 and rep.feasible,
    "chi_negative": lambda rep: rep.chi < 0 and rep.feasible,
}


class TestRegionEncoders:
    @pytest.mark.parametrize("kind", ENCODER_CELLS)
    def test_json_cell_is_the_json_dumps_layout(self, kind):
        r, k, chi1, chi2 = ENCODER_CELLS[kind]
        report = feasible_interval(r, k, chi1, chi2)
        assert ENCODER_KINDS[kind](report)
        cell = {
            "chi1": chi1,
            "chi2": chi2,
            "feasible": report.feasible,
            "w1_interval": report.w1_interval.to_json(),
        }
        want = textwrap.indent(json.dumps(cell, sort_keys=True, indent=2), " " * 6)
        runs = region_runs(r, k, (chi1, chi1), (chi2, chi2))
        assert list(cli._laid_out(runs, cli._json_cell, ",\n")) == [want]

    @pytest.mark.parametrize("kind", ENCODER_CELLS)
    def test_csv_row_follows_the_report(self, kind):
        r, k, chi1, chi2 = ENCODER_CELLS[kind]
        report = feasible_interval(r, k, chi1, chi2)
        assert ENCODER_KINDS[kind](report)
        doc = report.to_json()
        interval = doc["w1_interval"]
        fields = ["", "", "", ""]
        if doc["feasible"]:
            fields = [
                interval["lower"],
                interval["upper"],
                json.dumps(interval["lower_open"]),
                json.dumps(interval["upper_open"]),
            ]
        want = ",".join([str(chi1), str(chi2), json.dumps(doc["feasible"]), *fields])
        runs = region_runs(r, k, (chi1, chi1), (chi2, chi2))
        assert list(cli._laid_out(runs, cli._csv_row, "")) == [want + "\n"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_control_swapped_openness_is_caught(self, capsys, monkeypatch, fmt):
        real = cli._laid_out

        def swapped(runs, layout, sep):
            # The real layout's text with lower_open and upper_open exchanged.
            yield from real(
                ((chi1, first, last, None if b is None else (*b[:3], b[4], b[3]), step)
                 for chi1, first, last, b, step in runs),
                layout, sep,
            )

        monkeypatch.setattr(cli, "_laid_out", swapped)
        boxes = EDGE_BOXES + list(_seeded_boxes(200))
        assert _first_mismatch(capsys, boxes, fmt) is not None, "swapped openness went unnoticed"


# A box of several hundred runs, all five interval shapes among them.
SHAPE_BOX = (4, 2, (-60, 60), (-70, 70))
LAYOUTS = {"json": (cli._json_cell, ",\n"), "csv": (cli._csv_row, "")}


def _layout_calls(module, fmt) -> int:
    """How often one module._laid_out call over SHAPE_BOX calls its
    layout.  module is cli or a mutant of it."""
    layout, sep = LAYOUTS[fmt]
    calls = [0]

    def counted(*fields):
        calls[0] += 1
        return layout(*fields)

    for _ in module._laid_out(region_runs(*SHAPE_BOX), counted, sep):
        pass
    return calls[0]


class TestShapesLaidOutOnce:
    def test_the_box_has_several_hundred_runs_of_every_shape(self):
        runs = list(region_runs(*SHAPE_BOX))
        assert len(runs) >= 300
        shapes = {None if b is None else b[3:] for _, _, _, b, _ in runs}
        assert len(shapes) == 5

    @pytest.mark.parametrize("fmt", LAYOUTS)
    def test_each_shape_is_laid_out_once_per_call(self, fmt):
        assert _layout_calls(cli, fmt) <= 5

    @pytest.mark.parametrize("fmt", LAYOUTS)
    def test_negative_control_shape_table_per_run_exceeds_the_count(self, fmt):
        loop = "    for chi1, first, last, bounds, step in runs:\n"
        module = mutant(cli, (loop, loop + "        shapes = _shapes(layout)\n"))
        assert _layout_calls(module, fmt) > 5


def _printed_ints(boxes) -> dict:
    """The ints the closed-end cells of boxes print, by where: keyed by
    (closed ends, "chi2") and by (closed ends, end, "p" or "q") for the
    numerator and denominator of each closed end, lower first."""
    printed = {}
    for r, k, (lo1, hi1), (lo2, hi2) in boxes:
        for chi1, chi2 in itertools.product(range(lo1, hi1 + 1), range(lo2, hi2 + 1)):
            interval = feasible_interval(r, k, chi1, chi2).w1_interval
            # An infeasible cell's interval is the open (0, 0).
            ends = [] if interval.lower_open else [interval.lower]
            ends += [] if interval.upper_open else [interval.upper]
            if not ends:
                continue
            printed.setdefault((len(ends), "chi2"), set()).add(chi2)
            for end, value in enumerate(ends):
                printed.setdefault((len(ends), end, "p"), set()).add(value.numerator)
                printed.setdefault((len(ends), end, "q"), set()).add(value.denominator)
    return printed


# Each guard of _run_text written <=, which reads "-N" from the table for N.
GUARDS_WITH_LE = {
    "one-end chi2": ("c < N and c >= -N else c}{mid}", "c <= N and c >= -N else c}{mid}"),
    "one-end p": ("(x := e // g) < N", "(x := e // g) <= N"),
    "one-end q": ("(y := d // g) < N else y}{tail}", "(y := d // g) <= N else y}{tail}"),
    "two-end chi2": ("c < N and c >= -N else c}{mid1}", "c <= N and c >= -N else c}{mid1}"),
    "two-end lower p": ("(x := lo // g) < N", "(x := lo // g) <= N"),
    "two-end lower q": ("(y := d // g) < N else y}{mid2}", "(y := d // g) <= N else y}{mid2}"),
    "two-end upper p": ("(x := hi // h) < N", "(x := hi // h) <= N"),
    "two-end upper q": ("(y := d // h) < N", "(y := d // h) <= N"),
}

# The table one entry short at either end.
SHORT_TABLES = {
    "short-top": ("range(_TEXTS_N)), *map", "range(_TEXTS_N - 1)), *map"),
    "short-bottom": ("range(-_TEXTS_N, 0)", "range(-_TEXTS_N + 1, 0)"),
}


class TestIntTexts:
    def test_table_holds_str_of_each_index(self):
        n = cli._TEXTS_N
        assert len(cli._TEXTS) == 2 * n
        assert all(cli._TEXTS[i] == str(i) for i in range(-n, n))

    def test_table_edge_boxes_print_ints_at_both_edges(self):
        n = cli._TEXTS_N
        printed = _printed_ints(TABLE_EDGE_BOXES)
        assert set(printed) == {
            (1, "chi2"), (1, 0, "p"), (1, 0, "q"),
            (2, "chi2"), (2, 0, "p"), (2, 0, "q"), (2, 1, "p"), (2, 1, "q"),
        }
        for where, ints in printed.items():
            edges = {-n - 1, -n, n - 1, n} if "chi2" in where else {n - 1, n}
            assert edges <= ints, where

    @pytest.mark.parametrize("fmt", LAYOUTS)
    @pytest.mark.parametrize("edit", [*SHORT_TABLES.values(), *GUARDS_WITH_LE.values()],
                             ids=[*SHORT_TABLES, *GUARDS_WITH_LE])
    def test_negative_control_broken_table_or_guard_changes_the_bytes(
        self, capsys, monkeypatch, fmt, edit
    ):
        monkeypatch.setattr(cli, "_run_text", mutant(cli, edit)._run_text)
        assert _first_mismatch(capsys, TABLE_EDGE_BOXES, fmt) is not None


def src_env():
    """The environment with the package's source directory on PYTHONPATH."""
    src = str(Path(nodalmoduli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_main_writes_nothing_after_the_pipe_closes():
    # A closed pipe is not a domain error: main must not try to write the
    # error document to it, but let the exception reach console_main.
    class ClosedPipe:
        writes = 0

        def write(self, text):
            self.writes += 1
            raise BrokenPipeError(32, "Broken pipe")

    pipe = ClosedPipe()
    argv = ["region", "--r", "2", "--k", "1", "--chi1=0:3", "--chi2=0:3", "--format", "csv"]
    with contextlib.redirect_stdout(pipe), pytest.raises(BrokenPipeError):
        main(argv)
    assert pipe.writes == 1


def test_closed_pipe_ends_quietly():
    # Like "| head -3": read three rows of a 10^5-cell CSV, then close the pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "nodalmoduli", "region", "--r", "2", "--k", "1",
         "--chi1=0:0", "--chi2=-50000:49999", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait(timeout=60)
    proc.stderr.close()
    assert lines == [
        b"chi1,chi2,feasible,w1_lo,w1_hi,w1_lo_open,w1_hi_open\n",
        b"0,-50000,true,0,1/50002,true,false\n",
        b"0,-49999,true,0,1/50001,true,false\n",
    ]
    assert err == b""
    assert code == 1


NON_GENERIC = (
    "non-generic polarization: window boundaries are integers, "
    "both boundary values included"
)


def whole_components_output(g1, g2, r, chi, w1, fmt):
    """The components output built from enumerate_components with every
    record in memory: one json.dumps document, or every CSV row."""
    w = Polarization(w1, 1 - w1)
    records = enumerate_components(NodalCurve(g1, g2), r, chi, w)
    if fmt == "csv":
        lines = ["chi1,chi2,d1,d2,dimension"] + [
            f"{rec.chi1},{rec.chi2},{rec.d1},{rec.d2},{rec.dimension}" for rec in records
        ]
        return "".join(line + "\n" for line in lines)
    warnings = [NON_GENERIC] if (chi * w1).denominator == 1 else []
    doc = {
        "command": "components",
        "inputs": {
            "g1": str(g1), "g2": str(g2), "r": str(r), "chi": str(chi),
            "w1": format_rational(w1),
        },
        "outputs": {
            "components": [rec.to_json() for rec in records],
            "count": len(records),
        },
        "warnings": warnings,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _seeded_component_cases(n):
    """n seeded (g1, g2, r, chi, w1), about a third of them at a non-generic
    weight (w1 chi an integer), plus ranks around the write batch."""
    rng = random.Random(1903)
    for _ in range(n):
        den = rng.randint(2, 13)
        w1 = Fraction(rng.randint(1, den - 1), den)
        if rng.random() < 0.35:
            chi = den * rng.randint(-6, 6)
        else:
            chi = rng.randint(-60, 60)
        yield rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 40), chi, w1
    for r in (999, 1000, 1001, 1999, 2000):
        yield 2, 3, r, 0, Fraction(1, 2)
        yield 2, 3, r, 7, Fraction(1, 3)


class TestComponentsStreaming:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bytes_match_the_whole_document_output(self, capsys, fmt):
        cases = list(_seeded_component_cases(200))
        non_generic = 0
        for g1, g2, r, chi, w1 in cases:
            code, out, err = run(
                capsys, "components", "--g1", str(g1), "--g2", str(g2), "--r", str(r),
                "--chi", str(chi), "--w1", format_rational(w1), "--format", fmt,
            )
            assert code == 0
            assert out == whole_components_output(g1, g2, r, chi, w1, fmt), (
                g1, g2, r, chi, w1,
            )
            generic = (chi * w1).denominator != 1
            # CSV carries the JSON form's warning on stderr.
            assert err == ("" if generic or fmt == "json" else f"warning: {NON_GENERIC}\n")
            non_generic += not generic
        assert 40 < non_generic < len(cases) - 40

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_stays_flat(self, fmt):
        argv = ["components", "--g1", "2", "--g2", "3", "--r", "100000", "--chi", "7",
                "--w1", "1/3", "--format", fmt]
        peak = traced_peak(argv)
        assert peak < 2 * 2**20, peak


class TestComponents:
    def test_json(self, capsys):
        doc = run_json(
            capsys, "components", "--g1", "2", "--g2", "2", "--r", "2",
            "--chi", "1", "--w1", "1/2",
        )
        assert doc["outputs"]["count"] == 2
        assert doc["outputs"]["components"][0] == {
            "chi1": 1, "chi2": 2, "d1": 3, "d2": 4, "dimension": 13,
        }
        assert doc["warnings"] == []

    def test_non_generic_warning(self, capsys):
        doc = run_json(
            capsys, "components", "--g1", "1", "--g2", "1", "--r", "2",
            "--chi", "0", "--w1", "1/2",
        )
        assert doc["outputs"]["count"] == 3
        assert any("non-generic" in w for w in doc["warnings"])

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "components", "--g1", "2", "--g2", "2", "--r", "2",
            "--chi", "1", "--w1", "1/2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "chi1,chi2,d1,d2,dimension"
        assert lines[1] == "1,2,3,4,13"
        assert lines[2] == "2,1,4,3,13"

    def test_decimal_weight_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "components", "--g1", "2", "--g2", "2", "--r", "2",
            "--chi", "1", "--w1", "0.5",
        )
        assert code == 2
        assert "--w1" in err


class TestCheckSufficiency:
    def test_defaults_to_sampled_polarization(self, capsys):
        doc = run_json(
            capsys, "check-sufficiency", "--r", "2", "--k", "1",
            "--chi1", "1", "--chi2", "2", "--g1", "2", "--g2", "2",
        )
        assert doc["outputs"]["holds"] is True
        assert doc["outputs"]["witness"] is None
        assert doc["outputs"]["d1"] == 3 and doc["outputs"]["d2"] == 4
        assert any("defaulted" in w for w in doc["warnings"])

    def test_explicit_weight_and_strict(self, capsys):
        doc = run_json(
            capsys, "check-sufficiency", "--r", "2", "--k", "1",
            "--chi1", "1", "--chi2", "2", "--g1", "4", "--g2", "4",
            "--w1", "1/2", "--strict",
        )
        assert doc["outputs"]["holds"] is True

    def test_incompatible_weight_is_domain_error(self, capsys):
        code, out, _ = run(
            capsys, "check-sufficiency", "--r", "2", "--k", "1",
            "--chi1", "2", "--chi2", "3", "--g1", "2", "--g2", "2",
            "--w1", "1/5",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "NecessaryConditionError"
        assert "chi" in doc["error"]["message"]

    def test_infeasible_datum_without_weight(self, capsys):
        code, out, _ = run(
            capsys, "check-sufficiency", "--r", "2", "--k", "1",
            "--chi1", "2", "--chi2", "1", "--g1", "2", "--g2", "2",
        )
        assert code == 1
        assert "--w1" in json.loads(out)["error"]["message"]


class TestWorkCaps:
    # The NODAL_MODULI_MAX_CELLS cap also bounds the (k+1)(r+1)^2 shapes of a
    # sufficiency sweep and the r+1 splittings of a component enumeration.
    SWEEP = ("check-sufficiency", "--r", "3", "--k", "2", "--chi1", "2", "--chi2", "4",
             "--g1", "5", "--g2", "5")
    COMPONENTS = ("components", "--g1", "2", "--g2", "3", "--r", "3", "--chi", "5",
                  "--w1", "2/7")
    # ... and the n^3 entry updates of glue's rank elimination.
    GLUE = ("glue", "--matrix", str(GOLDEN / "degenerate.json"), "--chi1", "3",
            "--chi2", "1")

    @pytest.mark.parametrize("argv, units", [(SWEEP, 48), (COMPONENTS, 4), (GLUE, 8)])
    def test_work_at_the_cap_runs_and_above_it_is_refused(
        self, capsys, monkeypatch, argv, units
    ):
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", str(units))
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", str(units - 1))
        code, out, _ = run(capsys, *argv)
        assert code == 1
        message = json.loads(out)["error"]["message"]
        assert f" of {units} " in message
        assert message.endswith(f"exceeds the cap of {units - 1}")

    @pytest.mark.parametrize("argv", [SWEEP, COMPONENTS, GLUE])
    def test_bad_cap_value(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", "lots")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "must be an integer" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("value, message", [
        # An integer past int()'s digit limit is one: the message says so.
        pytest.param("7" * 5000, "has too many digits, got '777",
                     marks=needs_default_digit_limit),
        ("x" * 5000, "must be an integer, got 'xxx"),
    ])
    @pytest.mark.parametrize("argv", [SWEEP, COMPONENTS, GLUE])
    def test_long_cap_value_is_quoted_short(self, capsys, monkeypatch, argv, value, message):
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", value)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        got = json.loads(out)["error"]["message"]
        assert got.startswith(f"NODAL_MODULI_MAX_CELLS {message}")
        assert got.endswith("... (5002 characters)")

    def test_library_functions_are_uncapped(self, monkeypatch):
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", "1")
        h = StabilityHypotheses(3, 2, 2, 4, 5, 5)
        assert check_sufficiency(h, feasible_interval(3, 2, 2, 4).sample)[0]
        w = Polarization(Fraction(2, 7), Fraction(5, 7))
        assert len(enumerate_components(NodalCurve(2, 3), 3, 5, w)) == 3
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert GluingDatum(2, None, 0, 0, sigma=[[1, 0], [0, 1]]).k == 2
        runs = region_runs(2, 1, (0, 99), (0, 99))
        assert sum(last - first + 1 for _, first, last, _, _ in runs) == 10**4
        assert len(region_scan(2, 1, (0, 99), (0, 99))) == 10**4


class TestParserReuse:
    # build_parser is cached: every in-process main call shares one parser.
    GLUE = ["glue", "--matrix", str(GOLDEN / "scaled_rank7.json"), "--chi1", "2",
            "--chi2", "-3"]

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_reproduces_the_golden_corpus(self, capsys):
        build_parser.cache_clear()
        assert run(capsys, "feasible", "--r", "2")[0] == 2
        assert run(capsys, "feasible", "--r", "2", "--k", "5", "--chi1", "0",
                   "--chi2", "0")[0] == 1
        # Under another digit limit, test_golden skips the digit-limit cases.
        names = [name for name in sorted(CASES, reverse=True)
                 if DEFAULT_DIGIT_LIMIT or name not in DIGIT_LIMIT_CASES]
        for name in names * 2:
            got, recorded = compared(name)
            assert got == recorded, name

    def test_usage_text_follows_columns_at_print_time(self, capsys, monkeypatch):
        argv = ["region", "--r", "2", "--k", "1", "--chi1", "1", "--chi2", "0:1"]
        errors = {}
        for columns in ("30", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, _, err = run(capsys, *argv)
            assert code == 2
            with pytest.raises(SystemExit):
                build_parser.__wrapped__().parse_args(argv)
            assert capsys.readouterr().err == err
            errors[columns] = err
        assert errors["30"] != errors["200"]

    def _new_live_parsers(self, capsys):
        """ArgumentParser objects left alive by 100 glue calls with the
        cyclic collector off."""
        def live():
            return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

        assert run(capsys, *self.GLUE)[0] == 0
        gc.collect()
        before = live()
        gc.disable()
        try:
            for _ in range(100):
                assert main(self.GLUE) == 0
            after = live()
        finally:
            gc.enable()
            capsys.readouterr()
        return after - before

    def test_glue_calls_leave_no_parser_behind(self, capsys):
        assert self._new_live_parsers(capsys) == 0

    def test_negative_control_uncached_parser_is_left_behind(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert self._new_live_parsers(capsys) >= 100


class TestMkTest:
    def test_boundary_case(self, capsys):
        doc = run_json(
            capsys, "mk-test", "--sub-d", "1", "--sub-rk", "1",
            "--amb-d", "3", "--amb-rk", "2", "--m", "0", "--k", "1",
        )
        assert doc["outputs"]["holds"] is True

    def test_boundary_case_strict(self, capsys):
        doc = run_json(
            capsys, "mk-test", "--sub-d", "1", "--sub-rk", "1",
            "--amb-d", "3", "--amb-rk", "2", "--m", "0", "--k", "1", "--strict",
        )
        assert doc["outputs"]["holds"] is False


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "does-not-exist")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "feasible", "--r", "2")
        assert code == 2
        assert "usage" in err.lower()

    def test_feasible_has_no_json_flag(self, capsys):
        code, _, err = run(
            capsys, "feasible", "--r", "2", "--k", "1", "--chi1", "2", "--chi2", "3",
            "--json",
        )
        assert code == 2
        assert "unrecognized arguments: --json" in err

    def test_long_non_integer_is_quoted_short(self, capsys):
        code, _, err = run(capsys, "dims", "--g1", "2", "--g2", "3", "--r", "x" * 100)
        assert code == 2
        assert err.endswith(
            f"argument --r: invalid int value: '{'x' * 39}... (102 characters)\n"
        )

    @pytest.mark.parametrize(
        "chi1", ["a:" + "1" * 5000, "1" * 5000], ids=["non_integer_bound", "no_colon"]
    )
    def test_long_range_is_quoted_short(self, capsys, chi1):
        code, _, err = run(
            capsys, "region", "--r", "2", "--k", "1", "--chi1", chi1, "--chi2", "0:1"
        )
        assert code == 2
        assert len(err) < 300
        assert f"({len(chi1) + 2} characters)" in err

    @needs_default_digit_limit
    @pytest.mark.parametrize(
        "chi1, bound",
        [("1" * 5000 + ":0", "1" * 5000), ("0: -" + "2" * 5000, " -" + "2" * 5000)],
        ids=["lower", "upper"],
    )
    def test_too_many_digits_in_either_bound_names_that_bound(self, capsys, chi1, bound):
        with pytest.raises(argparse.ArgumentTypeError) as caught:
            cli.int_range_arg(chi1)
        assert str(caught.value) == (
            f"too many digits in integer: {repr(bound)[:40]}... ({len(bound) + 2} characters)"
        )


def _pattern_mismatches(pattern, texts) -> list[str]:
    """The texts on which int() and a full match of pattern disagree."""
    mismatches = []
    for text in texts:
        try:
            int(text)
            reads = True
        except ValueError:
            reads = False
        if reads != (pattern.fullmatch(text) is not None):
            mismatches.append(text)
    return mismatches


def _texts_around_each_character():
    """Every character that is a space or a digit to str, and a few others,
    alone and in each position around a digit."""
    for c in map(chr, range(0x110000)):
        if c.isspace() or c.isdigit() or c in "+-_x.\u200b\ufeff":
            yield from (c, "1" + c, c + "1", c + "1" + c, "1" + c + "1", "-" + c + "1")


def _random_texts(n):
    rng = random.Random(16)
    alphabet = list("0123456789_+- \t\n\x1c\x1fx.") + ["\u0663", "\xa0", "\u3000", "\xb2"]
    for _ in range(n):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))


def test_integer_pattern_matches_exactly_what_int_reads():
    assert _pattern_mismatches(cli._INTEGER_RE, _texts_around_each_character()) == []
    assert _pattern_mismatches(cli._INTEGER_RE, _random_texts(20_000)) == []


def test_negative_control_plain_space_class_is_caught():
    # \s also takes the separators \x1c-\x1f, which int() does not strip.
    loose = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")
    mismatches = _pattern_mismatches(loose, _texts_around_each_character())
    assert sorted(mismatches) == sorted(
        text for c in "\x1c\x1d\x1e\x1f" for text in ("1" + c, c + "1", c + "1" + c)
    )


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "nodalmoduli", "dims", "--g1", "2", "--g2", "3", "--r", "4"],
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "dims.out").read_bytes()
