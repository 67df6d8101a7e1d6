"""``bench/ab.py``: the classes of each layer, checked against references,
and the A/B driver that times them.

The script is loaded by path, unchanged, so a fault on any class it times,
a layer that no longer builds its classes, or a driver that no longer
prints its table fails this suite instead of the next A/B run:

- ``matrix_rank``: ``matrix_rank`` against the list elimination of
  ``oracles.list_matrix_rank``;
- ``parse_matrix``: ``parse_matrix`` against the cell-by-cell decoder
  ``oracles.cellwise_parse_matrix``;
- ``region_layout``: every class builds, the narrow, tall and far boxes'
  text is the whole-box reference of ``test_cli.whole_box_output``, and the
  far box prints no int that the writer reads from its table;
- ``check_sufficiency``: every class holds feasible data of its r in its
  mode, and ``check_sufficiency`` answers each as the ``Fraction`` sweep
  ``oracles.fraction_sufficiency`` does.
"""

import pytest

import nodalmoduli
from by_path import ROOT, load_by_path
from nodalmoduli import cli
from nodalmoduli.feasibility import feasible_interval
from nodalmoduli.gluing import matrix_rank, parse_matrix
from nodalmoduli.stability import StabilityHypotheses
from oracles import cellwise_parse_matrix, fraction_sufficiency, list_matrix_rank
from test_cli import _printed_ints, whole_box_output

AB = load_by_path(ROOT / "bench" / "ab.py", "bench_ab")

# Left out for time: its one 16x16 matrix of 50-digit p/q takes about
# 0.7 s in each kernel, more than every other class together.
SLOW = {"dense16-50d"}

CLASSES = AB.rank_classes(1)
PARSE_CLASSES = AB.parse_classes(1)
REGION_CLASSES = AB.region_classes(1)
SUFFICIENCY_CLASSES = AB.sufficiency_classes(1)


def test_slow_classes_are_still_built():
    assert SLOW <= CLASSES.keys()


@pytest.mark.parametrize("name", [name for name in CLASSES if name not in SLOW])
def test_class_ranks_match_list_elimination(name):
    for i, matrix in enumerate(CLASSES[name]):
        assert matrix_rank(matrix) == list_matrix_rank(matrix), (name, i)


@pytest.mark.parametrize("name", PARSE_CLASSES)
def test_parse_classes_match_cellwise_decoding(name):
    for i, cells in enumerate(PARSE_CLASSES[name]):
        assert parse_matrix(cells) == cellwise_parse_matrix(cells), (name, i)


def test_region_classes_are_built():
    names = list(REGION_CLASSES)
    assert names[:3] == ["first-json", "largest-json", "largest-csv"]
    assert names[3] in ("median-json", "median-csv")
    assert names[4:] == [
        "narrow-json", "narrow-csv", "tall-json", "tall-csv", "far-json", "far-csv",
    ]
    for name, boxes in REGION_CLASSES.items():
        (box,) = boxes
        assert name.endswith(box.fmt), name
    assert REGION_CLASSES["first-json"] == [next(AB.inputs.region_requests(1))]
    assert REGION_CLASSES["narrow-json"][0].cells == 10_001 * 8
    assert REGION_CLASSES["tall-csv"][0].cells == 100_000
    assert REGION_CLASSES["far-json"][0].cells == 300 * 300


def texts(name, chi1):
    """The writer's text and the whole-box reference for the rows chi1 of
    the box of class name: a whole box takes seconds in the reference."""
    (box,) = REGION_CLASSES[name]
    box = box._replace(chi1=chi1)
    want = whole_box_output(box.r, box.k, box.chi1, box.chi2, box.fmt)
    if box.fmt == "json":
        want = want.partition('"cells": [\n')[2].partition("\n    ]")[0]
    else:
        want = want.partition("\n")[2]
    return AB.laid_out(cli)(box), want


# The 1,000 rows around chi1 = 0 cross chi1 = 0 and chi1 = k, and so hold
# every case of a row's cuts, where the first 1,000 rows all have chi1 < 0.
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_narrow_box_text_is_the_whole_box_output(fmt):
    got, want = texts(f"narrow-{fmt}", (-500, 499))
    assert got == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tall_box_text_is_the_whole_box_output(fmt):
    got, want = texts(f"tall-{fmt}", (-500, 499))
    assert got == want


# Every cell of the far box has the same shape, so its first rows will do.
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_far_box_text_is_the_whole_box_output(fmt):
    got, want = texts(f"far-{fmt}", (2_000_000, 2_000_004))
    assert got == want


def test_far_box_prints_every_int_past_the_table():
    (box,) = REGION_CLASSES["far-csv"]
    printed = _printed_ints([(box.r, box.k, box.chi1, box.chi2)])
    assert set(printed) == {(2, "chi2"), (2, 0, "p"), (2, 0, "q"), (2, 1, "p"), (2, 1, "q")}
    assert min(abs(x) for ints in printed.values() for x in ints) >= cli._TEXTS_N


def test_sufficiency_classes_hold_feasible_data_of_their_rank_and_mode():
    assert list(SUFFICIENCY_CLASSES) == [
        f"r{r}{mode}" for r in (4, 8, 16, 32) for mode in ("", "-strict")
    ]
    for name, cases in SUFFICIENCY_CLASSES.items():
        r, _, mode = name[1:].partition("-")
        assert len(cases) == (AB.R32 if r == "32" else 23), name
        for datum, strict in cases:
            assert datum.r == int(r) and strict == (mode == "strict"), name
            assert feasible_interval(datum.r, datum.k, datum.chi1, datum.chi2).feasible
    requests = AB.inputs.classify_requests(1)
    firsts = [next(requests) for _ in range(3 * AB.inputs.CLASS_DECK)]
    for r in AB.inputs.CLASSIFY_RANKS:
        assert [d for d, _ in SUFFICIENCY_CLASSES[f"r{r}"]] == [
            d for d in firsts if d.r == r and AB.feasible(d)
        ]


@pytest.mark.parametrize("name", SUFFICIENCY_CLASSES)
def test_sufficiency_classes_match_the_fraction_sweep(name):
    check = AB.sufficiency(nodalmoduli)
    for datum, strict in SUFFICIENCY_CLASSES[name]:
        h = StabilityHypotheses(*datum)
        w = feasible_interval(datum.r, datum.k, datum.chi1, datum.chi2).sample
        assert check((datum, strict)) == fraction_sufficiency(h, w, strict), datum


def test_every_layer_names_its_classes_and_a_function_of_the_package():
    assert list(AB.LAYERS) == [
        "matrix_rank", "parse_matrix", "region_layout", "check_sufficiency",
    ]
    package = AB.load(str(ROOT / "src"), "nodalmoduli_bench_test")
    timed = {layer: fn(package) for layer, (_, fn) in AB.LAYERS.items()}
    assert timed["matrix_rank"] is package.gluing.matrix_rank
    assert timed["parse_matrix"] is package.gluing.parse_matrix
    (box,) = REGION_CLASSES["narrow-csv"]
    box = box._replace(chi1=(0, 1))
    assert timed["region_layout"](box) == AB.laid_out(cli)(box)
    case = SUFFICIENCY_CLASSES["r4-strict"][0]
    assert timed["check_sufficiency"](case) == AB.sufficiency(nodalmoduli)(case) == (True, None)


def test_compare_prints_the_header_and_one_row_per_class(capsys, tmp_path):
    AB.compare(str(tmp_path), str(tmp_path), 3, abs, lambda x: abs(x), {"one": [-2, 5]})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("python ") and lines[0].endswith(", seed 3, 5 ABBA rounds")
    assert lines[1:3] == [f"A: {tmp_path} @ unknown", f"B: {tmp_path} @ unknown"]
    assert lines[3].split() == ["class", "A", "median", "[q1-q3]", "ms",
                                "B", "median", "[q1-q3]", "ms", "B/A", "B", "won"]
    row = lines[4].split()
    assert row[0] == "one" and len(row) == 7
    assert float(row[5]) > 0 and row[6].endswith("/10")


def test_negative_control_disagreeing_trees_stop_the_run(capsys, tmp_path):
    with pytest.raises(SystemExit, match="^one: the trees disagree$"):
        AB.compare(str(tmp_path), str(tmp_path), 3, abs, lambda x: -abs(x), {"one": [-2, 5]})
    assert len(capsys.readouterr().out.splitlines()) == 4  # the header, no row
