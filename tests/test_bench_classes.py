"""The classes of the ``bench/`` scripts, checked against references.

Each script is loaded by path, unchanged, so a fault on any class it times,
or a script that no longer builds its classes, fails this suite instead of
the next A/B run:

- ``bench/matrix_rank.py``: ``matrix_rank`` against the list elimination
  of ``oracles.list_matrix_rank``;
- ``bench/parse_matrix.py``: ``parse_matrix`` against the cell-by-cell
  decoder ``oracles.cellwise_parse_matrix``;
- ``bench/region_layout.py``: every class builds, and the narrow box's
  text is the whole-box reference of ``test_cli.whole_box_output``.
"""

import importlib.util
from pathlib import Path

import pytest

from nodalmoduli import cli
from nodalmoduli.gluing import matrix_rank, parse_matrix
from oracles import cellwise_parse_matrix, list_matrix_rank
from test_cli import whole_box_output

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Left out for time: its one 16x16 matrix of 50-digit p/q takes about
# 0.7 s in each kernel, more than every other class together.
SLOW = {"dense16-50d"}


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLASSES = _load_script("matrix_rank").classes(1)
PARSE_CLASSES = _load_script("parse_matrix").classes(1)
REGION = _load_script("region_layout")
REGION_CLASSES = REGION.classes(1)


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
    assert names[4:] == ["narrow-json", "narrow-csv"]
    for name, boxes in REGION_CLASSES.items():
        (box,) = boxes
        assert name.endswith(box.fmt), name
    assert REGION_CLASSES["first-json"] == [next(REGION.inputs.region_requests(1))]
    assert REGION_CLASSES["narrow-json"][0].cells == 10_001 * 8


# The whole narrow box takes about 4 s in the reference, so its 1,000 rows
# around chi1 = 0 are checked: they hold every case of a row's cuts, where
# its first 1,000 rows all have chi1 < 0.
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_narrow_box_text_is_the_whole_box_output(fmt):
    (box,) = REGION_CLASSES[f"narrow-{fmt}"]
    box = box._replace(chi1=(-500, 499))
    got = REGION.laid_out(cli)(box)
    want = whole_box_output(box.r, box.k, box.chi1, box.chi2, fmt)
    if fmt == "json":
        want = want.partition('"cells": [\n')[2].partition("\n    ]")[0]
    else:
        want = want.partition("\n")[2]
    assert got == want
