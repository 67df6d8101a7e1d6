"""``bench/matrix_rank.py``'s classes, ranked by ``matrix_rank`` and by the
list elimination of ``oracles.list_matrix_rank``.  The script is loaded by
path, unchanged, so a kernel fault on any class it times, or a script that
no longer builds its classes, fails this suite instead of the next A/B run.
"""

import importlib.util
from pathlib import Path

import pytest

from nodalmoduli.gluing import matrix_rank
from oracles import list_matrix_rank

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "matrix_rank.py"

# Left out for time: its one 16x16 matrix of 50-digit p/q takes about
# 0.7 s in each kernel, more than every other class together.
SLOW = {"dense16-50d"}


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_matrix_rank", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLASSES = _load_script().classes(1)


def test_slow_classes_are_still_built():
    assert SLOW <= CLASSES.keys()


@pytest.mark.parametrize("name", [name for name in CLASSES if name not in SLOW])
def test_class_ranks_match_list_elimination(name):
    for i, matrix in enumerate(CLASSES[name]):
        assert matrix_rank(matrix) == list_matrix_rank(matrix), (name, i)
