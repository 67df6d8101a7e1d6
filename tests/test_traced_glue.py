"""The benchmark tracer sees the rank of a ``glue`` request.

``perfbench/tracing.py`` is loaded by path, unchanged, and its ``Tracer`` is
installed around one ``glue`` request on an n x n matrix file.  The
elimination must show up as one call of ``gluing.matrix_rank`` over n**2
entries, so the traced glue-cli layers account for it.  Every attribute the
tracer replaces is restored when the test ends.
"""

import importlib
import json

import pytest

from by_path import ROOT, load_by_path
from nodalmoduli import cli, gluing
from oracles import list_matrix_rank

TRACING = ROOT / "perfbench" / "tracing.py"

N = 12
MATRIX = [[f"{i + 1}/{j + 2}" if i != j else str(j) for j in range(N)] for i in range(N)]
RANK = list_matrix_rank(gluing.parse_matrix(MATRIX))


def _traced_glue(monkeypatch, capsys, tmp_path) -> tuple[int, int, str]:
    """The calls and entries of gluing.matrix_rank in one traced glue
    request, and what the request wrote."""
    tracing = load_by_path(TRACING, "perfbench_tracing")
    modules = [importlib.import_module(name) for name in tracing.PACKAGE_MODULES]
    for module in modules:
        for _, name in tracing.FUNCTIONS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(module, name))
    for mod, name in tracing.CLASSES:
        cls = getattr(importlib.import_module(f"nodalmoduli.{mod}"), name)
        monkeypatch.setattr(cls, "__init__", cls.__init__)
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(MATRIX))
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main(["glue", "--matrix", str(path), "--chi1", "3", "--chi2", "4"]) == 0
    calls = tracer.aggregate()["gluing.matrix_rank"]["calls"]
    return calls, tracer.counters["gluing.matrix_rank.entries"], capsys.readouterr().out


def test_glue_ranks_through_the_traced_matrix_rank(monkeypatch, capsys, tmp_path):
    calls, entries, out = _traced_glue(monkeypatch, capsys, tmp_path)
    assert (calls, entries) == (1, N * N)
    assert json.loads(out)["outputs"]["k"] == RANK


@pytest.fixture
def side_path_datum(monkeypatch):
    """GluingDatum taking k from gluing's list elimination, as a side path
    around matrix_rank would."""
    init = gluing.GluingDatum.__init__

    def side_path(self, r, k, chi1, chi2, sigma=None):
        rank = gluing._list_rank([list(row) for row in sigma if any(row)])
        init(self, r, rank, chi1, chi2)

    monkeypatch.setattr(gluing.GluingDatum, "__init__", side_path)


def test_negative_control_side_path_rank_is_not_traced(
        monkeypatch, capsys, tmp_path, side_path_datum):
    calls, entries, out = _traced_glue(monkeypatch, capsys, tmp_path)
    assert json.loads(out)["outputs"]["k"] == RANK
    assert (calls, entries) != (1, N * N)
