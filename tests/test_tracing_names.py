"""Every name the benchmark tracer wraps exists in the package.

``perfbench/tracing.py`` looks up each (module, name) of its ``FUNCTIONS``
and ``CLASSES`` as an attribute of ``nodalmoduli.<module>``.  It is loaded
here by path, unchanged, so a change that removes or renames a traced public
name fails this suite instead of the traced benchmark run.
"""

import importlib

from by_path import ROOT, load_by_path
from nodalmoduli import feasibility

TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    return load_by_path(TRACING, "perfbench_tracing")


def _unresolved(tracing) -> list[tuple[str, str]]:
    """The traced (module, name) pairs that nodalmoduli does not define."""
    return [
        (mod, name)
        for mod, name in tracing.FUNCTIONS + tracing.CLASSES
        if not hasattr(importlib.import_module(f"nodalmoduli.{mod}"), name)
    ]


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.CLASSES
    assert _unresolved(tracing) == []


def test_negative_control_removed_name_is_caught(monkeypatch):
    monkeypatch.delattr(feasibility, "region_scan")
    assert _unresolved(_load_tracing()) == [("feasibility", "region_scan")]
