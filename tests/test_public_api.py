"""Every name ``nodalmoduli.__all__`` exports resolves, and is listed once.

A public name removed from a module but left in ``__all__`` breaks
``from nodalmoduli import *`` only when someone runs it; this suite catches
it first.
"""

import nodalmoduli


def _faults(package) -> tuple[list[str], list[str]]:
    """(names in ``__all__`` the package lacks, names listed more than once)."""
    names = package.__all__
    missing = [name for name in names if not hasattr(package, name)]
    repeated = sorted({name for name in names if names.count(name) > 1})
    return missing, repeated


def test_every_exported_name_resolves_once():
    assert nodalmoduli.__all__
    assert _faults(nodalmoduli) == ([], [])


def test_negative_control_removed_name_is_caught(monkeypatch):
    monkeypatch.setattr(nodalmoduli, "__all__", nodalmoduli.__all__ + ["in_region_all_k"])
    assert _faults(nodalmoduli) == (["in_region_all_k"], [])


def test_negative_control_repeated_name_is_caught(monkeypatch):
    monkeypatch.setattr(nodalmoduli, "__all__", nodalmoduli.__all__ + ["in_region"])
    assert _faults(nodalmoduli) == ([], ["in_region"])
