"""Load a module from its file as a module that is not entered in
``sys.modules``: a script of the repository by its path, unchanged, or a
module of the package with its source edited, for negative controls."""

import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_by_path(path: Path, name: str):
    """The module run from the file at path, named name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutant(module: types.ModuleType, *edits: tuple[str, str]) -> types.ModuleType:
    """module's source with each (old, new) edit made, old occurring exactly
    once, run as its own module of module's package."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    mutated = types.ModuleType(f"{module.__name__}_mutant")
    mutated.__package__ = module.__package__
    exec(compile(source, module.__file__, "exec"), mutated.__dict__)
    return mutated
