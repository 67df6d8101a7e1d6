"""Load a script of the repository by its path, unchanged, as a module
that is not entered in ``sys.modules``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_by_path(path: Path, name: str):
    """The module run from the file at path, named name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
