"""Importing the command line loads no module it does not need.

Every CLI process starts with ``import nodalmoduli.cli``, so each module on
that path is paid for by every invocation.  ``dataclasses`` alone pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``; the records are plain
classes, and this suite fails if either module comes back.  Annotations take
their abstract types from ``collections.abc``, not ``typing``; ``site`` may
import ``typing`` itself (through a ``.pth`` file), so that probe runs under
``python -S``.  To see what the import loads and what each module costs,
run ``PYTHONPATH=src python -X importtime -c "import nodalmoduli.cli"``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the modules the snippet adds to those loaded by a bare start.
PROBE = """\
import sys
before = set(sys.modules)
{snippet}
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def added_modules(snippet: str, *flags: str) -> set[str]:
    """Modules that running ``snippet`` in a fresh interpreter started with
    ``flags``, with ``src`` on the path, adds to ``sys.modules``."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", PROBE.format(snippet=snippet)],
        cwd=SRC,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(result.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = added_modules("import nodalmoduli.cli")
    assert "nodalmoduli.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_negative_control_explicit_import_is_reported():
    added = added_modules("import nodalmoduli.cli\nimport dataclasses")
    assert {"dataclasses", "inspect"} <= added


def test_cli_import_without_site_loads_no_typing():
    added = added_modules("import nodalmoduli.cli", "-S")
    assert "nodalmoduli.cli" in added
    assert "typing" not in added


def test_negative_control_explicit_typing_import_is_reported():
    added = added_modules("import nodalmoduli.cli\nimport typing", "-S")
    assert "typing" in added
