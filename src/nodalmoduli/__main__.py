"""``python -m nodalmoduli``: the same entry point as the ``nodalmoduli`` script."""

from .cli import console_main

console_main()
