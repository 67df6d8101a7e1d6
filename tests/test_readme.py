"""README's command block runs as documented: each ``nodalmoduli`` line of
the ``sh`` block under "## Command line", split with ``shlex``, is run
through ``cli.main`` from a directory holding ``sigma.json`` (a copy of the
golden ``identity.json``), and must exit 0 with output on stdout."""

import shlex
import shutil

from by_path import ROOT
from golden_cases import CASES, GOLDEN
from nodalmoduli.cli import main

README = ROOT / "README.md"


def command_lines(text: str) -> list[str]:
    """The ``nodalmoduli`` lines of the first ``sh`` block under the
    "## Command line" heading of text."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("nodalmoduli ")]


def failing_lines(lines, tmp_path, monkeypatch, capsys) -> list[str]:
    """The lines that exit nonzero or print nothing to stdout."""
    shutil.copy(GOLDEN / "identity.json", tmp_path / "sigma.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NODAL_MODULI_MAX_CELLS", raising=False)
    failing = []
    for line in lines:
        code = main(shlex.split(line)[1:])
        if code != 0 or not capsys.readouterr().out:
            failing.append(line)
    return failing


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    lines = command_lines(README.read_text(encoding="utf-8"))
    # Every command of the corpus has a line.
    commands = {argv[0] for argv, _, _ in CASES.values()}
    assert {shlex.split(line)[1] for line in lines} == commands
    assert failing_lines(lines, tmp_path, monkeypatch, capsys) == []


def test_negative_control_misspelt_option_fails(tmp_path, monkeypatch, capsys):
    lines = command_lines(README.read_text(encoding="utf-8"))
    misspelt = lines[0].replace(" --chi1 ", " --chi-1 ", 1)
    assert misspelt != lines[0]
    lines[0] = misspelt
    assert failing_lines(lines, tmp_path, monkeypatch, capsys) == [misspelt]
