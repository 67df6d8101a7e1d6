"""``tools/code_lines.py``: the lines it counts as code in a sample file,
and its per-module table over a source tree."""

import subprocess
import sys
import textwrap

from by_path import ROOT, load_by_path

TOOL = ROOT / "tools" / "code_lines.py"


def load_tool():
    return load_by_path(TOOL, "code_lines")


# Code lines are marked "# code"; every other line is a docstring, a
# comment or blank.
SAMPLE = textwrap.dedent('''\
    """A module docstring
    over two lines."""

    import math  # code

    # A comment on its own line.
    TEXT = """a string that is  # code
    not a docstring"""  # code


    class Shape:  # code
        """A class docstring."""

        def area(self, width,  # code
                 height):  # code
            """A method docstring
            that runs on."""
            return math.prod(  # code
                [width, height]  # code
            )  # code
''')


def test_counts_only_code_lines_of_the_sample():
    assert load_tool().code_lines(SAMPLE) == SAMPLE.count("# code")


def test_negative_control_a_docstring_as_code_changes_the_count():
    # The same docstring text assigned to a name is code, line by line.
    code = SAMPLE.replace('"""A class docstring."""', 'NAME = """A class docstring."""')
    assert load_tool().code_lines(code) == SAMPLE.count("# code") + 1


def test_prints_each_module_and_the_total(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SAMPLE)
    (package / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count = SAMPLE.count("# code")
    assert proc.stdout.splitlines() == [
        f"{count:>6}  pkg/a.py", f"{1:>6}  pkg/b.py", f"{count + 1:>6}  total",
    ]
