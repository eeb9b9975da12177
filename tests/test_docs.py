"""The package docstring's example runs as written, and the ``cli``
docstring documents exactly the config keys the study reads."""

import re
import textwrap

import nipg2d
from nipg2d import cli


def typical_use_block():
    """The indented code block after ``Typical use::`` in nipg2d.__doc__."""
    _, _, rest = nipg2d.__doc__.partition("Typical use::\n")
    lines = []
    for line in rest.splitlines():
        if line.strip() and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def test_typical_use_example_runs():
    namespace = {}
    exec(compile(typical_use_block(), "nipg2d.__doc__", "exec"), namespace)
    assert namespace["report"].converged
    # the k = 1, eps = 1e-5, N = 16 entry of README's measured table
    assert format(namespace["record"].e_in, ".3e") == "5.598e-02"


def test_cli_docstring_lists_exactly_the_config_keys():
    listed = re.findall(r"^    (\w+) = ", cli.__doc__, re.MULTILINE)
    assert listed == list(cli.CONFIG_KEYS)
