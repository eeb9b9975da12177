"""The documented example of the package docstring runs as written."""

import textwrap

import nipg2d


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
