import textwrap

import numpy as np

import fraclap
from fraclap.grid import output_nodes
from fraclap.reference import exact_rational


def _typical_use() -> str:
    """The indented code block after "Typical use::" in the package docstring."""
    doc = fraclap.__doc__
    block = doc[doc.index("Typical use::") + len("Typical use::"):]
    lines = []
    for line in block.splitlines()[1:]:
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def test_typical_use_runs():
    code = _typical_use()
    assert "FractionalLaplacian" in code
    namespace = {}
    exec(compile(code, "fraclap.__doc__", "exec"), namespace)
    params, values = namespace["params"], namespace["values"]
    exact = exact_rational(params.alpha, output_nodes(params.grid))
    assert values.shape == (params.grid.N,)
    assert np.max(np.abs(values - exact)) < 1e-6 * np.max(np.abs(exact))
