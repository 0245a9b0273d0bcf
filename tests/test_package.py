import textwrap
from pathlib import Path

import numpy as np

import fraclap
from fraclap.grid import map_to_real, output_nodes
from fraclap.reference import exact_erf, exact_rational

README = Path(__file__).resolve().parents[1] / "README.md"


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


def _library_use() -> str:
    """The first python code block after "## Library use" in the README."""
    text = README.read_text()
    block = text[text.index("## Library use"):]
    block = block[block.index("```python\n") + len("```python\n"):]
    return block[:block.index("```")]


def test_readme_library_use_runs():
    code = _library_use()
    assert "apply_to_samples" in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    params, values = namespace["params"], namespace["values"]
    g = params.grid
    exact = exact_erf(params.alpha, map_to_real(output_nodes(g), g.L))
    assert values.shape == (g.N,)
    assert np.max(np.abs(values - exact)) < 1e-6 * np.max(np.abs(exact))
