"""The README's Python examples run as written.

Each fenced ``python`` block of README.md is executed in a fresh namespace
and must leave ``response`` as a finite array with one value per point of
its ``grid``.
"""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    namespace: dict = {}
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
    response = namespace["response"]
    assert isinstance(response, np.ndarray)
    assert response.shape == (namespace["grid"].points,)
    assert np.all(np.isfinite(response))
