"""The README's Python example runs against the package's public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    sparse, dense = namespace["sparse"], namespace["dense"]
    assert len(sparse) > 0 and dense.valid.any()
