"""The README's Python examples run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the policy example's two kind sequences, each on about half the rows
    kinds = namespace["kinds"]
    assert set(kinds) == {("x", "z", "x"), ("x", "z", "z")}
    assert min(kinds.values()) > 200
