"""The README's python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run(monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name datasets/ relative to the repo root
    namespace = {}
    examples = [block for block in BLOCKS if "matplotlib" not in block]  # plotting reads CSVs of CLI runs
    assert len(examples) == len(BLOCKS) - 1 >= 3
    for n, block in enumerate(examples, start=1):
        exec(compile(block, f"README.md python example {n}", "exec"), namespace)
