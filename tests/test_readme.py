"""The README's examples run as written: its python blocks in order in one
namespace, and each command of its CLI block through cli.main."""

import re
import shlex
from pathlib import Path

from gradagrad import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)


def test_readme_python_blocks_run(monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name datasets/ relative to the repo root
    namespace = {}
    examples = [block for block in BLOCKS if "matplotlib" not in block]  # plotting reads CSVs of CLI runs
    assert len(examples) == len(BLOCKS) - 1 >= 3
    for n, block in enumerate(examples, start=1):
        exec(compile(block, f"README.md python example {n}", "exec"), namespace)


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # the commands write their CSVs to the working directory and read datasets/ from it
    (tmp_path / "datasets").symlink_to(ROOT / "datasets")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in CLI_BLOCK.replace("\\\n", " ").splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(commands) >= 6 and all(argv[0] == "gradagrad" for argv in commands)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
