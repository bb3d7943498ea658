"""README's `## Library` example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The python code block of README's `## Library` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    # hyperedge 1 is {2, 3, 4}, node 2 is label 3: ids in order of first appearance
    assert namespace["members"].tolist() == [1, 2, 3]
    assert namespace["incident"].tolist() == [0, 1, 2]
    assert namespace["exact"].total() == 1
