"""README's `## Library` example runs against the library as it is and
names every public name, and its `## CLI` block is valid usage of every
command."""

import math
import re
import shlex
import types
from pathlib import Path

import mochy
from mochy.cli import COMMANDS, _validate, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section(name: str) -> str:
    """The text of README's `## <name>` section."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def code_block(name: str, language: str = "") -> str:
    """The first code block of README's `## <name>` section."""
    return re.search(rf"```{language}\n(.*?)```", section(name), re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(code_block("Library", "python"), "README.md", "exec"), namespace)
    # hyperedge 1 is {2, 3, 4}, node 2 is label 3: ids in order of first appearance
    assert namespace["members"].tolist() == [1, 2, 3]
    assert namespace["incident"].tolist() == [0, 1, 2]
    assert namespace["exact"].total() == 1
    # the cp pipeline: a unit-norm profile, and the 5 replicates it counted
    assert math.isclose(sum(c * c for c in namespace["cp"]), 1.0)
    assert len(namespace["replicates"]) == len(namespace["per_replicate"]) == 5


def test_library_section_documents_the_public_surface():
    text = section("Library")
    names = {n for n in mochy.__all__ if not isinstance(getattr(mochy, n), types.ModuleType)}
    assert {n for n in names if f"`{n}`" not in text} == set()
    assert set(re.findall(r"mochy\.(\w+)", text)) - set(mochy.__all__) == set()


def test_cli_block_is_valid_usage_of_every_command():
    commands = set()
    for line in filter(None, code_block("CLI").replace("\\\n", " ").splitlines()):
        program, *argv = shlex.split(line, comments=True)
        assert program == "mochy"
        args = build_parser().parse_args(argv)
        _validate(args)
        commands.add(args.command)
    assert commands == set(COMMANDS)
