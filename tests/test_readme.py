"""README's `## Library` example runs against the library as it is, and its
`## CLI` block is valid usage of every command."""

import re
import shlex
from pathlib import Path

from mochy.cli import COMMANDS, _validate, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(section: str, language: str = "") -> str:
    """The first code block of README's `## <section>` section."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(code_block("Library", "python"), "README.md", "exec"), namespace)
    # hyperedge 1 is {2, 3, 4}, node 2 is label 3: ids in order of first appearance
    assert namespace["members"].tolist() == [1, 2, 3]
    assert namespace["incident"].tolist() == [0, 1, 2]
    assert namespace["exact"].total() == 1


def test_cli_block_is_valid_usage_of_every_command():
    commands = set()
    for line in filter(None, code_block("CLI").replace("\\\n", " ").splitlines()):
        program, *argv = shlex.split(line, comments=True)
        assert program == "mochy"
        args = build_parser().parse_args(argv)
        _validate(args)
        commands.add(args.command)
    assert commands == set(COMMANDS)
