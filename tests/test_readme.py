"""The README's library example runs as written."""

import ast
import re
from pathlib import Path

import flowauction

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_gives_the_commented_results():
    block = library_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        # A top-level expression followed by its result as a comment.
        match = re.fullmatch(r"(\S.*?)\s+# (.+)", line)
        if match:
            expression, expected = match.groups()
            assert eval(expression, namespace) == ast.literal_eval(expected), line
            checked += 1
    assert checked == 2


def test_every_exported_name_resolves():
    for name in flowauction.__all__:
        assert getattr(flowauction, name) is not None, name
