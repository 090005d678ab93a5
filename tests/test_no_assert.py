"""Certification must survive ``python -O``, which strips ``assert``
statements, so the library may not rely on them for any check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fourcover"


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1, "no library sources under %s" % SRC
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: %s" % ", ".join(found)
