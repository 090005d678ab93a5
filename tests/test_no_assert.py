"""Certification must survive ``python -O``, which strips ``assert``
statements, so the library may not rely on them for any check; and a
failure must reach the caller as a typed ``FourCoverError``, so the library
raises no host exception of its own."""

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


HOST_ERRORS = {"AssertionError", "ZeroDivisionError", "ValueError"}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_raises_no_host_exceptions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and _raised_name(node) in HOST_ERRORS]
    assert not found, "host exceptions raised in the library: %s" % ", ".join(found)
