"""Source-level rules for the package."""

import ast
import pathlib

import bandforge


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a result guard must be a raised error
    package = pathlib.Path(bandforge.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
