"""The package's public surface."""

import ast
import pathlib
import re

import avgflow

PACKAGE = pathlib.Path(avgflow.__file__).parent


def test_every_export_is_used_inside_the_package():
    """Each name ``avgflow`` exports occurs at least twice in its modules: its
    definition and one use.  A function that only tests call belongs in the
    tests, not in the package."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    source = "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py"))
                       if path.name != "__init__.py")
    unused = [name for name in exported
              if len(re.findall(rf"\b{name}\b", source)) < 2]
    assert exported and not unused, f"exported but unused inside avgflow: {unused}"
