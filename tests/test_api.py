"""The package's public surface: what it exports and what importing it loads."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

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


# Run in a fresh interpreter: the subpackages that only the coupling, the
# two-sample metrics and the LSTM need must stay unloaded by the import and by
# a bridge command, which needs none of them.
COLD_START = """
import json, sys
import avgflow.cli
deferred = sys.argv[2:]
loaded = {"import": [m for m in deferred if m in sys.modules]}
loaded["code"] = avgflow.cli.main(["bridge", "--config", sys.argv[1]])
loaded["bridge"] = [m for m in deferred if m in sys.modules]
print(json.dumps(loaded))
"""
DEFERRED = ["scipy.optimize", "scipy.spatial", "scipy.special"]


def test_cold_start_defers_unused_scipy_subpackages(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_steps": 20, "epsilons": [0.5], "bridge_paths": 2}))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), AVGFLOW_OUT=str(tmp_path / "runs"))
    result = subprocess.run([sys.executable, "-c", COLD_START, str(config), *DEFERRED],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {"import": [], "code": 0, "bridge": []}
