import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = """
import json, sys
startup = set(sys.modules)
import symphot.cli
print(json.dumps(sorted(set(sys.modules) - startup)))
"""


def test_cli_loads_only_stdlib_and_numpy():
    # the runtime package needs only numpy: importing the CLI in a fresh
    # interpreter loads nothing else beyond the interpreter's startup set
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert "symphot.cli" in loaded and "numpy" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "symphot"}
    assert [m for m in loaded if m.split(".")[0] not in allowed] == []


def test_no_private_name_crosses_modules():
    # an underscore name stays private to its module: no module of the
    # package imports one from a sibling
    crossings = []
    for path in sorted((Path(SRC) / "symphot").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "symphot"):
                crossings += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert crossings == []


def test_fock_storage_stays_in_fock():
    # only fock builds or reads a FockVector's key index, values and kept
    # norm, its per-N key index and its heralding memo; every other module
    # goes through its public constructor and functions
    storage = {"_index", "_values", "_from_index", "_store", "_nsq", "_reversed_key_index",
               "_PAIRINGS"}
    touches = []
    for path in sorted((Path(SRC) / "symphot").glob("*.py")):
        if path.name != "fock.py":
            touches += [f"{path.name}:{node.lineno}"
                        for node in ast.walk(ast.parse(path.read_text(), str(path)))
                        if isinstance(node, ast.Attribute) and node.attr in storage]
    assert touches == []
