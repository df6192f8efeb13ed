"""Importing the package does no work: set-up is imports only, and only of
the standard library."""

import ast
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# every functools cache of the package, with its size, after a fresh import
# of the command-line module, which imports every other module
PROBE = """
import json, sys
import fakesurfaces.cli
caches = {}
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] == "fakesurfaces":
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info"):
                key = value.__module__ + "." + value.__qualname__
                caches[key] = value.cache_info().currsize
print(json.dumps(caches))
"""


def test_importing_the_package_fills_no_cache():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    caches = json.loads(done.stdout)
    assert len(caches) >= 7, caches
    assert {name: size for name, size in caches.items() if size} == {}


def _imported(path):
    """The absolute imports of a module file, wherever in it they stand."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_and_the_benchmark_import_only_the_standard_library():
    # pyproject.toml declares no dependencies; the benchmark also imports
    # its own modules, which run.py puts on the path
    bench = glob.glob(os.path.join(ROOT, "bench", "*.py"))
    own = {"fakesurfaces"} | {os.path.basename(f)[:-3] for f in bench}
    files = glob.glob(os.path.join(SRC, "fakesurfaces", "**", "*.py"), recursive=True) + bench
    imported = {(os.path.relpath(f, ROOT), name) for f in files for name in _imported(f)}
    assert len(files) >= 15 and len(imported) >= 60, (files, imported)
    allowed = sys.stdlib_module_names | own
    assert {(f, name) for f, name in imported if name.split(".")[0] not in allowed} == set()
