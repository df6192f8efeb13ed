"""Importing the package does no work: set-up is imports only."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
