"""Every ``repro`` module imports cleanly when it is the first one loaded.

An import cycle only bites when a module on the cycle is entered first, so
a suite that always starts from the same entry point can hide one.  This
runs, in one fresh interpreter, a cold import of each module in turn.
"""

import os
import subprocess
import sys

# Not ``import repro``: with a cycle in the tree, that would fail collection
# instead of this test.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_SCRIPT = """
import importlib, pkgutil, sys

def drop_repro():
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]

import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
drop_repro()
import repro
# Importing any module runs ``repro/__init__`` first, so a module that a bare
# ``import repro`` already loads is entered along the same path: one cold
# ``import repro`` covers all of them.
covered = set(sys.modules)
for name in names:
    if name in covered:
        continue
    drop_repro()
    try:
        importlib.import_module(name)
    except Exception as error:
        print(f"{name}: {error!r}")
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", proc.stdout
