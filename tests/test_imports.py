"""The package and its kinetic, walk and Dirac runs load no scipy module.

Nor does the package, importing or running, load a process-pool module:
roup.march_runs fans its runs' chunks out through kernels.run_parts, on
os.fork. Every name the package and its modules export is defined.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import relwalk

_SCRIPT = """
import json, pkgutil, sys
import numpy as np
import relwalk, relwalk.cli
for info in pkgutil.iter_modules(relwalk.__path__):
    __import__("relwalk." + info.name)
from relwalk import dirac, fick, kernels, qwalk, roup

kernels._cores = lambda: 2
runs = [roup.Run(1.0, t, 0.01, (t,), 32, 64) for t in (0.1, 0.2)]
profiles = roup.march_runs(runs, 2)
assert [sorted(found) for found in profiles] == [[0.1], [0.2]]
pool = sorted(name for name in sys.modules
              if name.split(".")[0] in ("concurrent", "multiprocessing"))
assert pool == [], pool
state = roup.march(roup.Run(1.0, 0.5, 0.01, (0.5,), 32, 64))[0]
profile = roup.reconstruct_density(state, refine=2)
fick.metric_from_density(profile)
jet = qwalk.JetSpec(zeta0=-np.pi / 2.0, theta_bar=lambda T, X: 0.3 * np.cos(X))
dirac.convergence_study(jet, dirac.gaussian_packet, 0.4, [0.2, 0.1], 8.0)
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_package_and_runs_load_no_scipy():
    # a fresh interpreter, so modules the test session imported do not count
    env = dict(os.environ, PYTHONPATH=str(Path(relwalk.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_every_exported_name_is_defined():
    # a dangling __all__ entry breaks `from relwalk import *` only when it runs
    modules = [relwalk] + [importlib.import_module("relwalk." + info.name)
                           for info in pkgutil.iter_modules(relwalk.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert [name for name in exported if not hasattr(module, name)] == [], module.__name__
