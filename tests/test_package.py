"""What ``import sscn`` loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sscn


def test_import_sscn_loads_the_solver_modules_and_numpy():
    # the benchmark's setup_s times a fresh `import sscn`; that import must
    # keep doing the solver's module and numpy loading
    code = ("import json, sys, sscn; print(json.dumps({m: m in sys.modules for m in "
            "('sscn.dual', 'sscn.pair_opt', 'sscn.matching', 'numpy')}))")
    src = str(Path(sscn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = json.loads(proc.stdout)
    assert all(loaded.values()), loaded

