"""One-shot commands load only the code they run.

``python -m repro --help`` and ``list`` run no analysis, and a warm
``batch`` only looks verdicts up: none of them replays a script, draws
a scenario, builds an executor or proves anything, so none may load
the transformation library, numpy, the vectorized engine, the prover
or the HTTP service.  Each command runs in a fresh interpreter that
records ``sys.modules`` as it exits.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import RunConfig
from repro.analysis.runner import run_batch

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: modules no command here may load.
UNUSED = (
    "numpy",
    "repro.semantics.vectorized",
    "repro.symbolic",
    "repro.service",
    "repro.transform",
)

#: child prelude: run ``python -m repro ARGV``, then write the names of
#: every loaded module to the file named by the first argument.
RUN_CLI = """
import atexit, json, runpy, sys

path = sys.argv.pop(1)

def _record():
    with open(path, "w") as out:
        json.dump(sorted(sys.modules), out)

atexit.register(_record)
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _loaded(tmp_path, code, *argv):
    """The modules a fresh interpreter running ``code`` has loaded at exit."""
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code, str(out), *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return set(json.loads(out.read_text())), run.stdout


@pytest.mark.parametrize("argv", [["--help"], ["list"]], ids=["help", "list"])
def test_command_loads_no_engine(tmp_path, argv):
    modules, _ = _loaded(tmp_path, RUN_CLI, *argv)
    assert not modules.intersection(UNUSED)


def test_warm_batch_loads_no_engine(tmp_path):
    store = tmp_path / "store"
    run_batch(config=RunConfig(trials=8, cache_dir=store))
    modules, stdout = _loaded(
        tmp_path, RUN_CLI, "batch", "--json", "--trials", "8", "--cache-dir", str(store)
    )
    assert json.loads(stdout)["cache"] == {"enabled": True, "hits": 20, "misses": 0}
    assert not modules.intersection(UNUSED)


def test_facade_import_loads_no_runner(tmp_path):
    code = (
        "import json, sys\n"
        "import repro.api\n"
        "with open(sys.argv[1], 'w') as out:\n"
        "    json.dump(sorted(sys.modules), out)\n"
    )
    modules, _ = _loaded(tmp_path, code)
    assert "repro.api" in modules
    assert not modules.intersection({"numpy", "repro.analysis.runner"})
