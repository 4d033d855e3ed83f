"""numpy is the only runtime dependency: no entry point imports scipy.

Each probe runs in a fresh interpreter that imports gwish from the same
directory as this test session, then prints the scipy modules it loaded.
Since importing the package runs no library module, one probe runs all
eight of them, so a top-level scipy import in any module is caught.
One more probe checks that the thresholded-candidate search loads no
``numpy.ma``, whose import costs every ``search`` and ``mcmc --init
threshold`` process 10 to 15 ms.

Start-up probes check that numpy is loaded on first use: importing the
package or the CLI, ``--version``, ``--help``, an argparse usage error (a
conflict of exclusive flags included) and ``metrics --graph --truth`` load
no numpy, while ``gen-data`` does, which
shows that the probe can fail.  ``--version`` also loads no ``json``,
``dataclasses`` or ``inspect`` that the bare interpreter had not loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwish

SRC = str(Path(gwish.__file__).resolve().parent.parent)

REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
)

LIBRARY = sorted(f"gwish.{m}" for m in (
    "errors", "graph", "mcmc", "metrics", "model", "numerics", "search", "simulate"))

# the CLI probe is ``python -m gwish.cli --version`` run through runpy, so the
# modules can be listed after argparse's SystemExit; importing the package
# runs no library module, so the last probe runs each one through its
# namespace (the LazyLoader executes a module on its first attribute access)
PROBES = {
    "import gwish": "import gwish\n",
    "import gwish.cli": "import gwish.cli\n",
    "python -m gwish.cli --version": (
        "import runpy, sys\n"
        "sys.argv = ['gwish', '--version']\n"
        "try:\n"
        "    runpy.run_module('gwish.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (None, 0), exc.code\n"
    ),
    "every library module": (
        "import sys\n"
        "import gwish\n"
        f"for name in {LIBRARY!r}:\n"
        "    assert '__file__' in vars(sys.modules[name]), name\n"
    ),
}


def run_probe(code):
    """Standard output of ``code`` run in a fresh interpreter, as lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_no_scipy_module_is_loaded(probe):
    *before, last = run_probe(PROBES[probe] + REPORT)
    if probe.endswith("--version"):
        assert before == [f"gwish {gwish.__version__}"]
    assert json.loads(last) == []


def test_threshold_init_loads_no_masked_arrays():
    lines = run_probe(
        "import sys\n"
        "import numpy as np\n"
        "from gwish.model import Dataset, GraphScorer, Hyperparameters\n"
        "from gwish.search import threshold_init\n"
        "x = np.random.default_rng(0).standard_normal((12, 5))\n"
        "scorer = GraphScorer(Dataset.from_matrix(x), Hyperparameters(g=0.3))\n"
        "g, _ = threshold_init(scorer)\n"
        "print(g.p)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    assert lines == ["5", "[]"]


LOADED = (
    "import json, sys\n"
    "print(json.dumps(['numpy' in sys.modules,\n"
    "                  sorted(m for m in sys.modules if m.startswith('gwish.'))]))\n"
)


def cli_probe(*argv):
    """``python -m gwish.cli ARGV`` run through runpy, printing its exit code."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['gwish', *{[str(a) for a in argv]!r}]\n"
        "try:\n"
        "    runpy.run_module('gwish.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
    )


@pytest.mark.parametrize("probe", ["import gwish", "import gwish.cli"])
def test_import_loads_no_numpy_and_registers_every_module(probe):
    (last,) = run_probe(PROBES[probe] + LOADED)
    cli = ["gwish.cli"] if probe.endswith(".cli") else []
    assert json.loads(last) == [False, sorted(LIBRARY + cli)]


@pytest.mark.parametrize(
    "argv, code",
    [(["--version"], 0),
     (["--help"], 0),
     (["search", "--ridge-grid", "0.1,,1", "--out", "x"], 2),
     (["ratio-experiment", "--case", 4, "--p-list", ",", "--out", "x"], 2),
     (["mcmc", "--kernel", "gibbs", "--out", "x"], 2),
     (["search", "--data", "{data}", "--g", 0.2, "--preset", "ratio",
       "--out", "x"], 2)],
    ids=["version", "help", "ridge-grid", "p-list", "kernel", "g-preset"],
)
def test_command_without_computation_loads_no_numpy(argv, code, tmp_path):
    # a conflict of exclusive flags is caught before the data is read
    (tmp_path / "X.csv").write_text("1,2\n3,5\n4,4\n")
    argv = [str(a).format(data=tmp_path) for a in argv]
    *_, exit_code, last = run_probe(cli_probe(*argv) + LOADED)
    assert exit_code == str(code)
    assert json.loads(last)[0] is False


def test_version_loads_no_json_or_dataclasses():
    lines = run_probe(
        "import sys\n"
        "bare = set(sys.modules)\n"
        + cli_probe("--version")
        + "print(sorted({'json', 'dataclasses', 'inspect'} & set(sys.modules) - bare))\n"
    )
    assert lines == [f"gwish {gwish.__version__}", "0", "[]"]


def test_selection_metrics_load_no_numpy(tmp_path):
    (tmp_path / "est.edges").write_text("p=4\n1 2\n2 3\n")
    (tmp_path / "truth.edges").write_text("p=4\n1 2\n3 4\n")
    *_, exit_code, last = run_probe(cli_probe(
        "metrics", "--graph", tmp_path / "est.edges", "--truth",
        tmp_path / "truth.edges", "--out", tmp_path / "m") + LOADED)
    assert exit_code == "0"
    assert json.loads(last)[0] is False
    assert (tmp_path / "m" / "selection.csv").exists()


def test_gen_data_loads_numpy(tmp_path):
    *_, exit_code, last = run_probe(cli_probe(
        "gen-data", "--kind", "ar1", "--p", 4, "--n", 10, "--out", tmp_path / "d") + LOADED)
    assert exit_code == "0"
    assert json.loads(last)[0] is True
