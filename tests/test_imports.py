"""numpy is the only runtime dependency: no entry point imports scipy.

Each probe runs in a fresh interpreter that imports gwish from the same
directory as this test session, then prints the scipy modules it loaded.
One more probe checks that the thresholded-candidate search loads no
``numpy.ma``, whose import costs every ``search`` and ``mcmc --init
threshold`` process 10 to 15 ms.
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

# the CLI probe is ``python -m gwish.cli --version`` run through runpy, so the
# modules can be listed after argparse's SystemExit
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
