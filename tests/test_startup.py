"""Start-up cost: the runtime never imports scipy, and a cavity run not numpy.random.

scipy is a test-only oracle.  A first-order cavity run does not even load
it when it is installed, and every path that takes a matrix exponential
runs with scipy made unimportable.  A cavity run draws its uniforms by
array Philox, so it loads neither ``numpy.random`` nor the hashing modules
that come with it; the scenarios that do draw from numpy's generators
load them on first use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_first_order_cavity_run_does_not_import_scipy(tmp_path):
    code = f"""
import sys
import oqst, oqst.cli as cli
argv = ["run", "cavity", "--steps", "5", "--traj", "3", "--seed", "1", "--out", {str(tmp_path)!r}]
cli.parse_config(argv)
print("scipy" in sys.modules, cli.main(argv))
"""
    assert run_python(code) == "False 0"
    assert (tmp_path / "summary.json").is_file()


def test_runtime_runs_with_scipy_unimportable(tmp_path):
    # a None entry in sys.modules makes every ``import scipy...`` raise ImportError
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import oqst.cli as cli
from oqst.lindblad import propagate, thermal_cavity_generator
from oqst.qmath import DensityOperator
from oqst.scenarios import RateModel, run_classical_limit
out = {str(tmp_path)!r}
codes = [
    cli.main(["verify", "--seed", "7", "--out", out + "/verify"]),
    cli.main(["run", "cavity", "--exact-propagator", "--steps", "5", "--traj", "3",
              "--seed", "1", "--out", out + "/cavity"]),
    cli.main(["run", "classical", "--steps", "5", "--seed", "1", "--out", out + "/classical"]),
]
gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 3)
propagate(gen, DensityOperator.maximally_mixed(4), 82e-6, "exact")
run_classical_limit(RateModel.thermal([0.0, 1.0], 1.0, attempt_rate=0.5), steps=6, dt=0.02)
print(sys.modules["scipy"], codes)
"""
    assert run_python(code) == "None [0, 0, 0]"
    for run in ("verify", "cavity", "classical"):
        assert (tmp_path / run / "summary.json").is_file()


def test_cavity_runs_do_not_import_numpy_random(tmp_path):
    code = f"""
import sys
import oqst.cli as cli
out, runs = {str(tmp_path)!r}, [[], ["--exact-propagator"], ["--dense"],
                                 ["--workers", "2", "--traj", "600"]]
loaded = set()
for i, flags in enumerate(runs):
    argv = ["run", "cavity", "--steps", "5", "--traj", "3", "--seed", "1",
            "--out", out + "/cavity" + str(i), *flags]
    assert cli.main(argv) == 0
    loaded |= {{"numpy.random", "secrets", "hashlib"}} & set(sys.modules)
codes = [cli.main(["run", "classical", "--mode", "gillespie", "--steps", "5", "--traj", "3",
                   "--seed", "1", "--out", out + "/gillespie"]),
         cli.main(["verify", "--seed", "7", "--out", out + "/verify"])]
print(sorted(loaded), codes, "numpy.random" in sys.modules)
"""
    assert run_python(code) == "[] [0, 0] True"
    for run in ("cavity0", "cavity1", "cavity2", "cavity3", "gillespie", "verify"):
        assert (tmp_path / run / "summary.json").is_file()
