"""Start-up cost: a first-order cavity run never imports scipy."""

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


def test_exact_propagation_loads_scipy():
    code = """
import sys
import numpy as np
from oqst.lindblad import propagate, thermal_cavity_generator
from oqst.qmath import DensityOperator
gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 3)
before = "scipy" in sys.modules
propagate(gen, DensityOperator.maximally_mixed(4), 82e-6, "exact")
print(before, "scipy" in sys.modules)
"""
    assert run_python(code) == "False True"
