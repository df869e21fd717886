"""Every law and contract bound is one row of ``thermo``'s table, and every check reads it."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import oqst
from oqst.scenarios import law_flags
from oqst.thermo import EFFICIENCY_CEILING, FIRST_LAW_ATOL, SEGMENT_EP_FLOOR, TRUNCATION_LEAK

SRC = Path(oqst.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# Module-level floats outside ``thermo`` that bound no law: physical constants, and bounds on a
# module's own inputs, each raising a configuration or construction error where it is defined.
NOT_LAW_BOUNDS = {
    "qmath.py": {"EIG_CLAMP", "HERMITICITY_ATOL", "TRACE_ATOL", "POSITIVITY_ATOL"},
    "channels.py": {"COMPLETENESS_ATOL", "IMPOSSIBLE_BRANCH"},
    "lindblad.py": {"FIRST_ORDER_LEAK", "HBAR", "K_B"},
    "scenarios/classical.py": {"DETAILED_BALANCE_ATOL", "STEP_RATE_LIMIT"},
}


def _float_literal(node) -> bool:
    """A float literal, or arithmetic on number literals with a float among them
    (``-1e-10``, ``1.0 + 1e-9``)."""
    parts = list(ast.walk(node))
    return (all(isinstance(n, (ast.Constant, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator))
                for n in parts)
            and any(isinstance(n, ast.Constant) and isinstance(n.value, float) for n in parts))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _module_assignments(path) -> dict:
    """Name -> value node of each module-level assignment of ``path``."""
    out = {}
    for node in _tree(path).body:
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in ast.walk(target)]
            out.update((t.id, node.value) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = node.value
    return out


TABLE = {name for name, value in _module_assignments(SRC / "thermo.py").items()
         if _float_literal(value)}


def test_only_thermo_defines_law_bounds():
    assert {"SEGMENT_EP_FLOOR", "TRUNCATION_LEAK", "JARZYNSKI_RTOL"} <= TABLE
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).as_posix()
        if module == "thermo.py":
            continue
        assigned = _module_assignments(path)
        floats = {name for name, value in assigned.items() if _float_literal(value)}
        assert sorted(floats - NOT_LAW_BOUNDS.get(module, set())) == [], module
        assert sorted(TABLE & set(assigned)) == [], module


def test_every_row_is_read():
    read = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    assert sorted(TABLE - read) == []


def test_verify_and_cli_compare_against_no_literal():
    # Integer literals there count or index (exit codes, the seed's range); the one float
    # compared with is the probability of verify's coin flip between two propagators.
    for module in ("verify.py", "cli.py"):
        for node in ast.walk(_tree(SRC / module)):
            if not isinstance(node, ast.Compare):
                continue
            if (isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Attribute)
                    and node.left.func.attr == "random"):
                continue
            literals = [side for side in (node.left, *node.comparators) if _float_literal(side)]
            assert literals == [], f"{module}:{node.lineno}: {ast.unparse(node)}"


def test_benchmark_copy_of_the_cavity_bounds_is_the_table(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the benchmark, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    at = {"first_law_max_residual": FIRST_LAW_ATOL, "sigma_seg_min": SEGMENT_EP_FLOOR,
          "truncation_max": TRUNCATION_LEAK, "efficiency_max": EFFICIENCY_CEILING}
    beyond = {key: np.nextafter(value, -np.inf if key == "sigma_seg_min" else np.inf)
              for key, value in at.items()}
    assert all(law_flags(at).values()) and not any(law_flags(beyond).values())
    for law_checks in (at, beyond):
        assert checks.law_flags(law_checks) == law_flags(law_checks)
