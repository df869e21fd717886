"""Every public name is one the package itself uses, or is kept for a stated reason.

Public means a name in ``oqst.__all__``, or a function or method whose name
has no leading underscore, defined at the top level of a module under
``src/oqst`` or in a class there.  A function counts as used when the package
reads its name or an attribute of that name; a method only by an attribute,
so a local variable of the same name does not hide an unused method.
"""

import ast
import inspect
from pathlib import Path

import oqst

SRC = Path(oqst.__file__).resolve().parent

# Public names that no code in the package calls, each with why it stays public;
# functions and methods by their path under ``oqst`` (module, then class).
KEEP = {
    "__version__": "package metadata",
    "trajectory.sample_ensemble": "the only form that yields per-trajectory records, ledger "
                                  "and states, in seed order; sample_blocks yields columns",
    "lindblad.heat_work_segment": "the only form that takes a Protocol with mid-segment "
                                  "switches or a callable schedule",
    "qmath.partial_trace": "the only public partial trace; it keeps a DensityOperator one",
    "thermo.average_control_entropy_production": "the only public outcome-averaged control "
                                                 "entropy production; its kernel is private",
    "lindblad.ThermalGenerator.apply": "the generator's action L(rho): the tests' oracle of "
                                       "the first-order step; perfbench traces it by name",
    "lindblad.ThermalGenerator.superoperator": "the dense step map, as the README documents "
                                               "it: the tests' oracle of the banded kernel",
    "lindblad.Protocol.constant": "builds the protocol heat_work_segment takes",
    "lindblad.Protocol.sudden": "builds the protocol heat_work_segment takes, with switches",
    "qmath.DensityOperator.maximally_mixed": "test helper: the maximally mixed state",
    "qmath.random_density": "test helper: a random mixed state, as verify draws them",
    "channels.random_instrument": "test helper: a random complete instrument, as verify "
                                  "draws them",
    "scenarios.tpm.tpm_process": "test helper: the two-point measurement as engine inputs, "
                                 "for the tree oracle",
    "scenarios.cavity.CavityReport.population": "one level's ensemble population, as the "
                                                "acceptance tests read the report",
}


def references() -> tuple:
    """Names read as variables, and attribute names, in the package's code outside
    ``__init__.py``.  Definitions, imports, comments and docstrings do not count."""
    loads, attributes = set(), set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return loads, attributes


def public_definitions() -> dict:
    """Path under ``oqst`` -> (name, is a method) of every public function and method."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = node.name, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = item.name, True
    return found


def unused() -> set:
    """Every public name the package does not use, as ``KEEP`` names it."""
    loads, attributes = references()
    names = {path for path, (name, method) in public_definitions().items()
             if name not in attributes and (method or name not in loads)}
    # the other exports, classes and constants, by name
    names |= {name for name in oqst.__all__ if not inspect.isfunction(getattr(oqst, name))
              and name not in loads | attributes}
    return names


def test_every_public_name_is_used_or_kept():
    assert sorted(unused() - set(KEEP)) == []


def test_keep_list_is_current():
    # a kept name must still be public and still have no caller in the package
    assert sorted(set(KEEP) - unused()) == []


def test_every_exported_function_is_a_public_definition():
    # so the walk over definitions covers every function of oqst.__all__
    definitions = {path.rsplit(".", 1)[-1] for path in public_definitions()}
    functions = {name for name in oqst.__all__ if inspect.isfunction(getattr(oqst, name))}
    assert sorted(functions - definitions) == []
