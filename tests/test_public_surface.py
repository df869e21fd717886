"""Every public name is one the package itself uses, or is kept for a stated reason."""

import ast
from pathlib import Path

import oqst

SRC = Path(oqst.__file__).resolve().parent

# Public names that no code in the package calls, each with why it stays public.
KEEP = {
    "partial_trace": "one-state oracle of verify's partial-trace check; many test files use it",
    "tensor_product": "builds joint states in many test files",
    "average_map": "documented one-state form of the instrument's average channel",
    "verify_instrument": "declared per-layer metric channels.verify_instrument.calls_per_step",
    "heat_work_segment": "acceptance-test API; documented one-state segment heat and work",
    "check_measurement_entropy_lemma": "acceptance-test API; documented one-record lemma check",
    "stochastic_entropy": "documented one-record form of the ledger's stochastic entropy",
    "sample_trajectory": "acceptance-test API; declared metric trajectory.sample_trajectory.calls",
    "__version__": "package metadata",
}


def referenced_names() -> set:
    """Names read as variables or attributes in the package's code outside ``__init__.py``.

    Definitions, imports, comments and docstrings do not count.
    """
    names = set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_or_kept():
    unused = set(oqst.__all__) - referenced_names()
    assert sorted(unused - set(KEEP)) == []


def test_keep_list_is_current():
    # a kept name must still be public and still have no caller in the package
    assert sorted(set(KEEP) - set(oqst.__all__)) == []
    assert sorted(set(KEEP) & referenced_names()) == []
