"""The public names of the package: each written once, in its module's ``__all__``."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import clans

MODULES = ("core", "poset", "patterns", "springer", "verify")

PUBLIC = {
    "__version__",
    # core
    "PLUS", "MINUS", "Entry", "Clan", "ClanError", "SignaturePrefix",
    "apply_reflection", "base_dimension", "canonicalize", "count_clans",
    "dimension", "enumerate_clans", "format_clan", "is_closed", "is_sign",
    "noncompact_reflections", "open_clan", "pair_map", "parse_clan",
    "prefix_signature", "token_sort_key",
    # poset
    "PAIR_CREATION", "ENDPOINT_SLIDE", "PAIR_EXCHANGE", "Move",
    "NonIncreasingMoveError", "OrbitPoset", "PosetSizeError", "build_poset",
    "export_dot", "export_tsv", "moves", "successors",
    # patterns
    "FORBIDDEN_PATTERNS", "BlockSplit", "Certificate", "ClosedLeaf",
    "DecompositionError", "OuterStrip", "SignDelete", "SmoothnessVerdict",
    "StructuralViolation", "build_certificate", "certificate_json", "classify",
    "find_embedding", "includes_any", "is_rationally_smooth",
    "structural_check", "verdict_json", "verify_certificate",
    # springer
    "EXCEEDS_BUDGET", "ReflectionWitness", "collapse_to_closed",
    "springer_count", "springer_diagnosis", "witness_json",
    # verify
    "BudgetStatistic", "CheckResult", "report_lines", "run_checks",
}


def _top_level_definitions(module) -> set[str]:
    """Names a module binds by def, class or assignment, not by import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_names_unchanged():
    assert len(PUBLIC) == 62
    assert len(clans.__all__) == len(set(clans.__all__))
    assert set(clans.__all__) == PUBLIC
    for name in clans.__all__:
        assert hasattr(clans, name), name


def test_only_poset_names_its_tables():
    """``OrbitPoset``'s two lazily built tables are laid out in one module."""
    sources = Path(inspect.getfile(clans)).parent.glob("*.py")
    readers = {f.name for f in sources if re.search(r"\b_(diagnosis|closure)\b", f.read_text())}
    assert readers == {"poset.py"}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_only_its_own_names(name):
    module = importlib.import_module(f"clans.{name}")
    assert set(module.__all__) <= _top_level_definitions(module) - {"__all__"}
    for public in module.__all__:
        assert getattr(clans, public) is getattr(module, public)


def test_each_name_written_once():
    lists = [importlib.import_module(f"clans.{name}").__all__ for name in MODULES]
    written = [public for names in lists for public in names]
    assert len(written) == len(set(written))
    assert set(written) | {"__version__"} == PUBLIC


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from clans import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(clans.__all__)
