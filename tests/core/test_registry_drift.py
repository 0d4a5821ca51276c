"""Drift guard: algorithm names live in exactly one module.

The refactor's invariant is that ``repro.core.registry`` is the only
place under ``src/`` or ``benchmarks/`` that spells an algorithm name
as a string literal — everything else refers to the exported constants
or asks the registry.  These tests enforce it structurally:

* an AST scan over both trees flags any non-docstring string constant
  containing a canonical name (docstrings are prose and may discuss
  algorithms by name; code may not);
* the CLI's generated ``--algorithm`` help and the benchmark drivers'
  algorithm axes are compared against the registry, so the user-facing
  surfaces cannot silently diverge from what actually dispatches.
"""

import ast
import sys
from pathlib import Path

from repro.core import registry
from repro.core.registry import MATCHING, MPC_FAMILY, RULING_SET

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED_TREES = (REPO_ROOT / "src", REPO_ROOT / "benchmarks")
REGISTRY_PATH = REPO_ROOT / "src" / "repro" / "core" / "registry.py"

ALL_NAMES = registry.algorithm_names()


def _docstring_constants(tree: ast.AST):
    """The Constant nodes that are docstrings (prose, not dispatch)."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add(id(body[0].value))
    return docstrings


def _name_literals(path: Path):
    """(line, literal) pairs in ``path`` that contain an algorithm name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstring_constants(tree)
    hits = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and any(name in node.value for name in ALL_NAMES)
        ):
            hits.append((node.lineno, node.value))
    return hits


def test_registry_is_the_only_module_spelling_names():
    offenders = []
    for tree_root in SCANNED_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            if path == REGISTRY_PATH:
                continue
            for lineno, literal in _name_literals(path):
                offenders.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: {literal!r}"
                )
    assert not offenders, (
        "algorithm-name literals outside repro.core.registry "
        "(use the exported constants instead):\n  " + "\n  ".join(offenders)
    )


#: Modules under the stricter rule: no algorithm-name literal anywhere,
#: docstrings included.  The framework and the shared sparsify-and-gather
#: loop are algorithm-agnostic by design, and the newest family module
#: must not hard-code sibling names either — each would re-grow the
#: coupling this refactor removed.
STRICT_PROSE_FREE = (
    REPO_ROOT / "src" / "repro" / "core" / "program.py",
    REPO_ROOT / "src" / "repro" / "core" / "engine_ops.py",
    REPO_ROOT / "src" / "repro" / "core" / "gp_ruling.py",
)


def test_framework_modules_spell_no_names_even_in_prose():
    offenders = []
    for path in STRICT_PROSE_FREE:
        source = path.read_text()
        for name in ALL_NAMES:
            if name in source:
                offenders.append(f"{path.relative_to(REPO_ROOT)}: {name!r}")
    assert not offenders, (
        "algorithm names in algorithm-agnostic modules (docstrings "
        "included):\n  " + "\n  ".join(offenders)
    )


def test_program_framework_imports_no_solver_modules():
    # Structural independence: the framework must not import anything
    # from repro.core (solvers build on it, never the reverse).
    path = REPO_ROOT / "src" / "repro" / "core" / "program.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            offenders.extend(
                alias.name for alias in node.names
                if alias.name.startswith("repro.core")
            )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro.core"):
                offenders.append(node.module)
    assert not offenders, (
        f"repro.core imports inside the framework module: {offenders}"
    )


def test_registry_spells_every_name_it_exports():
    # The guard above is vacuous if the registry itself stopped defining
    # the names; pin that the literals all live there.
    source = REGISTRY_PATH.read_text()
    for name in ALL_NAMES:
        assert f'"{name}"' in source


class TestCliHelpTracksRegistry:
    """The --algorithm help must be the registry's, verbatim.

    The raw ``action.help`` strings are compared (``format_help()``
    hyphen-wraps long names, so rendered output is not substring-safe).
    """

    def _option_help(self, command: str, option: str) -> str:
        import argparse

        from repro.cli import make_parser

        parser = make_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                sub = action.choices[command]
                for sub_action in sub._actions:
                    if option in sub_action.option_strings:
                        return sub_action.help or ""
        raise AssertionError(f"no {option!r} option on {command!r}")

    def test_solve_help_lists_ruling_set_algorithms(self):
        help_text = self._option_help("solve", "--algorithm")
        for name in registry.algorithm_names(problem=RULING_SET):
            assert name in help_text

    def test_match_help_lists_matching_algorithms(self):
        help_text = self._option_help("match", "--algorithm")
        for name in registry.algorithm_names(problem=MATCHING):
            assert name in help_text

    def test_sweep_help_lists_ruling_set_algorithms(self):
        help_text = self._option_help("sweep", "--algorithms")
        for name in registry.algorithm_names(problem=RULING_SET):
            assert name in help_text


class TestBenchAxesTrackRegistry:
    def _bench(self, module_name: str):
        if str(REPO_ROOT) not in sys.path:
            sys.path.insert(0, str(REPO_ROOT))
        import importlib

        return importlib.import_module(f"benchmarks.{module_name}")

    def test_e1_axis_is_every_mpc_ruling_set_algorithm(self):
        bench = self._bench("bench_e1_rounds_table")
        assert tuple(bench.ALGORITHMS) == registry.algorithm_names(
            family=MPC_FAMILY, problem=RULING_SET
        )

    def test_bench_axes_are_registered(self):
        for module_name in (
            "bench_e1_rounds_table",
            "bench_e2_delta_sweep",
            "bench_e4_quality",
            "bench_e8_local_baselines",
        ):
            bench = self._bench(module_name)
            for name in bench.ALGORITHMS:
                assert registry.is_registered(name), (
                    f"{module_name}.ALGORITHMS contains unregistered "
                    f"{name!r}"
                )
