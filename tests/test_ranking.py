"""Where the ranking kernel lives (``hyperproj.ranking``), and where its tests run.

The kernel's behaviour is tested beside its callers, in test_embeddings.py and
test_evaluation.py; here, that imports run one way, from ``embeddings`` and
``evaluation`` to ``ranking``, and that no other module binds a kernel name, so
that a test's patch of one has a single target and a stale patch fails, and
that CI runs every test file of the kernel with a two-thread BLAS, under its
default kernels and under the Haswell ones.
"""

import ast
import re
from pathlib import Path

import pytest

from hyperproj import embeddings, evaluation, ranking

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
KERNEL_STEPS = "Ranking and training tests"  # the name of each step that must run them


def read(module) -> str:
    return Path(module.__file__).read_text(encoding="utf-8")


def scope(node):
    """Every node of ``node``'s own scope, those of nested functions and classes excluded."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                  ast.Lambda)):
            yield from scope(child)


def module_bindings(tree) -> list[tuple[str, int]]:
    """(name, line) of each name bound at module level: by a def, a class, an
    assignment or an import."""
    found = []
    for node in scope(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.append((node.id, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [((alias.asname or alias.name).split(".")[0], node.lineno)
                      for alias in node.names]
    return found


def kernel_names(ranking_source: str) -> set[str]:
    """The names ``ranking`` defines itself: its functions, classes and constants."""
    tree = ast.parse(ranking_source)
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    return {name for name, _ in module_bindings(tree)} - imported


def embeddings_imports(tree) -> list[tuple[ast.AST, list[str]]]:
    """Each import in ``tree`` that reads ``embeddings``, and the names it takes from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module in ("embeddings", "hyperproj.embeddings"):
                found.append((node, names))
            elif node.module in (None, "hyperproj") and "embeddings" in names:
                found.append((node, []))
        elif isinstance(node, ast.Import):
            if any(alias.name == "hyperproj.embeddings" for alias in node.names):
                found.append((node, []))
    return found


def layering_violations(sources: dict[str, str]) -> list[str]:
    """Each place where the ``ranking``, ``embeddings`` and ``evaluation`` sources
    break the kernel's layering: ``ranking`` imports ``embeddings`` outside an
    ``if TYPE_CHECKING:`` block, ``evaluation`` takes a kernel name from
    ``embeddings``, or ``embeddings`` binds one."""
    kernel = kernel_names(sources["ranking"])
    found = []
    tree = ast.parse(sources["ranking"])
    typing_only = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
                   for stmt in node.body for inner in ast.walk(stmt)}
    found += [f"ranking line {node.lineno}: imports embeddings"
              for node, _ in embeddings_imports(tree) if id(node) not in typing_only]
    tree = ast.parse(sources["evaluation"])
    found += [f"evaluation line {node.lineno}: takes {name} from embeddings"
              for node, names in embeddings_imports(tree) for name in names if name in kernel]
    found += [f"evaluation line {node.lineno}: names embeddings.{node.attr}"
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) == "embeddings" and node.attr in kernel]
    found += [f"embeddings line {line}: binds {name}"
              for name, line in module_bindings(ast.parse(sources["embeddings"])) if name in kernel]
    return found


def test_the_kernel_is_imported_one_way_and_bound_once():
    sources = {"ranking": read(ranking), "embeddings": read(embeddings),
               "evaluation": read(evaluation)}
    assert {"top_cosines", "gold_ranks", "_below_one", "BLOCK_ENTRIES"} <= kernel_names(
        sources["ranking"])
    assert layering_violations(sources) == []


def test_the_layering_scan_sees_each_violation():
    sources = {"ranking": """
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from .embeddings import EmbeddingTable
from . import embeddings
def top_cosines():
    from hyperproj.embeddings import load_embeddings
GEMM_ROWS = 64
def gold_ranks(): pass
""", "evaluation": """
from .embeddings import EmbeddingTable, top_cosines
from .ranking import gold_ranks
from . import embeddings
rows = embeddings.GEMM_ROWS, embeddings.load_embeddings
""", "embeddings": """
from .ranking import top_cosines
GEMM_ROWS = 64
class Table:
    def top_cosines(self): pass
if GEMM_ROWS:
    def _row_norms(): pass
    def gold_ranks(): pass
"""}
    assert kernel_names(sources["ranking"]) == {"top_cosines", "GEMM_ROWS", "gold_ranks"}
    assert layering_violations(sources) == [
        "ranking line 5: imports embeddings", "ranking line 7: imports embeddings",
        "evaluation line 2: takes top_cosines from embeddings",
        "evaluation line 5: names embeddings.GEMM_ROWS",
        "embeddings line 2: binds top_cosines", "embeddings line 3: binds GEMM_ROWS",
        "embeddings line 8: binds gold_ranks"]


def test_a_stale_patch_of_a_kernel_name_fails(monkeypatch):
    for name in kernel_names(read(ranking)):
        with pytest.raises(AttributeError):
            monkeypatch.setattr(embeddings, name, None)


def imports_ranking(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module == "hyperproj.ranking" or (
                    node.module == "hyperproj" and any(a.name == "ranking" for a in node.names)):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name == "hyperproj.ranking" for alias in node.names):
                return True
    return False


def unlisted_kernel_tests(workflow: str, tests: dict[str, str]) -> list[str]:
    """Each test file of ``tests`` (path -> source) that imports ``hyperproj.ranking``
    and is missing from the ``run:`` line of a KERNEL_STEPS step of ``workflow``,
    as "step: file"; "not two steps" when there are not two such steps."""
    steps = {}
    for step in re.split(r"\n\s*- name: ", workflow)[1:]:
        name = step.partition("\n")[0]
        if name.startswith(KERNEL_STEPS):
            run = re.search(r"^\s*run: (.*)$", step, re.M)
            steps[name] = set(re.findall(r"tests/\w+\.py", run.group(1) if run else ""))
    if len(steps) != 2:  # with a two-thread BLAS, and again under the Haswell kernels
        return ["not two steps"]
    return [f"{name}: {path}" for name, listed in steps.items()
            for path, source in sorted(tests.items())
            if imports_ranking(source) and path not in listed]


def test_ci_runs_every_kernel_test_file_with_two_threads_and_under_haswell():
    tests = {f"tests/{path.name}": path.read_text(encoding="utf-8")
             for path in (ROOT / "tests").glob("test_*.py")}
    assert imports_ranking(tests["tests/test_evaluation.py"])
    assert unlisted_kernel_tests(WORKFLOW.read_text(encoding="utf-8"), tests) == []


def test_the_workflow_scan_sees_an_unlisted_file():
    workflow = """
    steps:
      - name: Ranking and training tests with a two-thread BLAS
        run: python -m pytest -q tests/test_a.py tests/test_b.py
      - name: Tier-1 tests
        run: python -m pytest -q tests/test_c.py
      - name: Ranking and training tests with a two-thread BLAS, Haswell kernels
        if: matrix.python-version == '3.11'
        run: python -m pytest -q tests/test_a.py
"""
    tests = {"tests/test_a.py": "from hyperproj import ranking\n",
             "tests/test_b.py": "import hyperproj.ranking\n",
             "tests/test_c.py": "from hyperproj.ranking import top_cosines\n",
             "tests/test_d.py": "from hyperproj import embeddings\n"}
    assert unlisted_kernel_tests(workflow, tests) == [
        "Ranking and training tests with a two-thread BLAS: tests/test_c.py",
        "Ranking and training tests with a two-thread BLAS, Haswell kernels: tests/test_b.py",
        "Ranking and training tests with a two-thread BLAS, Haswell kernels: tests/test_c.py"]
    haswell = "Ranking and training tests with a two-thread BLAS, Haswell kernels"
    assert unlisted_kernel_tests(workflow.replace(haswell, "Other"), tests) == ["not two steps"]
