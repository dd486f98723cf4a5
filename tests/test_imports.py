"""Every name a module of ``mfopt`` imports is read in that module. The
package's ``__init__`` imports only to re-export, so it is not checked. And every
function or class that a module of ``mfopt`` defines is named somewhere else. And every
test that README.md or ROADMAP.md cites exists, as does every ``mfopt`` name README.md cites."""

import ast
import importlib
import operator
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mfopt"

# Imported and never read, as (module, name). engines keeps order_crossover only
# for mfbench/tracer.py, which wraps it by name (ROADMAP item 1); once the tracer
# stops needing it, the import and this entry go together.
ALLOWED = {("engines", "order_crossover")}


def unused_imports(source: str) -> set[str]:
    """Names bound by the module's imports (``__future__`` aside) that it never reads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_each_module_reads_every_name_it_imports():
    unused = {(path.stem, name) for path in SRC.glob("*.py") if path.name != "__init__.py"
              for name in unused_imports(path.read_text())}
    assert unused == ALLOWED


def names_used(tree: ast.Module) -> set[str]:
    """Names the module reads, imports or spells as a dotted string (``"tasks.tsp_cost"``,
    as mfbench's tracer does), less each top-level definition's reads of its own name."""
    used = set()
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.split(".")[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[\w.]+", node.value)):
                found.update(node.value.split("."))
        found.discard(getattr(statement, "name", None))
        used |= found
    return used


def test_every_definition_is_named_somewhere():
    # A helper nothing calls, imports or wraps by name is dead code.
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "mfbench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = set().union(*(names_used(ast.parse(path.read_text())) for path in paths))
    defined = {(path.stem, node.name) for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert {(module, name) for module, name in defined if name not in used} == set()


def test_readme_names_only_existing_tests():
    # A test README.md or ROADMAP.md cites, as `TestClass::test_name` or as a bare
    # `test_name`, is defined under tests/ or mfbench/; a bare name may also be a test
    # file's stem.
    paths = [*(ROOT / "tests").rglob("*.py"), *(ROOT / "mfbench").glob("*.py")]
    trees = [ast.parse(path.read_text()) for path in paths]
    methods = {(cls.name, node.name) for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    names = {node.name for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)} | {path.stem for path in paths}
    docs = (ROOT / "README.md").read_text() + (ROOT / "ROADMAP.md").read_text()
    cited = set(re.findall(r"(Test\w+)::(test_\w+)", docs))
    bare = set(re.findall(r"`(test_\w+)`", docs))
    assert (cited - methods, bare - names) == (set(), set())


def test_readme_names_only_existing_attributes():
    # A name README.md cites in backticks under a module of mfopt, as `core.name`,
    # `tasks.name(...)` or `mfopt.harness.Name`, is an attribute of that module, so removing
    # or renaming a function cannot leave README.md stale.
    modules = "|".join(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    cited = re.findall(rf"`(?:mfopt\.)?((?:{modules})(?:\.\w+)+)[`(]",
                       (ROOT / "README.md").read_text())
    missing = []
    for name in cited:
        module, attrs = name.split(".", 1)
        try:
            operator.attrgetter(attrs)(importlib.import_module(f"mfopt.{module}"))
        except AttributeError:
            missing.append(name)
    assert cited and not missing
