"""Every name a module of ``mfopt`` imports is read in that module. The
package's ``__init__`` imports only to re-export, so it is not checked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mfopt"

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
