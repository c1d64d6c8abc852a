"""Layout rules for the library source in ``src/losspool``."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "losspool"
MAX_LINE = 100


def test_no_source_line_is_longer_than_100_characters():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    long_lines = [
        f"{path.name}:{lineno} ({len(line)} characters)"
        for path in sources
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines


def declared_exports(path):
    """The literal ``__all__`` a source file assigns at top level, or ``None``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_exported_name_is_defined_by_its_module():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        exports = declared_exports(path)
        if exports is None:
            continue
        name = "losspool" if path.stem == "__init__" else f"losspool.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name}: {item}" for item in exports if not hasattr(module, item)]
    assert not missing, missing
