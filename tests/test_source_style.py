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


def unused_private_names(path):
    """Private top-level names of a source file that nothing else in it loads.

    A private name is one with a leading underscore that is not a dunder.  A
    load inside the name's own definition, such as a recursive call, does
    not count as a use.
    """
    tree = ast.parse(path.read_text())
    definitions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        definitions[name.id] = node
    unused = []
    for name, definition in definitions.items():
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            and id(node) not in inside
            for node in ast.walk(tree)
        ):
            unused.append(f"{path.name}: {name}")
    return unused


def test_every_private_name_is_used_by_its_own_module():
    unused = [item for path in sorted(PACKAGE.glob("*.py")) for item in unused_private_names(path)]
    assert not unused, unused


def test_oracle_takes_norms_only_through_stable_qnorm():
    """``np.linalg.norm`` under- and overflows where the scaled q-norm does not."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "norm"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    ]
    imports = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
    ]
    assert not calls + imports, calls + imports


def test_sampler_makes_no_call_to_builtin_sum():
    """From Python 3.12 ``sum`` compensates float sums, so the sampler's bits
    would depend on the interpreter; it adds with its own left-to-right loop."""
    tree = ast.parse((PACKAGE / "sampler.py").read_text())
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert not calls, calls


def test_trainer_reads_no_pooled_loss():
    """Each crop's loss is the weighted sum of its pixel losses, taken from
    the weights every reduction makes, not a second per-mode formula."""
    tree = ast.parse((PACKAGE / "trainer.py").read_text())
    reads = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "pooled_loss"
    ]
    assert not reads, reads


def test_pixel_losses_passes_no_axis_to_numpy():
    """``softmax_xent`` takes its max and sum over the classes as elementwise
    passes in its own order, off numpy's per-row loops."""
    tree = ast.parse((PACKAGE / "pixel_losses.py").read_text())
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "axis" for k in node.keywords)
    ]
    assert not calls, calls


def test_solver_has_no_loop_statement():
    """Per-row work in the solver stays array code; comprehensions are allowed."""
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    loops = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    ]
    assert not loops, loops
