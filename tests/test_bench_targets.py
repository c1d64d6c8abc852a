"""The benchmark's trace targets exist in the program.

``bench/spans.py`` times the program by replacing module attributes; a
refactor that renames one of them would otherwise show up only in a traced
benchmark run.  The module imports only the standard library, so it is
loaded here straight from its file.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable_attribute():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attribute, _, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)
