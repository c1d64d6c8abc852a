"""Layout rules for the library source in ``src/losspool``."""

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
