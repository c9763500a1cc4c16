"""Rules that hold for the library's source text."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tnslab"


def test_library_invariants_raise_instead_of_asserting():
    # assert statements vanish under python -O, so an invariant must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and not found
