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


def _is_threshold(node) -> bool:
    """A number that reads as a tolerance or a cap: nonzero, at most 1e-5 or
    at least 1e3 in magnitude (bools are not numbers here)."""
    if not isinstance(node, ast.Constant) or type(node.value) not in (int, float, complex):
        return False
    return node.value != 0 and not 1e-5 < abs(node.value) < 1e3


def test_thresholds_are_named_only_in_the_tensors_tolerance_block():
    # a tolerance written as a number outside tensors.py escapes the one policy
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tensors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _is_threshold(n)]
    assert list(SRC.glob("*.py")) and not found


def test_every_tensors_constant_states_its_reason():
    # each module-level constant carries a comment on its line or the line above
    text = (SRC / "tensors.py").read_text(encoding="utf-8")
    lines = text.splitlines()
    names = [
        (node.targets[0].id, node.lineno)
        for node in ast.parse(text).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.isupper()
    ]
    missing = [
        name
        for name, k in names
        if "#" not in lines[k - 1] and not lines[k - 2].lstrip().startswith("#")
    ]
    assert names and not missing


def test_the_capacity_rule_is_decided_only_in_tensors():
    # a `cap` parameter or a cap constant elsewhere would be a second rule for
    # how big a state may be; tensors.check_state is the one rule
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tensors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if isinstance(node, ast.arg) and node.arg == "cap":
                    found.append(f"{path.name}:{node.lineno} parameter cap")
                if name in ("DEFAULT_EVAL_CAP", "DEFAULT_CAPACITY_CAP"):
                    found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert list(SRC.glob("*.py")) and not found


def test_only_ttns_runs_decomposition_sweeps():
    # an open chain is a tree on a path, so the tree sweeps in ttns.py are the
    # one decomposition implementation; a split_leg call elsewhere would be a
    # second sweep deciding bond ranks
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "ttns.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name == "split_leg":
                        found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found


def test_the_public_names_are_listed_once_and_resolve():
    # every public name __init__ imports is in __all__, once, and resolves, so
    # a removed function cannot linger in the export list
    import tnslab

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    listed = list(tnslab.__all__)
    assert len(listed) == len(set(listed))
    assert all(hasattr(tnslab, name) for name in listed)
    assert imported and not imported - set(listed)


# Each base container module and the module whose containers extend it.
_EXTENDED_BY = {"peps": "ttns", "mps_pbc": "mps_obc"}


def test_a_base_container_module_imports_nothing_from_its_extension():
    # a tree is a graph and an open chain is a ring, so the imports run from
    # the extension to the base; one back the other way would be a cycle
    found = []
    for base, ext in _EXTENDED_BY.items():
        tree = ast.parse((SRC / f"{base}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            parts = []  # every dotted part an import names: `from .ttns import x` gives ttns, x
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
            if ext in parts:
                found.append(f"{base}.py:{node.lineno} imports {ext}")
    assert not found
