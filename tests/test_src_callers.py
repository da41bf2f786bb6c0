"""Code that only tests run stays out of src/.

Every function of ``hcgr.manifold`` and every public name of
``hcgr.autodiff`` is loaded somewhere in src/hcgr outside its own
definition. A primitive that only the tests' reference chains need belongs
in ``tests/ref_ops.py``; a manifold op that only tests call has no place in
the package, since ``hcgr check`` sweeps the ops the network runs. Every
``*_rows`` op is called inside ``checks.manifold_check``, so none of them
escapes that sweep.
"""

import ast
import inspect
from pathlib import Path

from hcgr import autodiff, manifold

SRC = Path(__file__).resolve().parent.parent / "src" / "hcgr"


def loads(module: str) -> dict[str, set[str]]:
    """Each name of hcgr.<module> that src/hcgr loads, mapped to the places
    it is loaded from, as 'file:top-level definition'.

    Other files reach the module through ``from . import <module> [as
    alias]`` and an attribute of the alias, or through ``from .<module>
    import <name>``; the module itself loads its names bare.
    """
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases, imported = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == module:
                        aliases.add(alias.asname or alias.name)
                    elif node.module == module:
                        imported[alias.asname or alias.name] = alias.name
        for top in tree.body:
            where = f"{path.stem}:{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                    name = node.attr
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id if path.stem == module else imported.get(node.id)
                else:
                    continue
                found.setdefault(name, set()).add(where)
    return found


def uncalled(module: str, names) -> list[str]:
    found = loads(module)
    return [name for name in names if not found.get(name, set()) - {f"{module}:{name}"}]


def manifold_functions() -> list[str]:
    return [name for name, fn in inspect.getmembers(manifold, inspect.isfunction) if fn.__module__ == manifold.__name__]


def test_every_manifold_function_has_a_caller_in_src():
    names = manifold_functions()
    assert "weighted_log_rows" in names
    assert uncalled("manifold", names) == []


def test_every_row_op_is_swept_by_the_manifold_check():
    found = loads("manifold")
    rows = [name for name in manifold_functions() if name.endswith("_rows")]
    assert {"boost_rows", "dist_rows", "weighted_log_rows"} <= set(rows)
    assert [name for name in rows if "checks:manifold_check" not in found.get(name, set())] == []


def test_every_public_autodiff_name_has_a_caller_in_src():
    assert uncalled("autodiff", autodiff.__all__) == []

