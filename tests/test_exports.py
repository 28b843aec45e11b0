"""Every name a module exports must exist, and something must use it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qilab

ROOT = Path(__file__).resolve().parent.parent

# Exported names that only tests read, each with the reason it stays.
TEST_ONLY_EXPORTS = {
    # tests sort variables by it to check the global monomial order
    "var_rank",
}


def test_every_all_entry_resolves():
    names = ["qilab"] + [
        info.name for info in pkgutil.walk_packages(qilab.__path__, "qilab.")
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    assert len(names) > 10
    assert missing == []


def test_the_exact_transfer_kernel_is_exported_and_transfer_mul_is_gone():
    from qilab import field
    from qilab.chain import model

    assert "spin_transfer" in field.__all__
    assert field.spin_transfer is field.linalg.spin_transfer
    for ring in (model._Exact, model._Numeric):
        assert not hasattr(ring, "transfer_mul") and hasattr(ring, "both_orders")


def _exports_and_uses():
    """The ``__all__`` names of every qilab module, and every name loaded in
    ``src/qilab`` and ``perfbench/*.py``: a ``Name`` read, an attribute, or
    a part of a dotted string in perfbench (its span, hook and metric names).
    Definitions, imports and ``__all__`` entries are not uses."""
    exported, used = {}, set()
    sources = [(p, False) for p in (ROOT / "src" / "qilab").rglob("*.py")]
    sources += [(p, True) for p in (ROOT / "perfbench").glob("*.py")]
    for path, bench in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
            elif (
                not bench
                and isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                exported[path] = ast.literal_eval(node.value)
    return exported, used


def test_every_exported_name_is_used_outside_tests():
    exported, used = _exports_and_uses()
    assert len(exported) > 10
    unused = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path, names in exported.items()
        for name in names
        if name not in used and name not in TEST_ONLY_EXPORTS
    )
    assert unused == []
    assert TEST_ONLY_EXPORTS <= {n for names in exported.values() for n in names}
    assert not TEST_ONLY_EXPORTS & used
