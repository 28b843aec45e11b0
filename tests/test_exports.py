"""Every name a module exports must exist."""

import importlib
import pkgutil

import qilab


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
