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
