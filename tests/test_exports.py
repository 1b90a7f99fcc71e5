"""Every name a ``repro`` module lists in ``__all__`` resolves, so
``from module import *`` and the documented exports never go stale."""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    checked, stale = 0, []
    for name in names:
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, entry):
                stale.append(f"{name}.{entry}")
    assert stale == []
    assert checked > 250        # the walk reached the whole package
