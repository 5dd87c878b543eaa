"""Every ``repro`` module imports, and every name a package exports exists."""

import importlib
import pkgutil

import repro


def test_every_module_imports_and_resolves_its_exports():
    names = ["repro"] + sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
    stale = {}
    for name in names:
        module = importlib.import_module(name)
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        if missing:
            stale[name] = missing
    assert stale == {}
