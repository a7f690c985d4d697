"""Every name a module of the package lists in ``__all__`` must exist, so that
``from twohop.<module> import *`` never fails on a dangling entry."""

import importlib
import pkgutil

import twohop


def test_every_all_entry_resolves():
    modules = [twohop] + [importlib.import_module(f"twohop.{info.name}")
                          for info in pkgutil.iter_modules(twohop.__path__)]
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    assert len(modules) > 1 and all(hasattr(mod, "__all__") for mod in modules[1:])
