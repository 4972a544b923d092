"""Every name a module of the package exports resolves.

A name removed from a module but left in its ``__all__`` breaks
``from module import *`` and misleads the reader; nothing else would notice.
"""

import importlib
import pkgutil
import types

import lpslice


def _stale(mod) -> list:
    return [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]


def test_every_exported_name_resolves():
    mods = {info.name: importlib.import_module(f"lpslice.{info.name}") for info in pkgutil.iter_modules(lpslice.__path__)}
    assert {"baselines", "compression", "learner", "lp_core"} <= {n for n, m in mods.items() if hasattr(m, "__all__")}
    assert {name: _stale(mod) for name, mod in mods.items() if _stale(mod)} == {}


def test_the_check_sees_a_stale_name():
    mod = types.ModuleType("m")
    mod.kept = 1
    mod.__all__ = ["kept", "gone"]
    assert _stale(mod) == ["gone"]
