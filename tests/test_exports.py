import importlib
import pkgutil

import dunkl_lab


def test_every_exported_name_resolves():
    modules = [dunkl_lab] + [
        importlib.import_module(f"dunkl_lab.{m.name}")
        for m in pkgutil.iter_modules(dunkl_lab.__path__)]
    assert len(modules) > 1
    # cli and verify declare no __all__
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
