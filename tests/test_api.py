import importlib
import pkgutil

import herdfilter


def test_every_export_resolves():
    # a deleted name must not linger in any __all__
    modules = [herdfilter] + [
        importlib.import_module(f"herdfilter.{info.name}")
        for info in pkgutil.iter_modules(herdfilter.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
