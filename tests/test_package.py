import importlib
import pkgutil

import fockfit


def public_modules():
    """Every non-private fockfit module that declares __all__."""
    for info in pkgutil.iter_modules(fockfit.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"fockfit.{info.name}")
            if hasattr(module, "__all__"):
                yield module


def test_package_root_re_exports_every_public_name():
    names = set()
    for module in public_modules():
        for name in module.__all__:
            assert getattr(fockfit, name) is getattr(module, name), (module.__name__, name)
            names.add(name)
    assert {"intervals", "parameter_values", "MAX_FOCK", "HEISENBERG_SLACK",
            "STUDY_KINDS"} <= names
    assert set(fockfit.__all__) == names
