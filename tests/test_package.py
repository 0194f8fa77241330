import importlib
import inspect
import pkgutil

import wbcorr


def test_each_public_name_is_declared_once():
    assert len(wbcorr.__all__) == len(set(wbcorr.__all__))
    exported = set()
    for info in pkgutil.iter_modules(wbcorr.__path__):
        mod = importlib.import_module(f"wbcorr.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            # a function or class listed by a module other than its own
            # would be one name declared in two modules
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, (mod.__name__, name)
            assert getattr(wbcorr, name) is obj, name
            exported.add(name)
    assert exported == set(wbcorr.__all__)
