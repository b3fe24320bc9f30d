"""Every functools cache in entclone is bounded, so none grows with the
inputs a long-running process meets."""

import importlib
import inspect
import pkgutil

import entclone
from entclone import fock


def module_caches():
    """Each functools cache defined at the top level of an entclone module,
    by qualified name."""
    for info in pkgutil.iter_modules(entclone.__path__):
        module = importlib.import_module(f"entclone.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and \
                    obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_cache_is_bounded():
    caches = dict(module_caches())
    assert "entclone.fock._coincidence_table" in caches
    for name, cached in caches.items():
        maxsize = cached.cache_parameters()["maxsize"]
        # a function of no arguments caches one value
        takes_nothing = not inspect.signature(cached).parameters
        assert maxsize is not None or takes_nothing, name
        # one constant bounds every table of the Fock network
        if name.startswith("entclone.fock."):
            assert maxsize == fock._TABLE_SIZE, name
