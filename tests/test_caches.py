import importlib
import pkgutil

import msn


def test_every_lru_cache_is_bounded():
    # An unbounded memo keyed on spaces or maps grows with every distinct
    # input for the life of the process.
    caches = {}
    for info in pkgutil.walk_packages(msn.__path__, "msn."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                caches[f"{mod.__name__}.{name}"] = obj.cache_parameters()["maxsize"]
    assert "msn.seminorms.dual_ball_facets" in caches
    assert all(size is not None for size in caches.values()), caches
