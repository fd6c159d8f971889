import importlib
import pkgutil
from dataclasses import fields
from fractions import Fraction as F

import msn
from msn.linalg import Matrix
from msn.maps import LinearMap, distortion, is_embedding
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace


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


def test_seminorms_and_maps_hold_only_their_fields():
    # A seminorm stores its integer rows and a matrix its integer rows over
    # one denominator, and nothing else; their Fraction views are built on
    # each read.  An integer form kept beside stored Fractions raised
    # amalgam's peak RSS by 1.8 MB after 1024 ops.  No derived state may
    # land on the instances.
    S = PolyhedralSeminorm.from_functionals
    X = MultiSpace.make((S(2, [(1, 0), (F(1, 2), 1)]), S(2, [(1, 1), (F(1, 3), -1)])))
    f = LinearMap(X, X, Matrix.from_rows([[1, F(1, 2)], [0, F(3, 2)]]))
    for s in X.seminorms:
        s((F(1, 2), 3))
    assert not is_embedding(f, 0)[0] and is_embedding(f, 3)[0]
    distortion(f)
    assert f.matrix.entries[1] == (0, F(3, 2)) and f((1, 2)) == (2, 3)
    assert set(vars(f.matrix)) == {"ints", "den", "cols"}
    for obj in (*X.seminorms, f, f.matrix):
        assert set(vars(obj)) == {fld.name for fld in fields(obj)}, type(obj).__name__
