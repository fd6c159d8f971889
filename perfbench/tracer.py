"""Layer tracer for the msn package, installed from outside the package.

Every public function of every ``msn`` module, and every public method of
the classes they define, is replaced by a timing wrapper.  The wrapper is
bound under every name that holds the original in any ``msn.*`` namespace
(module globals and class attributes), so calls made inside a module and
through ``from ... import`` are caught as well as calls from outside.  A
module's last dotted component names its layer (``msn._kernel.pure`` is
the ``_kernel`` layer).

Per function the tracer keeps call counts, self time (time not covered by
wrapped callees) and outermost-call time.  A span (name, start, end,
parent, op id) is recorded whenever a call crosses from one layer into
another, or enters the package from outside; spans stay in memory until
``spans()`` is written out.  A layer's self time is the sum of its
functions' self times, which equals the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from array import array
from collections import Counter


def layer_of(module_name: str) -> str:
    if module_name.startswith("msn._kernel"):
        return "_kernel"
    return module_name.rsplit(".", 1)[-1]


def _msn_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "msn" or n.startswith("msn."))]


def lru_caches() -> dict:
    """``layer.function`` -> lru_cache object for every cache in the package.

    Call before ``Tracer.install`` (afterwards the module attributes hold
    wrappers).
    """
    out = {}
    for mod in _msn_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{layer_of(mod.__name__)}.{name}"] = obj
    return out


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


# Counters kept at the boundary where the work happens; each runs after an
# outermost (non-recursive) successful call: (tracer, args, kwargs, result).
def _count_rows(tr, args, kwargs, res):
    tr.counters["lp.rows"] += _size(_arg(args, kwargs, 1, "constraints"))


def _count_vertices(tr, args, kwargs, res):
    tr.counters["polytope.vertices_out"] += len(res)


def _count_kept(tr, args, kwargs, res):
    tr.counters["seminorms.functionals_offered"] += _size(_arg(args, kwargs, 1, "functionals"))
    tr.counters["seminorms.functionals_kept"] += len(res.functionals)


def _count_pushout(tr, args, kwargs, res):
    tr.counters["amalgam.functionals_out"] += sum(len(s.functionals) for s in res.space.seminorms)


def _count_checks(tr, args, kwargs, res):
    tr.counters["tower.checks"] += res["checks"]


def _count_net(tr, args, kwargs, res):
    tr.counters["ramsey.net_points"] += len(res.points)


def _count_written(tr, args, kwargs, res):
    tr.counters["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "lp.solve_lp": _count_rows,
    "polytope.polytope_vertices": _count_vertices,
    "seminorms.PolyhedralSeminorm.from_functionals": _count_kept,
    "amalgam.pushout": _count_pushout,
    "tower.verify_tower": _count_checks,
    "ramsey.build_net": _count_net,
    "io.write_json": _count_written,
}


def _targets():
    """(function, qualified name, layer) for everything the tracer wraps."""
    for mod in _msn_modules():
        layer = layer_of(mod.__name__)
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                continue
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                for mname, mobj in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__call__":
                        continue
                    if isinstance(mobj, staticmethod):
                        mobj = mobj.__func__
                    if isinstance(mobj, types.FunctionType):
                        yield mobj, f"{layer}.{name}.{mname}", layer
            elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                yield obj, f"{layer}.{name}", layer


class Tracer:
    """Wraps the package in place; ``remove()`` restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: Counter = Counter()
        self.active = True
        self.op = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def reset(self):
        """Zero every count and drop recorded spans; wrappers stay installed."""
        n = len(self.names)
        # in place: the wrappers hold these lists
        self.calls[:] = [0] * n
        self.raised[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.total_s[:] = [0.0] * n
        self.counters.clear()
        for col in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
            del col[:]

    def install(self) -> "Tracer":
        wrappers = {}
        for fn, qual, layer in list(_targets()):
            if id(fn) not in wrappers:
                fid = len(self.names)
                self.names.append(qual)
                self.layers.append(layer)
                wrappers[id(fn)] = (fn, self._wrap(fid, fn, HOOKS.get(qual)))
        self.reset()
        # Rebind under every name holding an original, in every namespace.
        for mod in _msn_modules():
            spaces = [mod] + [c for c in vars(mod).values()
                              if isinstance(c, type) and c.__module__.startswith("msn")]
            for owner in spaces:
                for attr, val in list(vars(owner).items()):
                    raw = val.__func__ if isinstance(val, staticmethod) else val
                    hit = wrappers.get(id(raw))
                    if hit is None or hit[0] is not raw:
                        continue
                    new = staticmethod(hit[1]) if isinstance(val, staticmethod) else hit[1]
                    self._patches.append((owner, attr, val))
                    setattr(owner, attr, new)
        return self

    def remove(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches = []

    def _wrap(self, fid, fn, hook):
        tracer = self
        layer = self.layers[fid]
        clock = time.perf_counter
        stack = self._stack
        calls, raised, self_s, total_s = self.calls, self.raised, self.self_s, self.total_s
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != layer:
                span = len(tracer.span_name)
                tracer.span_name.append(fid)
                tracer.span_parent.append(parent[3] if parent is not None else -1)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                own_span = True
            else:
                span = parent[3]
                own_span = False
            frame = [fid, layer, 0.0, span]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[0] -= 1
                dur = t1 - t0
                calls[fid] += 1
                self_s[fid] += dur - frame[2]
                if depth[0] == 0:
                    total_s[fid] += dur
                if parent is not None:
                    parent[2] += dur
                if own_span:
                    tracer.span_start[span] = t0
                    tracer.span_end[span] = t1
            if hook is not None and depth[0] == 0:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def report(self, caches: dict | None = None) -> dict:
        """Counts and times of everything traced since the last reset."""
        funcs = {}
        for fid, name in enumerate(self.names):
            if self.calls[fid]:
                funcs[name] = {"layer": self.layers[fid], "calls": self.calls[fid],
                               "raised": self.raised[fid], "self_s": self.self_s[fid],
                               "total_s": self.total_s[fid]}
        cache_stats = {}
        for name, c in (caches or {}).items():
            info = c.cache_info()
            cache_stats[name] = [info.hits, info.misses]
        return {"functions": funcs, "counters": dict(self.counters), "caches": cache_stats,
                "spans": self.spans()}

    def spans(self) -> dict:
        return {"names": list(self.names), "name": self.span_name.tolist(),
                "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(), "op": self.span_op.tolist()}
