"""Seeded inputs, timed operations and exact output checks.

Each workload makes its inputs in batches from the benchmark seed alone
(``batch(k)``), runs one operation per input (``run``), and checks the
result exactly (``check``) outside the timed region.  Calls into msn go
through module attributes so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import msn.amalgam
import msn.io
import msn.linalg
import msn.maps
import msn.seminorms
import msn.spaces

HERE = Path(__file__).resolve().parent
EPS = F(1, 8)
CHILD_TIMEOUT_S = 150


def _rng(seed, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _vector(rng, dim) -> tuple:
    return tuple(F(rng.randint(-3, 3)) for _ in range(dim))


def _seminorm(rng, dim, max_funcs=2):
    S = msn.seminorms.PolyhedralSeminorm
    funcs = [f for f in (tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                         for _ in range(rng.randint(0, max_funcs))) if any(f)]
    return S.from_functionals(dim, funcs) if funcs else S.zero(dim)


def block_triple(rng, trial):
    """X with (1+delta)-scaled block inclusions into Y and Z.

    Y and Z extend X's levels by zero on their extra coordinates and add
    functionals supported on the extra block only, so both inclusions are
    delta-embeddings.  Shape as in the paper's amalgamation criterion: dim X
    1-2, total dimension at most 3, 1-3 levels, delta alternating 0 and 1/4.
    """
    S = msn.seminorms.PolyhedralSeminorm
    MultiSpace = msn.spaces.MultiSpace
    Matrix = msn.linalg.Matrix
    delta = F(0) if trial % 2 == 0 else F(1, 4)
    dim_x = rng.randint(1, 2)
    lam_x = rng.randint(1, 2)
    lam_y, lam_z = rng.randint(lam_x, 3), rng.randint(lam_x, 3)
    extra_y, extra_z = rng.randint(0, 3 - dim_x), rng.randint(0, 3 - dim_x)
    xs = [_seminorm(rng, dim_x) for _ in range(lam_x)]
    if all(s.is_zero() for s in xs):
        xs[0] = S.from_functionals(dim_x, [tuple(F(int(i == 0)) for i in range(dim_x))])
    X = MultiSpace(tuple(xs))

    def extend(extra, lam):
        dim = dim_x + extra
        levels = []
        for n in range(lam):
            funcs = [tuple(f) + (F(0),) * extra for f in xs[n].functionals] if n < lam_x else []
            for _ in range(rng.randint(0, 2)):
                tail = tuple(F(rng.randint(-2, 2)) for _ in range(extra))
                if any(tail):
                    funcs.append((F(0),) * dim_x + tail)
            levels.append(S.from_functionals(dim, funcs) if funcs else S.zero(dim))
        return MultiSpace(tuple(levels))

    def inclusion(extra):
        t = 1 + delta
        return Matrix.from_rows([[t if j == i else F(0) for j in range(dim_x)] for i in range(dim_x)]
                                + [[F(0)] * dim_x for _ in range(extra)])

    Y, Z = extend(extra_y, lam_y), extend(extra_z, lam_z)
    f = msn.maps.LinearMap(X, Y, inclusion(extra_y))
    g = msn.maps.LinearMap(X, Z, inclusion(extra_z))
    return X, Y, Z, f, g, delta


class Amalgam:
    """A stream of distinct pushouts pushout(X, Y, Z, f, g, delta, 1/8)."""

    name = "amalgam"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.batch_size = 4 if tiny else 64
        self.seen = set()

    def batch(self, k):
        rng = _rng(self.seed, self.name, k)
        out = []
        while len(out) < self.batch_size:
            inp = block_triple(rng, k * self.batch_size + len(out))
            if inp not in self.seen:
                self.seen.add(inp)
                out.append(inp)
        return out

    def run(self, inp):
        X, Y, Z, f, g, delta = inp
        return msn.amalgam.pushout(X, Y, Z, f, g, delta, EPS)

    def check(self, inp, res) -> bool:
        """Exact legs, certificate within 2 delta + eps, dual == primal LP."""
        X, Y, Z, f, g, delta = inp
        if not (msn.maps.is_embedding(res.leg_y, 0)[0] and msn.maps.is_embedding(res.leg_z, 0)[0]):
            return False
        cert = res.bound_certificate
        if len(cert) != X.length or any(b is None or b > 2 * delta + EPS for b in cert):
            return False
        rng = _rng(self.seed, "check", hash(inp))
        c = (2 * delta + delta * delta + EPS) / (1 + delta)
        for n in range(X.length):
            y, z = _vector(rng, Y.dim), _vector(rng, Z.dim)
            w = msn.linalg.vec_add(res.leg_y(y), res.leg_z(z))
            if res.space.eval(n, w) != msn.amalgam.primal_pushout_value(Y, Z, X, f, g, n, c, y, z):
                return False
        return True

    def close(self):
        pass


def _raw_level(rng, dim, count):
    """Hand-written-style functional list: some entries are redundant."""
    funcs = []
    while len(funcs) < count:
        r = rng.random()
        if len(funcs) >= 2 and r < 0.25:
            a, b = rng.sample(funcs, 2)
            f = tuple((x + y) / 2 for x, y in zip(a, b))
        elif funcs and r < 0.35:
            f = tuple(-x / 2 for x in rng.choice(funcs))
        else:
            f = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        if any(f):
            funcs.append(f)
    return funcs


def _invertible(rng, dim):
    Matrix = msn.linalg.Matrix
    while True:
        T = Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)])
        if T.rank() == dim:
            return T


def _space_doc(dim, levels):
    r = msn.io.rat_to_str
    return {"format": msn.io.FORMAT, "dim": dim, "graded": False,
            "seminorms": [{"functionals": [[r(x) for x in f] for f in lev]} for lev in levels]}


class Certify:
    """``msn map check`` in-process: load a map file, accept at delta, reject at delta/2."""

    name = "certify"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tiny = tiny

    def batch(self, k):
        """Every shape once, in seeded order.

        A shape is a dimension, a level count, a delta and a band of
        functional counts per level (6-9, 10-13, 14-16).  Op cost depends
        mostly on the shape, so every batch carries the same mix; the seed
        draws the counts within their band, the functionals and the matrix.
        """
        rng = _rng(self.seed, self.name, k)
        dims, bands = ((2, 3), ((3, 6),)) if self.tiny else ((3, 4, 5), ((6, 9), (10, 13), (14, 16)))
        shapes = [(dim, lam, delta, band) for dim in dims for lam in (1, 2, 3)
                  for delta in (F(0), F(1, 4)) for band in bands]
        rng.shuffle(shapes)
        out = []
        for i, (dim, lam, delta, band) in enumerate(shapes[:4] if self.tiny else shapes):
            levels = [_raw_level(rng, dim, rng.randint(*band)) for _ in range(lam)]
            T = _invertible(rng, dim)
            back = msn.linalg.inverse(T).transpose()
            image = [[back.apply(f) for f in lev] for lev in levels]
            doc = {"format": msn.io.FORMAT, "domain": _space_doc(dim, levels),
                   "codomain": _space_doc(dim, image),
                   "matrix": msn.io.matrix_to_doc(T.scale(1 + delta))}
            path = self.dir / f"map{k}-{i}.json"
            msn.io.write_json(path, doc)
            out.append((path, delta, (levels, image)))
        return out

    def run(self, inp):
        path, delta, _ = inp
        f = msn.io.load_map(path)
        accept = msn.maps.is_embedding(f, delta)
        reject = msn.maps.is_embedding(f, delta / 2) if delta > 0 else None
        return f, accept, reject

    def check(self, inp, res) -> bool:
        """Canonical lists evaluate like the raw ones; the witness re-checks."""
        path, delta, raw = inp
        f, accept, reject = res
        rng = _rng(self.seed, "check", path.name)
        for space, levels in zip((f.domain, f.codomain), raw):
            for m, lev in enumerate(levels):
                for _ in range(3):
                    x = _vector(rng, space.dim)
                    if space.eval(m, x) != max(abs(msn.linalg.dot(phi, x)) for phi in lev):
                        return False
        if not accept[0]:
            return False
        if reject is None:
            return True
        ok, wit = reject
        if ok or wit.get("kind") not in ("upper", "lower"):
            return False
        m, v = wit["level"], wit["vector"]
        lo, hi = f.domain.eval(m, v), f.codomain.eval(m, f(v))
        bound = 1 + delta / 2
        return hi > bound * lo if wit["kind"] == "upper" else hi * bound < lo

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def expected_checks(stages, members, pairs_per_stage=1):
    """Check count of ``verify_tower`` for one-level catalog members."""
    discharges = (stages - 1) * pairs_per_stage
    return ((stages - 1) + stages * (stages - 1) // 2 + 1 + stages
            + stages * members + 2 * discharges)


class Tower:
    """Per tower seed, ``msn tower build`` then ``msn tower verify``, each in a fresh process."""

    name = "tower"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.stages = 3 if tiny else 5
        self.batch_size = 1 if tiny else 4
        self.catalog = []
        for scale in (1, 2):
            path = self.dir / f"l{scale}.json"
            msn.io.write_json(path, msn.io.space_to_doc(msn.spaces.line_space(scale)))
            self.catalog.append(str(path))
        self.trace_dir = None
        self.child_reports = []
        self.op = 0

    def batch(self, k):
        rng = _rng(self.seed, self.name, k)
        return [rng.getrandbits(32) for _ in range(self.batch_size)]

    def _launch(self, label, argv):
        cmd = [sys.executable, str(HERE / "launcher.py"), "--spawned", repr(time.monotonic())]
        trace_file = None
        if self.trace_dir is not None:
            trace_file = Path(self.trace_dir) / f"{label}-{self.op}.json"
            cmd += ["--trace", str(trace_file), "--op", str(self.op)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--"] + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        finally:
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(f"msn {' '.join(argv)} exited {proc.returncode}:\n{err}")
        if trace_file is not None and trace_file.exists():
            self.child_reports.append({**json.loads(trace_file.read_text()), "command": label})
            trace_file.unlink()
        return proc.returncode, out, elapsed

    def run(self, tower_seed):
        out_dir = self.dir / f"tower-{tower_seed}"
        brc, _, build_s = self._launch("build", [
            "--seed", str(tower_seed), "--out", str(out_dir), "tower", "build",
            "--catalog", *self.catalog, "--stages", str(self.stages),
            "--deltas", "0,1/4", "--dim-cap", "8"])
        vrc, vout, verify_s = self._launch("verify", ["tower", "verify", str(out_dir)])
        return {"dir": out_dir, "build_rc": brc, "verify_rc": vrc, "verify_out": vout,
                "build_s": build_s, "verify_s": verify_s}

    def phases(self, res):
        return res["build_s"], res["verify_s"]

    def check(self, tower_seed, res) -> bool:
        shutil.rmtree(res["dir"], ignore_errors=True)
        if res["build_rc"] != 0 or res["verify_rc"] != 0:
            return False
        try:
            doc = json.loads(res["verify_out"])
        except json.JSONDecodeError:
            return False
        return doc.get("ok") is True and doc.get("checks") == expected_checks(
            self.stages, len(self.catalog))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Amalgam, Certify, Tower)}
