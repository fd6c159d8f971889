"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them)."""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from msn import io
from msn.amalgam import primal_pushout_value, pushout
from msn.linalg import Matrix, vec_add
from msn.maps import (
    LinearMap,
    build_iso_from_invariant,
    compose,
    identity_map,
    is_embedding,
    map_distance,
)
from msn.ramsey import build_net, discrete_table, search_monochromatic
from msn.lp import solve_lp
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, invariant_alpha, line_space, product_space
from msn.tower import back_and_forth, build_tower, verify_tower

from genhelpers import block_embedding_triple, image_space, random_invertible, random_space
from oracles import vec_sub

F = Fraction
S = PolyhedralSeminorm.from_functionals

EPS8 = F(1, 8)


def _criterion(n, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _triple(rng, trial):
    delta = F(0) if trial % 2 == 0 else F(1, 4)
    dim_x = rng.randint(1, 2)
    lam_x = rng.randint(1, 2)
    lam_y = rng.randint(lam_x, 3)
    lam_z = rng.randint(lam_x, 3)
    extra_y = rng.randint(0, 3 - dim_x)
    extra_z = rng.randint(0, 3 - dim_x)
    X, Y, Z, f, g = block_embedding_triple(rng, dim_x, extra_y, extra_z,
                                           lam_x, lam_y, lam_z, delta=delta)
    return X, Y, Z, f, g, delta


def test_criterion_1_nap_modulus():
    start = time.time()
    rng = random.Random(20250808)
    trials = 200
    for trial in range(trials):
        X, Y, Z, f, g, delta = _triple(rng, trial)
        res = pushout(X, Y, Z, f, g, delta, EPS8)
        ok_y, _ = is_embedding(res.leg_y, 0)
        ok_z, _ = is_embedding(res.leg_z, 0)
        assert ok_y and ok_z, f"leg not isometric at trial {trial}"
        assert len(res.bound_certificate) == X.length
        for b in res.bound_certificate:
            assert b <= 2 * delta + EPS8, f"modulus exceeded at trial {trial}"
    took = time.time() - start
    _criterion(1, took < 300, f"{trials} pushouts, legs exact, bounds <= 2*delta+1/8 ({took:.1f}s)")


def test_criterion_2_dual_primal_master():
    rng = random.Random(9250808)
    instances = 25
    per_instance = 100
    for trial in range(instances):
        X, Y, Z, f, g, delta = _triple(rng, trial)
        res = pushout(X, Y, Z, f, g, delta, EPS8)
        c = (2 * delta + delta * delta + EPS8) / (1 + delta)
        for _ in range(per_instance):
            y = tuple(F(rng.randint(-3, 3)) for _ in range(Y.dim))
            z = tuple(F(rng.randint(-3, 3)) for _ in range(Z.dim))
            n = rng.randrange(X.length)
            w = vec_add(res.leg_y(y), res.leg_z(z))
            assert res.space.eval(n, w) == primal_pushout_value(Y, Z, X, f, g, n, c, y, z)
    _criterion(2, True, f"{instances} instances x {per_instance} vectors, dual == primal LP")


def test_criterion_3_invariant_classification():
    rng = random.Random(30250808)
    matched = 0
    for _ in range(60):
        dim, lam = rng.randint(1, 3), rng.randint(1, 3)
        X = random_space(rng, dim, lam)
        T = random_invertible(rng, dim)
        Y = image_space(X, T)
        assert invariant_alpha(X).entries == invariant_alpha(Y).entries
        h = build_iso_from_invariant(X, Y)
        assert h is not None, "equal invariants must yield an isomorphism"
        matched += 1
    differing = 0
    skipped = 0
    while differing < 60:
        dim, lam = rng.randint(1, 3), rng.randint(1, 3)
        X = random_space(rng, dim, lam)
        Y = random_space(rng, dim, lam)
        if invariant_alpha(X).entries == invariant_alpha(Y).entries:
            skipped += 1
            continue
        assert build_iso_from_invariant(X, Y) is None
        differing += 1
    _criterion(3, True,
               f"{matched} matching pairs built, {differing} differing pairs refused "
               f"({skipped} equal-invariant collisions resampled)")


def test_criterion_4_graded_closure():
    rng = random.Random(40250808)
    built = 0
    for trial in range(25):
        X, Y, Z, f, g = block_embedding_triple(
            rng, rng.randint(1, 2), rng.randint(0, 1), rng.randint(0, 1),
            rng.randint(1, 2), rng.randint(2, 3), rng.randint(2, 3),
            delta=F(0), graded=True)
        res = pushout(X, Y, Z, f, g, 0, EPS8, graded=True)
        # MultiSpace.make validates dual-ball containment exactly on
        # construction; the flag certifies it.
        assert res.space.graded
        built += 1
    _criterion(4, True, f"{built} graded pushouts validated by containment")


@pytest.fixture(scope="module")
def six_stage_tower():
    return build_tower((line_space(1), line_space(2)), [F(0), F(1, 4)],
                       stage_budget=6, seed=17, dim_cap=8)


def test_criterion_5_tower_certificates(six_stage_tower):
    start = time.time()
    t = six_stage_tower
    rep = verify_tower(t)
    assert rep["ok"], rep["failures"]
    assert len(t.stages) == 6
    # every catalog member embeds exactly at every stage
    for per_stage in t.member_embeddings:
        assert len(per_stage) == 2
    # every recorded extension bound within the stated modulus, and
    # within the stage-indexed budget 2 * 2^-n + 2^-n
    for rec in t.discharges:
        allowed = 2 * rec.delta + rec.eps
        stage_budget = F(3, 2 ** rec.stage)
        for b in rec.bounds:
            assert b <= allowed
            assert b <= stage_budget
    took = time.time() - start
    _criterion(5, took < 600,
               f"6 stages verified: {rep['checks']} checks, "
               f"{len(t.discharges)} discharges within modulus ({took:.1f}s)")


def test_criterion_6_back_and_forth_convergence():
    a = build_tower((line_space(1), line_space(2)), [F(0)], 4, seed=11, dim_cap=4)
    b = build_tower((line_space(1), line_space(2)), [F(0)], 4, seed=12, dim_cap=4)
    assert a.stages != b.stages, "twin towers must differ"
    rec = back_and_forth(a, b, steps=2, start_level=3)
    n = rec.start_level
    assert n == 3
    for s, v in enumerate(rec.dev_lj):
        assert v <= F(1, 2 ** (n + 2 * s + 1))
    for s, v in enumerate(rec.dev_jl):
        assert v <= F(1, 2 ** (n + 2 * s))
    for s, v in enumerate(rec.gaps):
        assert v <= F(3, 2 ** (n + 2 * s + 1))
    for s, v in enumerate(rec.tails):
        assert v <= F(3, 2 ** (n + 2 * s))
    # the cited constants: successive gap at (3,0) and tail at (3,1)
    assert rec.gaps[0] <= F(3, 16)
    assert rec.tails[1] <= F(3, 32)
    for j in rec.j_maps:
        assert is_embedding(j, 0)[0]
    for l_map in rec.l_maps:
        assert is_embedding(l_map, 0)[0]
    _criterion(6, True,
               f"gaps {[str(x) for x in rec.gaps]} <= [3/16, 3/64], "
               f"tails {[str(x) for x in rec.tails]} <= [3/8, 3/32]")


def test_criterion_7_product_ramsey_identity():
    rng = random.Random(70250808)
    from msn.ramsey import Colouring, product_colouring, product_embedding

    instances = 50
    per_instance = 20
    for _ in range(instances):
        lam = rng.randint(1, 3)
        scales = [F(rng.randint(1, 3)) for _ in range(lam)]
        # X: 2-dim space whose level j is the scaled sup norm
        sems = [S(2, [(a, 0), (0, a)]) for a in scales]
        X = MultiSpace(tuple(sems))
        blocks = [MultiSpace.make((S(2, [(1, 0), (0, 1)]),)) for _ in range(lam)]
        Z = product_space(blocks) if lam > 1 else blocks[0]
        rho = []
        for j in range(lam):
            m = Matrix.identity(2).scale(scales[j])
            rho.append(LinearMap(MultiSpace((X.seminorms[j],)), blocks[j], m))
        c = Colouring("continuous", None, lam, None, ("coordinate-clamp", 0))
        Zc, induced = product_colouring(c, X, blocks)
        rho_full = product_embedding(rho, Zc, X)
        for _ in range(per_instance):
            swap = rng.randrange(2)
            sgn = -1 if rng.randrange(2) else 1
            em = Matrix.from_rows([[F(0), F(sgn)], [F(sgn), F(0)]]) if swap \
                else Matrix.identity(2).scale(sgn)
            eta = LinearMap(X, X, em)
            ok, _ = is_embedding(eta, 0)
            assert ok
            lhs = c(compose(rho_full, eta))
            levels = [LinearMap(MultiSpace((X.seminorms[j],)), MultiSpace((X.seminorms[j],)), em)
                      for j in range(lam)]
            rhs = induced([compose(rj, lv) for rj, lv in zip(rho, levels)])
            assert F(lhs) == F(rhs)
    _criterion(7, True, f"{instances} instances x {per_instance} draws, identity exact")


def _hexagon():
    q = line_space(1)
    i = identity_map(q)
    return q, pushout(q, q, q, i, i, 0, F(1, 2))


def _sphere_witness_candidates(W, points, radius):
    """Unit vectors within radius of p and of -q for net pairs (p, q).

    One epigraph LP per sphere face per pair; exact.  These realise the
    boundary cases that make every two-colouring stabilise somewhere.
    """
    funcs = W.seminorms[0].functionals
    d = W.dim
    out = set()
    for p, q in itertools.combinations(points, 2):
        for target in (tuple(-x for x in q), q):
            best = None
            for face in funcs:
                for sgn in (1, -1):
                    cons = []
                    frow = tuple(F(sgn) * x for x in face) + (F(0),)
                    cons.append((frow, F(1)))
                    cons.append((tuple(-x for x in frow), F(-1)))
                    for psi in funcs:
                        cons.append((tuple(psi) + (F(0),), F(1)))
                        cons.append((tuple(-x for x in psi) + (F(0),), F(1)))
                    for ref in (p, target):
                        for chi in funcs:
                            for s2 in (1, -1):
                                row = tuple(F(s2) * x for x in chi) + (F(-1),)
                                cons.append((row, F(s2) * sum(a * b for a, b in zip(chi, ref))))
                    try:
                        res = solve_lp((F(0),) * d + (F(1),), cons)
                    except Exception:
                        continue
                    if res.value <= radius and (best is None or res.value < best[0]):
                        best = (res.value, res.point[:d])
            if best is not None:
                out.add(best[1])
    return sorted(out)


def test_criterion_8_micro_ramsey_exhaustive():
    start = time.time()
    q, res = _hexagon()
    W = res.space
    net_xz = build_net(q, W, F(3, 4))
    npts = len(net_xz.points)
    assert npts <= 12, f"net has {npts} points"
    net_xy = build_net(q, q, 2)
    assert len(net_xy.points) == 2  # plus and minus the identity
    vectors = [tuple(r[0] for r in p.matrix.entries) for p in net_xz.points]
    cands = _sphere_witness_candidates(W, vectors, F(1, 2))
    candidates = [res.leg_y, res.leg_z] + [
        LinearMap(q, W, Matrix.from_rows([[x] for x in v])) for v in cands]
    for gamma in candidates:
        assert is_embedding(gamma, 0)[0]

    def direct_distance(u, v):
        return W.eval(0, vec_sub(u, v))

    found = 0
    for mask in range(2 ** npts):
        values = [(mask >> i) & 1 for i in range(npts)]
        c = discrete_table(net_xz, values, 2)
        out = search_monochromatic(c, net_xz, net_xy, candidates, F(1, 2))
        assert out is not None, f"no witness for colouring {mask:0{npts}b}"
        gamma, colour = out
        # independent coverage re-check by direct seminorm arithmetic
        y = tuple(r[0] for r in gamma.matrix.entries)
        for sgn in (1, -1):
            point = tuple(F(sgn) * x for x in y)
            assert any(values[i] == colour and direct_distance(point, v) <= F(1, 2)
                       for i, v in enumerate(vectors))
        found += 1
    took = time.time() - start
    _criterion(8, took < 300,
               f"all {found} colourings of the {npts}-point net stabilised ({took:.1f}s)")


def test_criterion_9_determinism_and_round_trip(tmp_path, six_stage_tower):
    # A criterion-1 pushout through the CLI in two fresh processes whose
    # string hashing differs, so no set or dict order may reach the output.
    X, Y, Z, f, g, delta = _triple(random.Random(0), 1)
    for name, doc in (("x", io.space_to_doc(X)), ("y", io.space_to_doc(Y)), ("z", io.space_to_doc(Z)),
                      ("f", io.map_to_doc(f)), ("g", io.map_to_doc(g))):
        io.write_json(tmp_path / f"{name}.json", doc)
    src = str(Path(io.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"amal{hashseed}"
        argv = ["--out", str(out), "amalgam", "push"]
        for name in "xyzfg":
            argv += [f"--{name}", str(tmp_path / f"{name}.json")]
        proc = subprocess.run([sys.executable, "-m", "msn.cli", *argv, "--delta", str(delta), "--eps", "1/2"],
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hashseed},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]

    # tower artifacts byte-identical across repeated builds
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    t1 = build_tower((line_space(1), line_space(2)), [F(0)], 3, seed=99, dim_cap=4)
    t2 = build_tower((line_space(1), line_space(2)), [F(0)], 3, seed=99, dim_cap=4)
    io.save_tower(t1, d1)
    io.save_tower(t2, d2)
    files1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir())}
    assert files1 == files2

    # whole-tower round-trips: seeds 99 and 3, and the six-stage tower of criterion 5
    d3, d5 = tmp_path / "t3", tmp_path / "t5"
    t3 = build_tower((line_space(1), line_space(2)), [F(0), F(1, 4)], 3, seed=3, dim_cap=4)
    io.save_tower(t3, d3)
    io.save_tower(six_stage_tower, d5)
    for d, t in ((d1, t1), (d3, t3), (d5, six_stage_tower)):
        assert io.load_tower(d) == t

    # space and map file round-trips are byte-stable
    saved = io.dumps(io.space_to_doc(X))
    assert io.dumps(io.space_to_doc(io.space_from_doc(io.read_json(tmp_path / "x.json")))) == saved
    _criterion(9, True, "byte-identical across PYTHONHASHSEED 1 vs 2; round-trips stable")
