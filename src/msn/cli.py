"""Command-line front end.

Artifacts are written as canonical JSON (see msn.io); diagnostics go to
stderr as machine-readable JSON.  Exit codes: 0 success, 2 verified
mathematical failure (with witness), 1 I/O or format errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from msn import io
from msn.amalgam import multi_amalgam, product_amalgam, pushout
from msn.errors import MsnError, NotAnEmbedding, PairNotInCertificates
from msn.maps import (
    bm_upper_bound,
    build_iso_from_invariant,
    is_embedding,
    map_distance,
    operator_seminorm,
)
from msn.parallel import parallel_map
from msn.ramsey import build_net, oscillation, search_monochromatic
from msn.spaces import (
    extend_with_norm,
    graded_closure,
    invariant_alpha,
    is_separated,
    truncate,
)
from msn.seminorms import quotient_norm
from msn.tower import back_and_forth, build_tower, verify_tower

MATH_FAILURE = 2
IO_FAILURE = 1


def _emit(doc, out: str | None, name: str) -> None:
    if out:
        if isinstance(doc, dict):
            doc.setdefault("format", io.FORMAT)
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / name).write_text(io.dumps(doc))
    else:
        sys.stdout.write(io.dumps(doc))


def _diag(payload: dict) -> None:
    sys.stderr.write(io.dumps(payload))


def _rat(s: str) -> Fraction:
    return io.rat_from_str(s)


# --- space ------------------------------------------------------------


def cmd_space_inspect(args):
    X = io.load_space(args.space)
    doc = {
        "dim": X.dim,
        "length": X.length,
        "graded": X.graded,
        "separated": is_separated(X),
        "functionalsPerLevel": [len(s.functionals) for s in X.seminorms],
    }
    _emit(doc, args.out, "inspect.json")
    return 0


def cmd_space_invariant(args):
    X = io.load_space(args.space)
    if X.length > 16:
        # 2^length subsets: refuse absurd inputs instead of hanging
        _diag({"error": "TooManyLevels", "detail": "invariant capped at 16 levels"})
        return IO_FAILURE
    _emit({"alpha": invariant_alpha(X).as_dict()}, args.out, "invariant.json")
    return 0


def cmd_space_quotient(args):
    X = io.load_space(args.space)
    q = quotient_norm(X.seminorms[args.level])
    doc = {
        "projection": io.matrix_to_doc(q.projection),
        "lift": io.matrix_to_doc(q.lift),
        "norm": {"functionals": [[io.rat_to_str(x) for x in f] for f in q.norm.functionals]},
    }
    _emit(doc, args.out, "quotient.json")
    return 0


def cmd_space_graded(args):
    X = io.load_space(args.space)
    _emit(io.space_to_doc(graded_closure(X)), args.out, "graded.json")
    return 0


def cmd_space_extend(args):
    X = io.load_space(args.space)
    _emit(io.space_to_doc(extend_with_norm(X)), args.out, "extended.json")
    return 0


def cmd_space_truncate(args):
    X = io.load_space(args.space)
    _emit(io.space_to_doc(truncate(X, args.k)), args.out, "truncated.json")
    return 0


# --- map --------------------------------------------------------------


def cmd_map_check(args):
    f = io.load_map(args.map)
    ok, wit = is_embedding(f, _rat(args.delta))
    if ok:
        _emit({"embedding": True, "delta": args.delta}, args.out, "check.json")
        return 0
    _diag({"error": "NotAnEmbedding", "witness": io.witness_to_doc(wit)})
    return MATH_FAILURE


def cmd_map_distance(args):
    f = io.load_map(args.f)
    g = io.load_map(args.g)
    levels = range(f.domain.length) if args.level is None else [args.level]
    vals = parallel_map(lambda m: map_distance(f, g, m), levels, args.threads)
    doc = {"perLevel": ["unbounded" if v is None else io.rat_to_str(v) for v in vals]}
    _emit(doc, args.out, "distance.json")
    return 0


def cmd_map_opnorm(args):
    f = io.load_map(args.map)
    v = operator_seminorm(f, args.level)
    _emit({"value": "unbounded" if v is None else io.rat_to_str(v)}, args.out, "opnorm.json")
    return 0


# --- iso --------------------------------------------------------------


def cmd_iso_build(args):
    X = io.load_space(args.x)
    Y = io.load_space(args.y)
    h = build_iso_from_invariant(X, Y)
    if h is None:
        _diag({"error": "NoIso",
               "invariantsEqual": invariant_alpha(X).entries == invariant_alpha(Y).entries})
        return MATH_FAILURE
    _emit(io.map_to_doc(h), args.out, "iso.json")
    return 0


def cmd_iso_bm(args):
    X = io.load_space(args.x)
    Y = io.load_space(args.y)
    b = bm_upper_bound(X, Y)
    _emit({"bound": "infinite" if b is None else io.rat_to_str(b)}, args.out, "bm.json")
    return 0


# --- amalgam ----------------------------------------------------------


def _emit_amalgam(res, out):
    _emit(io.space_to_doc(res.space), out, "w.json")
    _emit(io.map_to_doc(res.leg_y), out, "leg_y.json")
    _emit(io.map_to_doc(res.leg_z), out, "leg_z.json")
    cert = {
        "delta": io.rat_to_str(res.delta),
        "eps": io.rat_to_str(res.eps),
        "perLevel": [io.rat_to_str(b) for b in res.bound_certificate],
        "modulus": io.rat_to_str(2 * res.delta + res.eps),
    }
    _emit(cert, out, "certificate.json")


def cmd_amalgam_push(args):
    X = io.load_space(args.x)
    Y = io.load_space(args.y)
    Z = io.load_space(args.z)
    f = io.load_map(args.f)
    g = io.load_map(args.g)
    res = pushout(X, Y, Z, f, g, _rat(args.delta), _rat(args.eps),
                  graded=args.graded, separated=args.separated)
    _emit_amalgam(res, args.out)
    return 0


def cmd_amalgam_product(args):
    X = io.load_space(args.x)
    Y = io.load_space(args.y)
    Z = io.load_space(args.z)
    f = io.load_map(args.f)
    g = io.load_map(args.g)
    res = product_amalgam(X, Y, Z, f, g, _rat(args.delta), _rat(args.eps))
    _emit_amalgam(res, args.out)
    return 0


def cmd_amalgam_multi(args):
    Y = io.load_space(args.y)
    pairs = []
    for spec_str in args.pair:
        parts = spec_str.split(":")
        if len(parts) != 4:
            raise io.FormatError("--pair expects X.json:GAMMA.json:ETA.json:DELTA")
        X = io.load_space(parts[0])
        gamma = io.load_map(parts[1])
        eta = io.load_map(parts[2])
        pairs.append((X, gamma, eta, _rat(parts[3])))
    res = multi_amalgam(Y, pairs, _rat(args.eps))
    _emit(io.space_to_doc(res.space), args.out, "z.json")
    _emit(io.map_to_doc(res.into), args.out, "into.json")
    for i, (j, bounds) in enumerate(zip(res.legs, res.bounds)):
        _emit(io.map_to_doc(j), args.out, f"j{i}.json")
    _emit({"bounds": [[io.rat_to_str(b) for b in bs] for bs in res.bounds]},
          args.out, "bounds.json")
    return 0


# --- tower ------------------------------------------------------------


def cmd_tower_build(args):
    catalog = [io.load_space(p) for p in args.catalog]
    deltas = [_rat(d) for d in args.deltas.split(",")]
    tower = build_tower(catalog, deltas, args.stages, seed=args.seed, omega=args.omega,
                        pairs_per_stage=args.pairs_per_stage, dim_cap=args.dim_cap)
    io.save_tower(tower, args.out or "tower")
    return 0


def cmd_tower_verify(args):
    tower = io.load_tower(args.tower)
    rep = verify_tower(tower)
    doc = {"ok": rep["ok"], "checks": rep["checks"],
           "failures": io.witness_to_doc(rep["failures"])}
    _emit(doc, args.out, "verify.json")
    return 0 if rep["ok"] else MATH_FAILURE


def cmd_tower_backforth(args):
    a = io.load_tower(args.tower_a)
    b = io.load_tower(args.tower_b)
    rec = back_and_forth(a, b, steps=args.steps, start_level=args.start)
    doc = io.backforth_to_doc(rec)
    _emit(doc, args.out, "backforth.json")
    return 0 if rec.bounds_ok() else MATH_FAILURE


# --- ramsey -----------------------------------------------------------


def cmd_ramsey_net(args):
    X = io.load_space(args.x)
    Y = io.load_space(args.y)
    net = build_net(X, Y, _rat(args.eps))
    _emit(io.net_to_doc(net), args.out, "net.json")
    return 0


def cmd_ramsey_oscillate(args):
    net = io.net_from_doc(io.read_json(args.net))
    c = io.colouring_from_doc(io.read_json(args.colouring))
    eps = None if args.eps is None else _rat(args.eps)
    v = oscillation(c, net.points, eps=eps)
    _emit({"oscillation": io.rat_to_str(v)}, args.out, "oscillation.json")
    return 0


def cmd_ramsey_search(args):
    net_xz = io.net_from_doc(io.read_json(args.net_xz))
    net_xy = io.net_from_doc(io.read_json(args.net_xy))
    c = io.colouring_from_doc(io.read_json(args.colouring))
    candidates = [io.load_map(p) for p in args.candidates]
    out = search_monochromatic(c, net_xz, net_xy, candidates, _rat(args.eps))
    if out is None:
        _diag({"error": "NotFound"})
        return MATH_FAILURE
    gamma, colour = out
    _emit({"colour": colour, "gamma": io.map_to_doc(gamma)}, args.out, "witness.json")
    return 0


def cmd_ramsey_product(args):
    from msn.ramsey import product_colouring, product_embedding
    from msn.maps import LinearMap, compose
    from msn.spaces import MultiSpace
    from msn.seeding import rng as seeded_rng

    X = io.load_space(args.x)
    blocks = [io.load_space(p) for p in args.blocks]
    rho = [io.load_map(p) for p in args.rho]
    c = io.colouring_from_doc(io.read_json(args.colouring))
    Z, induced = product_colouring(c, X, blocks)
    rho_full = product_embedding(rho, Z, X)
    r = seeded_rng(args.seed, "ramsey-product")
    checked = 0
    for _ in range(args.samples):
        sgn = -1 if r.randrange(2) else 1
        from msn.linalg import Matrix

        eta = LinearMap(X, X, Matrix.identity(X.dim).scale(sgn))
        lhs = c(compose(rho_full, eta))
        levels = [LinearMap(MultiSpace((X.seminorms[j],)), MultiSpace((X.seminorms[j],)),
                            eta.matrix) for j in range(X.length)]
        rhs = induced([compose(rj, lv) for rj, lv in zip(rho, levels)])
        if Fraction(lhs) != Fraction(rhs):
            _diag({"error": "ProductIdentityViolated"})
            return MATH_FAILURE
        checked += 1
    _emit({"identityChecked": checked}, args.out, "product.json")
    return 0


# --- parser -----------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="msn",
                                description="exact workbench for multi-seminormed spaces")
    p.add_argument("--out", help="directory for JSON artifacts (default: stdout)")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for sampling")
    p.add_argument("--threads", type=int, default=1, help="worker threads (speed only)")
    sub = p.add_subparsers(dest="group", required=True)

    sp = sub.add_parser("space").add_subparsers(dest="cmd", required=True)
    q = sp.add_parser("inspect"); q.add_argument("space"); q.set_defaults(fn=cmd_space_inspect)
    q = sp.add_parser("invariant"); q.add_argument("space"); q.set_defaults(fn=cmd_space_invariant)
    q = sp.add_parser("quotient"); q.add_argument("space")
    q.add_argument("--level", type=int, default=0); q.set_defaults(fn=cmd_space_quotient)
    q = sp.add_parser("graded"); q.add_argument("space"); q.set_defaults(fn=cmd_space_graded)
    q = sp.add_parser("extend"); q.add_argument("space"); q.set_defaults(fn=cmd_space_extend)
    q = sp.add_parser("truncate"); q.add_argument("space")
    q.add_argument("--k", type=int, required=True); q.set_defaults(fn=cmd_space_truncate)

    mp = sub.add_parser("map").add_subparsers(dest="cmd", required=True)
    q = mp.add_parser("check"); q.add_argument("map")
    q.add_argument("--delta", default="0"); q.set_defaults(fn=cmd_map_check)
    q = mp.add_parser("distance"); q.add_argument("f"); q.add_argument("g")
    q.add_argument("--level", type=int); q.set_defaults(fn=cmd_map_distance)
    q = mp.add_parser("opnorm"); q.add_argument("map")
    q.add_argument("--level", type=int, default=0); q.set_defaults(fn=cmd_map_opnorm)

    ip = sub.add_parser("iso").add_subparsers(dest="cmd", required=True)
    q = ip.add_parser("build"); q.add_argument("x"); q.add_argument("y")
    q.set_defaults(fn=cmd_iso_build)
    q = ip.add_parser("bm"); q.add_argument("x"); q.add_argument("y")
    q.set_defaults(fn=cmd_iso_bm)

    ap = sub.add_parser("amalgam").add_subparsers(dest="cmd", required=True)
    for name, fn, extra in (("push", cmd_amalgam_push, True),
                            ("product", cmd_amalgam_product, False)):
        q = ap.add_parser(name)
        for flag in ("--x", "--y", "--z", "--f", "--g"):
            q.add_argument(flag, required=True, dest=flag[2:])
        q.add_argument("--delta", default="0")
        q.add_argument("--eps", required=True)
        if extra:
            q.add_argument("--graded", action="store_true")
            q.add_argument("--separated", action="store_true")
        q.set_defaults(fn=fn)
    q = ap.add_parser("multi")
    q.add_argument("--y", required=True, dest="y")
    q.add_argument("--pair", action="append", default=[],
                   help="X.json:GAMMA.json:ETA.json:DELTA (repeatable)")
    q.add_argument("--eps", required=True)
    q.set_defaults(fn=cmd_amalgam_multi)

    tp = sub.add_parser("tower").add_subparsers(dest="cmd", required=True)
    q = tp.add_parser("build")
    q.add_argument("--catalog", nargs="+", required=True)
    q.add_argument("--stages", type=int, required=True)
    q.add_argument("--deltas", default="0")
    q.add_argument("--omega", action="store_true")
    q.add_argument("--pairs-per-stage", type=int, default=1)
    q.add_argument("--dim-cap", type=int, default=12)
    q.set_defaults(fn=cmd_tower_build)
    q = tp.add_parser("verify"); q.add_argument("tower"); q.set_defaults(fn=cmd_tower_verify)
    q = tp.add_parser("backforth")
    q.add_argument("tower_a"); q.add_argument("tower_b")
    q.add_argument("--steps", type=int, default=2)
    q.add_argument("--start", type=int, default=3)
    q.set_defaults(fn=cmd_tower_backforth)

    rp = sub.add_parser("ramsey").add_subparsers(dest="cmd", required=True)
    q = rp.add_parser("net")
    q.add_argument("--x", required=True); q.add_argument("--y", required=True)
    q.add_argument("--eps", required=True)
    q.set_defaults(fn=cmd_ramsey_net)
    q = rp.add_parser("oscillate")
    q.add_argument("--net", required=True); q.add_argument("--colouring", required=True)
    q.add_argument("--eps")
    q.set_defaults(fn=cmd_ramsey_oscillate)
    q = rp.add_parser("search")
    q.add_argument("--net-xz", required=True, dest="net_xz")
    q.add_argument("--net-xy", required=True, dest="net_xy")
    q.add_argument("--colouring", required=True)
    q.add_argument("--candidates", nargs="+", required=True)
    q.add_argument("--eps", required=True)
    q.set_defaults(fn=cmd_ramsey_search)
    q = rp.add_parser("product")
    q.add_argument("--x", required=True)
    q.add_argument("--blocks", nargs="+", required=True)
    q.add_argument("--rho", nargs="+", required=True)
    q.add_argument("--colouring", required=True)
    q.add_argument("--samples", type=int, default=20)
    q.set_defaults(fn=cmd_ramsey_product)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except io.FormatError as e:
        _diag({"error": "FormatError", "detail": str(e)})
        return IO_FAILURE
    except FileNotFoundError as e:
        _diag({"error": "FileNotFound", "detail": str(e)})
        return IO_FAILURE
    except NotAnEmbedding as e:
        _diag(e.payload())
        return MATH_FAILURE
    except PairNotInCertificates as e:
        _diag(e.payload())
        return MATH_FAILURE
    except MsnError as e:
        _diag(e.payload())
        return MATH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
