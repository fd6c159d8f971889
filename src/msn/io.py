"""Bit-exact JSON interchange.

Rationals travel as strings ("p/q" or integer form, lowest terms), never
floats.  Serialisation is canonical: sorted keys, fixed separators, one
trailing newline, so identical values produce identical bytes and
load/save round-trips are stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from msn.errors import MsnError
from msn.linalg import Matrix
from msn.maps import LinearMap
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace
from msn.tower import BackForthRecord, DischargeRecord, Tower

FORMAT = "msn/1"


class FormatError(MsnError):
    pass


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational literal {s!r}") from e


def witness_to_doc(obj):
    """JSON form of a failure witness or report.

    Rationals become ``rat_to_str`` strings, vectors lists, dicts are
    converted recursively; ints, strings and None stay as they are.
    """
    if isinstance(obj, dict):
        return {k: witness_to_doc(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [witness_to_doc(x) for x in obj]
    if isinstance(obj, Fraction):
        return rat_to_str(obj)
    return obj


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj))


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def _check_format(doc, what: str):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise FormatError(f"{what} is missing the {FORMAT} format marker")


def space_to_doc(X: MultiSpace) -> dict:
    return {
        "format": FORMAT,
        "dim": X.dim,
        "graded": X.graded,
        "seminorms": [
            {"functionals": [[rat_to_str(x) for x in f] for f in s.functionals]}
            for s in X.seminorms
        ],
    }


REDUCE_LOAD_LIMIT = 64


def space_from_doc(doc) -> MultiSpace:
    """Parse a space file, canonicalising the functional lists.

    The exact LP irredundancy pass runs for lists up to
    ``REDUCE_LOAD_LIMIT`` functionals; larger machine-written lists are
    canonicalised by sign/sort/dominance only (our own writers always
    emit irredundant lists).
    """
    _check_format(doc, "space file")
    dim = int(doc["dim"])
    sems = []
    for entry in doc["seminorms"]:
        funcs = [tuple(rat_from_str(x) for x in f) for f in entry["functionals"]]
        reduce = len(funcs) <= REDUCE_LOAD_LIMIT
        sems.append(PolyhedralSeminorm.from_functionals(dim, funcs, reduce=reduce)
                    if funcs else PolyhedralSeminorm.zero(dim))
    if not sems:
        raise FormatError("space file carries no seminorms")
    return MultiSpace.make(tuple(sems), graded=bool(doc.get("graded", False)))


def matrix_to_doc(m: Matrix) -> list:
    return [[rat_to_str(x) for x in row] for row in m.entries]


def matrix_from_doc(doc) -> Matrix:
    return Matrix.from_rows([[rat_from_str(x) for x in row] for row in doc])


def map_to_doc(f: LinearMap) -> dict:
    return {
        "format": FORMAT,
        "domain": space_to_doc(f.domain),
        "codomain": space_to_doc(f.codomain),
        "matrix": matrix_to_doc(f.matrix),
    }


def map_from_doc(doc, base: Path | None = None) -> LinearMap:
    _check_format(doc, "map file")

    def resolve(ref):
        if isinstance(ref, str):
            p = Path(ref)
            if base is not None and not p.is_absolute():
                p = base / p
            return space_from_doc(read_json(p))
        return space_from_doc(ref)

    dom = resolve(doc["domain"])
    cod = resolve(doc["codomain"])
    return LinearMap(dom, cod, matrix_from_doc(doc["matrix"]))


def load_space(path) -> MultiSpace:
    return space_from_doc(read_json(path))


def load_map(path) -> LinearMap:
    return map_from_doc(read_json(path), base=Path(path).parent)


def discharge_to_doc(rec: DischargeRecord) -> dict:
    return {
        "stage": rec.stage,
        "source": rec.source,
        "delta": rat_to_str(rec.delta),
        "eps": rat_to_str(rec.eps),
        "gamma": map_to_doc(rec.gamma),
        "eta": map_to_doc(rec.eta),
        "j": map_to_doc(rec.j_map),
        "bounds": [rat_to_str(b) for b in rec.bounds],
    }


def discharge_from_doc(doc) -> DischargeRecord:
    return DischargeRecord(
        stage=int(doc["stage"]),
        source=doc["source"],
        gamma=map_from_doc(doc["gamma"]),
        eta=map_from_doc(doc["eta"]),
        delta=rat_from_str(doc["delta"]),
        eps=rat_from_str(doc["eps"]),
        j_map=map_from_doc(doc["j"]),
        bounds=tuple(rat_from_str(b) for b in doc["bounds"]),
    )


def save_tower(tower: Tower, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": FORMAT,
        "seed": tower.seed,
        "omega": tower.omega,
        "deltas": [rat_to_str(d) for d in tower.deltas],
        "catalog": [f"catalog{i}.json" for i in range(len(tower.catalog))],
        "stages": [f"stage{i}.json" for i in range(len(tower.stages))],
        "links": [f"link{i}.json" for i in range(len(tower.links))],
        "members": "members.json",
        "discharges": "discharges.json",
    }
    for i, m in enumerate(tower.catalog):
        write_json(out / f"catalog{i}.json", space_to_doc(m))
    for i, s in enumerate(tower.stages):
        write_json(out / f"stage{i}.json", space_to_doc(s))
    for i, l in enumerate(tower.links):
        write_json(out / f"link{i}.json", map_to_doc(l))
    write_json(out / "members.json",
               {"format": FORMAT,
                "embeddings": [[map_to_doc(e) for e in per_stage]
                               for per_stage in tower.member_embeddings]})
    write_json(out / "discharges.json",
               {"format": FORMAT, "records": [discharge_to_doc(r) for r in tower.discharges]})
    write_json(out / "manifest.json", manifest)


def load_tower(indir) -> Tower:
    root = Path(indir)
    manifest = read_json(root / "manifest.json")
    _check_format(manifest, "tower manifest")
    catalog = tuple(load_space(root / p) for p in manifest["catalog"])
    stages = tuple(load_space(root / p) for p in manifest["stages"])
    links = tuple(load_map(root / p) for p in manifest["links"])
    members_doc = read_json(root / manifest["members"])
    members = tuple(tuple(map_from_doc(d) for d in per_stage)
                    for per_stage in members_doc["embeddings"])
    discharges_doc = read_json(root / manifest["discharges"])
    discharges = tuple(discharge_from_doc(d) for d in discharges_doc["records"])
    return Tower(catalog, tuple(rat_from_str(d) for d in manifest["deltas"]),
                 int(manifest["seed"]), bool(manifest["omega"]),
                 stages, links, members, discharges)


def net_to_doc(net) -> dict:
    return {
        "format": FORMAT,
        "domain": space_to_doc(net.domain),
        "codomain": space_to_doc(net.codomain),
        "points": [matrix_to_doc(p.matrix) for p in net.points],
        "resolution": None if net.resolution is None else rat_to_str(net.resolution),
    }


def net_from_doc(doc):
    from msn.ramsey import EmbeddingNet

    _check_format(doc, "net file")
    dom = space_from_doc(doc["domain"])
    cod = space_from_doc(doc["codomain"])
    points = tuple(LinearMap(dom, cod, matrix_from_doc(m)) for m in doc["points"])
    res = doc.get("resolution")
    return EmbeddingNet(dom, cod, points, None if res is None else rat_from_str(res))


def colouring_to_doc(c) -> dict:
    out = {"format": FORMAT, "kind": c.kind}
    if c.kind == "discrete":
        out["colours"] = c.colours
    else:
        out["level"] = c.level
    if c.table is not None:
        out["table"] = [
            {"matrix": [[rat_to_str(x) for x in row] for row in key],
             "value": (int(v) if c.kind == "discrete" else rat_to_str(v))}
            for key, v in c.table
        ]
    if c.builtin is not None:
        out["builtin"] = [str(c.builtin[0])] + [str(x) for x in c.builtin[1:]]
    return out


def colouring_from_doc(doc):
    from msn.ramsey import Colouring

    _check_format(doc, "colouring file")
    kind = doc["kind"]
    table = None
    if "table" in doc:
        rows = []
        for entry in doc["table"]:
            key = tuple(tuple(rat_from_str(x) for x in row) for row in entry["matrix"])
            v = int(entry["value"]) if kind == "discrete" else rat_from_str(entry["value"])
            rows.append((key, v))
        table = tuple(rows)
    builtin = None
    if "builtin" in doc:
        b = doc["builtin"]
        builtin = (b[0],) + tuple(int(x) if x.lstrip("-").isdigit() else x for x in b[1:])
    return Colouring(kind, doc.get("colours"), doc.get("level"), table, builtin)


def backforth_to_doc(rec: BackForthRecord) -> dict:
    return {
        "format": FORMAT,
        "startLevel": rec.start_level,
        "chainA": [space_to_doc(s) for s in rec.chain_a],
        "chainB": [space_to_doc(s) for s in rec.chain_b],
        "jMaps": [map_to_doc(m) for m in rec.j_maps],
        "lMaps": [map_to_doc(m) for m in rec.l_maps],
        "devJL": [rat_to_str(v) for v in rec.dev_jl],
        "devLJ": [rat_to_str(v) for v in rec.dev_lj],
        "gaps": [rat_to_str(v) for v in rec.gaps],
        "tails": [rat_to_str(v) for v in rec.tails],
        "boundsOk": rec.bounds_ok(),
    }
