"""Bit-exact JSON interchange.

Rationals travel as strings ("p/q" or integer form, lowest terms), never
floats.  A rational literal is ``-?[0-9]+`` or ``-?[0-9]+/[0-9]+`` with a
nonzero denominator, the forms ``rat_to_str`` writes; anything else
(exponents, decimals, whitespace, ``_``, a leading ``+``, non-ASCII
digits) is a ``FormatError``, so a short literal cannot expand into a
huge integer.  Serialisation is canonical: sorted keys, fixed
separators, one trailing newline, so identical values produce identical
bytes and load/save round-trips are stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

from msn.errors import DimensionMismatch, LengthMismatch, MsnError, ShapeMismatch
from msn.linalg import Matrix
from msn.maps import LinearMap, is_embedding
from msn.ramsey import Colouring, EmbeddingNet
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace
from msn.tower import BackForthRecord, DischargeRecord, Tower

FORMAT = "msn/1"


class FormatError(MsnError):
    pass


def _ratio_str(n: int, d: int) -> str:
    """The literal of ``n / d`` in lowest terms, ``d`` positive: one ``gcd``."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return _ratio_str(x.numerator, x.denominator)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(s: str) -> Fraction:
    if not isinstance(s, str):
        raise FormatError(f"rational {s!r} is not a string")
    lit = _RATIONAL.fullmatch(s)
    if lit is not None:
        try:
            num, den = int(lit[1]), int(lit[2] or 1)
        except ValueError:  # more digits than Python converts
            den = 0
        if den:
            return Fraction(num, den)
    raise FormatError(f"bad rational literal {s!r}")


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
    except (OSError, ValueError) as e:  # ValueError: bad JSON, bad UTF-8, a NUL in the path
        raise FormatError(f"cannot read {path}: {e}") from e


def _check_format(doc, what: str):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise FormatError(f"{what} is missing the {FORMAT} format marker")


def _field(doc, key: str, kind: type, what: str):
    """``doc[key]``, which must be present and a ``kind`` (a bool is no int)."""
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{what} has no {key!r}")
    val = doc[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise FormatError(f"{what}: {key!r} is not a {kind.__name__}")
    return val


def _rat_list(doc, what: str) -> tuple[Fraction, ...]:
    if not isinstance(doc, list):
        raise FormatError(f"{what} is not a list")
    return tuple(rat_from_str(x) for x in doc)


def seminorm_to_doc(s: PolyhedralSeminorm) -> dict:
    return {"functionals": [[_ratio_str(x, d) for x in ia] for ia, d in s.rows]}


def space_to_doc(X: MultiSpace) -> dict:
    return {
        "format": FORMAT,
        "dim": X.dim,
        "graded": X.graded,
        "seminorms": [seminorm_to_doc(s) for s in X.seminorms],
    }


REDUCE_LOAD_LIMIT = 64


def space_from_doc(doc) -> MultiSpace:
    """Parse a space file, canonicalising the functional lists.

    The exact LP irredundancy pass runs for lists up to
    ``REDUCE_LOAD_LIMIT`` functionals; larger machine-written lists are
    canonicalised by sign/sort/dominance only (our own writers always
    emit irredundant lists).  A malformed document raises ``FormatError``.
    """
    _check_format(doc, "space file")
    dim = _field(doc, "dim", int, "space file")
    if dim < 0:
        raise FormatError(f"space file: negative dim {dim}")
    graded = _field(doc, "graded", bool, "space file") if "graded" in doc else False
    sems = []
    for entry in _field(doc, "seminorms", list, "space file"):
        funcs = [_rat_list(f, "functional") for f in _field(entry, "functionals", list, "seminorm")]
        if any(len(f) != dim for f in funcs):
            raise FormatError(f"space file: functional arity != dim {dim}")
        reduce = len(funcs) <= REDUCE_LOAD_LIMIT
        try:
            sems.append(PolyhedralSeminorm.from_functionals(dim, funcs, reduce=reduce))
        except ValueError as e:  # a zero functional
            raise FormatError(f"space file: {e}") from e
    if not sems:
        raise FormatError("space file carries no seminorms")
    try:
        return MultiSpace.make(tuple(sems), graded=graded)
    except ValueError as e:  # flagged graded, levels not non-decreasing
        raise FormatError(f"space file: {e}") from e


def matrix_to_doc(m: Matrix) -> list:
    return [[_ratio_str(x, m.den) for x in r] for r in m.ints]


def matrix_from_doc(doc, cols: int | None) -> Matrix:
    """A matrix of width ``cols``, or of the first row's width when ``cols`` is None.

    Every row must have that width, so ``[]`` loads only where the rows
    cannot say it: as a map into a zero-dimensional codomain.
    """
    if not isinstance(doc, list):
        raise FormatError("matrix is not a list of rows")
    try:
        return Matrix.from_rows([_rat_list(row, "matrix row") for row in doc], cols)
    except DimensionMismatch as e:  # ragged rows, or no rows and no width
        raise FormatError(f"matrix: {e}") from e


def map_to_doc(f: LinearMap, space=space_to_doc) -> dict:
    """The document of ``f``, its two spaces rendered by ``space``."""
    return {
        "format": FORMAT,
        "domain": space(f.domain),
        "codomain": space(f.codomain),
        "matrix": matrix_to_doc(f.matrix),
    }


def _map_from_doc(doc, space) -> LinearMap:
    """Parse a map document; ``space`` resolves its two space references."""
    _check_format(doc, "map file")
    for key in ("domain", "codomain", "matrix"):
        if key not in doc:
            raise FormatError(f"map file has no {key!r}")
    dom = space(doc["domain"])
    cod = space(doc["codomain"])
    try:
        return LinearMap(dom, cod, matrix_from_doc(doc["matrix"], dom.dim))
    except ShapeMismatch as e:
        raise FormatError(f"map file: {e}") from e


def map_from_doc(doc, base: Path | None = None) -> LinearMap:
    """Parse a map document.

    A space reference is an inline space document or a path to a space
    file, relative to ``base`` when given.
    """
    def space(ref):
        if isinstance(ref, str):
            return load_space(Path(ref) if base is None else base / ref)
        return space_from_doc(ref)

    return _map_from_doc(doc, space)


def load_space(path) -> MultiSpace:
    return space_from_doc(read_json(path))


def load_map(path) -> LinearMap:
    return map_from_doc(read_json(path), base=Path(path).parent)


def discharge_to_doc(rec: DischargeRecord, space) -> dict:
    """The document of ``rec``, its spaces rendered by ``space``."""
    return {
        "stage": rec.stage,
        "source": rec.source,
        "delta": rat_to_str(rec.delta),
        "eps": rat_to_str(rec.eps),
        "gamma": map_to_doc(rec.gamma, space),
        "eta": map_to_doc(rec.eta, space),
        "j": map_to_doc(rec.j_map, space),
        "bounds": [rat_to_str(b) for b in rec.bounds],
    }


def discharge_from_doc(doc, space) -> DischargeRecord:
    """Parse a discharge record; ``space`` resolves the space references of its maps."""
    what = "discharge record"
    if not isinstance(doc, dict):
        raise FormatError(f"{what} is not an object")
    return DischargeRecord(
        stage=_field(doc, "stage", int, what),
        source=_field(doc, "source", str, what),
        gamma=_map_from_doc(_field(doc, "gamma", dict, what), space),
        eta=_map_from_doc(_field(doc, "eta", dict, what), space),
        delta=rat_from_str(_field(doc, "delta", str, what)),
        eps=rat_from_str(_field(doc, "eps", str, what)),
        j_map=_map_from_doc(_field(doc, "j", dict, what), space),
        bounds=_rat_list(_field(doc, "bounds", list, what), f"{what} bounds"),
    )


def save_tower(tower: Tower, outdir) -> None:
    """Write ``tower`` to the directory ``outdir``.

    Each distinct catalog member and stage object is written once, as
    ``catalogI.json`` or ``stageI.json`` after its first position; a stage
    that is an earlier object is listed in the manifest by that object's
    file.  Every link, member embedding and discharge map names its domain
    and codomain by these files; any other space is written inline.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    names: dict[int, str] = {}  # id of a catalog or stage object -> its file; the tower keeps each alive

    def file_of(X: MultiSpace, name: str) -> str:
        if id(X) not in names:
            names[id(X)] = name
            write_json(out / name, space_to_doc(X))
        return names[id(X)]

    manifest = {
        "format": FORMAT,
        "seed": tower.seed,
        "omega": tower.omega,
        "deltas": [rat_to_str(d) for d in tower.deltas],
        "catalog": [file_of(m, f"catalog{i}.json") for i, m in enumerate(tower.catalog)],
        "stages": [file_of(s, f"stage{i}.json") for i, s in enumerate(tower.stages)],
        "links": [f"link{i}.json" for i in range(len(tower.links))],
        "members": "members.json",
        "discharges": "discharges.json",
    }

    def space(X: MultiSpace) -> str | dict:
        return names.get(id(X)) or space_to_doc(X)

    for i, l in enumerate(tower.links):
        write_json(out / f"link{i}.json", map_to_doc(l, space))
    write_json(out / "members.json",
               {"format": FORMAT,
                "embeddings": [[map_to_doc(e, space) for e in per_stage]
                               for per_stage in tower.member_embeddings]})
    write_json(out / "discharges.json",
               {"format": FORMAT,
                "records": [discharge_to_doc(r, space) for r in tower.discharges]})
    write_json(out / "manifest.json", manifest)


def _names(doc, key: str, what: str) -> list[str]:
    names = _field(doc, key, list, what)
    if not all(isinstance(x, str) for x in names):
        raise FormatError(f"{what}: {key!r} is not a list of file names")
    return names


def _tower_file(root: Path, name: str) -> Path:
    """The file ``name`` of the tower directory ``root``; only a plain file name is accepted."""
    if name in ("", ".", "..") or Path(name).name != name:
        raise FormatError(f"tower file reference {name!r} is not a plain file name")
    return root / name


def _joins(f: LinearMap, dom: MultiSpace, cod: MultiSpace, where: str) -> None:
    if (f.domain, f.codomain) != (dom, cod):
        raise FormatError(f"{where} does not map the spaces its place in the tower fixes")


def load_tower(indir) -> Tower:
    """Read a tower directory written by ``save_tower``.

    Every file, key and type is checked, and so are the counts and wiring
    that ``verify_tower`` relies on (link i maps stage i into stage i + 1,
    member (i, j) catalog j into stage i; discharge gamma and eta map one
    domain into stage n, J stage n into stage n + 1); a malformed artifact
    raises ``FormatError``.  Files in the manifest are plain file names.

    Each distinct catalog and stage file is parsed once, and every map
    that names it gets that ``MultiSpace`` object; a map space given by
    any other name is a ``FormatError``.  An inline space document, as
    in directories written before spaces were named by file, is parsed
    where it stands; spaces are compared by value.
    """
    root = Path(indir)

    def read(name: str):
        return read_json(_tower_file(root, name))

    what = "tower manifest"
    manifest = read_json(root / "manifest.json")
    _check_format(manifest, what)
    catalog_names = _names(manifest, "catalog", what)
    stage_names = _names(manifest, "stages", what)
    named = {name: space_from_doc(read(name)) for name in dict.fromkeys(catalog_names + stage_names)}

    def space(ref) -> MultiSpace:
        if not isinstance(ref, str):
            return space_from_doc(ref)
        if ref not in named:
            raise FormatError(f"space reference {ref!r} names no catalog or stage file")
        return named[ref]

    catalog = tuple(named[name] for name in catalog_names)
    stages = tuple(named[name] for name in stage_names)
    link_names = _names(manifest, "links", what)
    links = tuple(_map_from_doc(read(p), space) for p in link_names)
    if len(links) != max(len(stages) - 1, 0):
        raise FormatError(f"{what}: {len(links)} links for {len(stages)} stages")
    for i, (p, link) in enumerate(zip(link_names, links)):
        _joins(link, stages[i], stages[i + 1], f"{p}: link {i}")
    name = _field(manifest, "members", str, what)
    members_doc = read(name)
    _check_format(members_doc, "tower members file")
    members = _field(members_doc, "embeddings", list, "tower members file")
    if len(members) != len(stages):
        raise FormatError(f"{name}: {len(members)} member rows for {len(stages)} stages")
    for i, per_stage in enumerate(members):
        if not isinstance(per_stage, list) or len(per_stage) != len(catalog):
            raise FormatError(f"{name}: stage {i} does not list one map per catalog member")
        members[i] = tuple(_map_from_doc(d, space) for d in per_stage)
        for j, emb in enumerate(members[i]):
            _joins(emb, catalog[j], stages[i], f"{name}: member ({i}, {j})")
    name = _field(manifest, "discharges", str, what)
    discharges_doc = read(name)
    _check_format(discharges_doc, "tower discharges file")
    discharges = tuple(discharge_from_doc(d, space)
                       for d in _field(discharges_doc, "records", list, "tower discharges file"))
    for k, rec in enumerate(discharges):
        if not 0 <= rec.stage < len(links):
            raise FormatError(f"discharge record: stage {rec.stage} has no link")
        if len(rec.bounds) != rec.gamma.domain.length:
            raise FormatError("discharge record: one bound per level of gamma's domain expected")
        _joins(rec.gamma, rec.eta.domain, stages[rec.stage], f"{name}: record {k} gamma")
        _joins(rec.eta, rec.gamma.domain, stages[rec.stage], f"{name}: record {k} eta")
        _joins(rec.j_map, stages[rec.stage], stages[rec.stage + 1], f"{name}: record {k} J")
    return Tower(catalog, _rat_list(_field(manifest, "deltas", list, what), "tower deltas"),
                 _field(manifest, "seed", int, what), _field(manifest, "omega", bool, what),
                 stages, links, tuple(members), discharges)


def net_to_doc(net) -> dict:
    return {
        "format": FORMAT,
        "domain": space_to_doc(net.domain),
        "codomain": space_to_doc(net.codomain),
        "points": [matrix_to_doc(p.matrix) for p in net.points],
        "resolution": None if net.resolution is None else rat_to_str(net.resolution),
    }


def net_from_doc(doc):
    what = "net file"
    _check_format(doc, what)
    dom = space_from_doc(_field(doc, "domain", dict, what))
    cod = space_from_doc(_field(doc, "codomain", dict, what))
    try:
        points = tuple(LinearMap(dom, cod, matrix_from_doc(m, dom.dim)) for m in _field(doc, "points", list, what))
        bad = next((i for i, p in enumerate(points) if not is_embedding(p, 0)[0]), None)
    except (ShapeMismatch, LengthMismatch) as e:
        raise FormatError(f"{what}: {e}") from e
    if bad is not None:
        raise FormatError(f"{what}: point {bad} is not an exact embedding")
    res = doc.get("resolution")
    if res is not None:
        res = rat_from_str(res)
        if res <= 0:
            raise FormatError(f"{what}: resolution must be positive, got {rat_to_str(res)}")
    return EmbeddingNet(dom, cod, points, res)


def colouring_from_doc(doc):
    """A discrete (int values, with a colour count) or continuous (rational
    values) colouring, given by a table of point matrices or by the builtin
    ``["coordinate-clamp", COORDINATE]``."""
    what = "colouring file"
    _check_format(doc, what)
    kind = _field(doc, "kind", str, what)
    if kind not in ("discrete", "continuous"):
        raise FormatError(f"{what}: unknown kind {kind!r}")
    colours = _field(doc, "colours", int, what) if doc.get("colours") is not None else None
    if kind == "discrete" and colours is None:
        raise FormatError(f"{what}: a discrete colouring needs 'colours'")
    if colours is not None and colours < 1:
        raise FormatError(f"{what}: 'colours' must be positive, got {colours}")
    level = _field(doc, "level", int, what) if doc.get("level") is not None else None
    table = None
    if "table" in doc:
        rows = []
        for entry in _field(doc, "table", list, what):
            key = matrix_from_doc(_field(entry, "matrix", list, "colouring entry"), None)
            v = (_field(entry, "value", int, "colouring entry") if kind == "discrete"
                 else rat_from_str(_field(entry, "value", str, "colouring entry")))
            if kind == "discrete" and not 0 <= v < colours:
                raise FormatError(f"colouring entry: value {v} outside 0..{colours - 1}")
            rows.append((key, v))
        table = tuple(rows)
    builtin = None
    if "builtin" in doc:
        if kind == "discrete":
            raise FormatError(f"{what}: 'coordinate-clamp' takes values in [0, 1]; a builtin is continuous")
        b = _field(doc, "builtin", list, what)
        if not b or not all(isinstance(x, str) for x in b):
            raise FormatError(f"{what}: 'builtin' is not a nonempty list of strings")
        if b[0] != "coordinate-clamp":
            raise FormatError(f"{what}: builtin {b[0]!r} is not available in files, only 'coordinate-clamp' is")
        if len(b) != 2 or not b[1].isdecimal():
            raise FormatError(f"{what}: 'coordinate-clamp' takes one coordinate index, a nonnegative integer")
        builtin = (b[0], int(b[1]))
    if table is None and builtin is None:
        raise FormatError(f"{what} has neither 'table' nor 'builtin'")
    return Colouring(kind, colours, level, table, builtin)


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
