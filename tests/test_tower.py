import contextlib
import copy
import io as stdio
import json
import random
import shutil
from fractions import Fraction

import pytest

from msn import io, tower
from msn.cli import main
from msn.errors import PairNotInCertificates
from msn.maps import identity_map, is_embedding
from msn.ramsey import build_net
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import line_space
from msn.tower import BackForthRecord, back_and_forth, build_tower, discharge, verify_tower

F = Fraction


def small_catalog():
    return (line_space(1), line_space(2))


def test_single_stage_is_pure_jep():
    t = build_tower(small_catalog(), [0], 1, seed=5)
    assert len(t.stages) == 1
    assert t.stages[0].dim == 2
    for emb in t.member_embeddings[0]:
        assert is_embedding(emb, 0)[0]


def test_three_stage_tower_verifies():
    t = build_tower(small_catalog(), [0, F(1, 4)], 3, seed=7)
    rep = verify_tower(t)
    assert rep["ok"], rep["failures"]
    # every member embeds exactly at every stage
    assert all(len(m) == 2 for m in t.member_embeddings)


def test_omega_mode_grows_lambda():
    t = build_tower((line_space(1),), [0], 4, seed=3, omega=True, dim_cap=6)
    assert all(s.length >= i for i, s in enumerate(t.stages))
    assert verify_tower(t)["ok"]


def test_discharge_lookup_and_missing_pair():
    t = build_tower(small_catalog(), [0], 3, seed=11)
    rec = t.discharges[0]
    j, bound = discharge(t, rec.gamma.domain, rec.gamma, rec.eta, rec.delta)
    assert j.matrix == rec.j_map.matrix
    assert bound <= 2 * rec.delta + rec.eps
    q = line_space(1)
    with pytest.raises(PairNotInCertificates):
        discharge(t, q, identity_map(q), identity_map(q), F(1, 3))


def test_verify_detects_fault_injection():
    t = build_tower(small_catalog(), [0], 3, seed=13)
    # corrupt one link entry
    from msn.linalg import Matrix
    from msn.maps import LinearMap

    bad_entries = [list(r) for r in t.links[0].matrix.entries]
    bad_entries[0][0] += 1
    bad_link = LinearMap(t.links[0].domain, t.links[0].codomain, Matrix.from_rows(bad_entries))
    broken = t.__class__(t.catalog, t.deltas, t.seed, t.omega, t.stages,
                         (bad_link,) + t.links[1:], t.member_embeddings, t.discharges)
    rep = verify_tower(broken)
    assert not rep["ok"]
    kinds = {f["kind"] for f in rep["failures"]}
    assert "link" in kinds or "certificate" in kinds or "composite" in kinds

    # corrupt a certificate bound below its true value
    rec = t.discharges[0]
    fake = rec.__class__(rec.stage, rec.source, rec.gamma, rec.eta, rec.delta, rec.eps,
                         rec.j_map, tuple(b - 1 for b in rec.bounds))
    broken2 = t.__class__(t.catalog, t.deltas, t.seed, t.omega, t.stages, t.links,
                          t.member_embeddings, (fake,) + t.discharges[1:])
    rep2 = verify_tower(broken2)
    assert not rep2["ok"]
    assert any(f["kind"] == "certificate" for f in rep2["failures"])


def test_sampled_eta_builds_and_checks_only_the_pick(monkeypatch):
    """The draw is the net point ``build_net`` gives at the same index,
    scaled by 1 + delta, the generator ends in the same state, and
    ``is_embedding`` runs once, on the pick."""
    t = build_tower(small_catalog(), [0, F(1, 4)], 2, seed=3, dim_cap=8)
    calls = []
    real = tower.is_embedding
    monkeypatch.setattr(tower, "is_embedding", lambda f, d: calls.append(f) or real(f, d))
    for n, cur in enumerate(t.stages):
        for j, base in enumerate(t.member_embeddings[n]):
            for k, delta in enumerate((F(0), F(1, 4))):
                mine, theirs = random.Random(100 * n + 10 * j + k), random.Random(100 * n + 10 * j + k)
                calls.clear()
                eta = tower._sampled_eta(base, cur, delta, mine)
                points = build_net(base.domain, cur, 2).points
                assert eta.matrix == points[theirs.randrange(len(points))].matrix.scale(1 + delta)
                assert mine.random() == theirs.random()
                assert len(calls) == 1 and calls[0].matrix == eta.matrix.scale(1 / (1 + delta))


def test_determinism_same_seed():
    a = build_tower(small_catalog(), [0, F(1, 4)], 3, seed=99)
    b = build_tower(small_catalog(), [0, F(1, 4)], 3, seed=99)
    assert a.stages == b.stages
    assert all(x.matrix == y.matrix for x, y in zip(a.links, b.links))


def test_back_and_forth_identical_towers():
    t = build_tower(small_catalog(), [0], 3, seed=21)
    rec = back_and_forth(t, t, steps=2, start_level=3)
    assert all(v == 0 for v in rec.dev_jl + rec.dev_lj + rec.gaps + rec.tails)
    assert rec.bounds_ok()


def test_back_and_forth_twin_towers_bounds():
    a = build_tower(small_catalog(), [0], 3, seed=1, dim_cap=4)
    b = build_tower(small_catalog(), [0], 3, seed=2, dim_cap=4)
    rec = back_and_forth(a, b, steps=2, start_level=3)
    assert isinstance(rec, BackForthRecord)
    assert rec.bounds_ok()
    n = rec.start_level
    for s, v in enumerate(rec.dev_lj):
        assert v <= F(1, 2 ** (n + 2 * s + 1))
    for s, v in enumerate(rec.gaps):
        assert v <= F(3, 2 ** (n + 2 * s + 1))
    for s, v in enumerate(rec.tails):
        assert v <= F(3, 2 ** (n + 2 * s))
    # chains are made of exact embeddings
    for j in rec.j_maps:
        assert is_embedding(j, 0)[0]
    for l_map in rec.l_maps:
        assert is_embedding(l_map, 0)[0]


@pytest.fixture(scope="module")
def saved_tower(tmp_path_factory):
    t = build_tower(small_catalog(), [0, F(1, 4)], 3, seed=3, dim_cap=4)
    d = tmp_path_factory.mktemp("tower")
    io.save_tower(t, d)
    return t, d


def _maps(t):
    yield from t.links
    for per_stage in t.member_embeddings:
        yield from per_stage
    for rec in t.discharges:
        yield from (rec.gamma, rec.eta, rec.j_map)


def _spaces(t):
    yield from t.catalog
    yield from t.stages
    for f in _maps(t):
        yield from (f.domain, f.codomain)


def _tower_docs(d):
    """The JSON documents of a tower directory, by file name."""
    return {p.name: json.loads(p.read_text()) for p in d.iterdir()}


def _map_docs(docs):
    """Every map document among a tower's files."""
    for name in docs["manifest.json"]["links"]:
        yield docs[name]
    for per_stage in docs["members.json"]["embeddings"]:
        yield from per_stage
    for rec in docs["discharges.json"]["records"]:
        yield from (rec[k] for k in ("gamma", "eta", "j"))


def test_loaded_tower_shares_each_distinct_space(saved_tower, monkeypatch):
    t, d = saved_tower
    parse = PolyhedralSeminorm.from_functionals
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(PolyhedralSeminorm, "from_functionals", staticmethod(counted))
    loaded = io.load_tower(d)
    assert loaded == t

    # every map space is the loaded catalog or stage object its file name names
    docs = _tower_docs(d)
    names = docs["manifest.json"]["catalog"] + docs["manifest.json"]["stages"]
    by_name = dict(zip(names, loaded.catalog + loaded.stages))
    for f, m in zip(_maps(loaded), _map_docs(docs), strict=True):
        assert f.domain is by_name[m["domain"]]
        assert f.codomain is by_name[m["codomain"]]

    # one parse per distinct catalog or stage file
    per_load = len(calls)
    calls.clear()
    for name in set(names):
        io.load_space(d / name)
    assert per_load == len(calls)


def test_load_tower_memo_is_scoped_to_one_call(saved_tower):
    _, d = saved_tower
    a, b = io.load_tower(d), io.load_tower(d)
    assert a == b
    assert not {id(X) for X in _spaces(a)} & {id(X) for X in _spaces(b)}


def _verify(d):
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        rc = main(["tower", "verify", str(d)])
    return rc, err.getvalue()


def test_space_references_resolve_in_the_tower_directory(saved_tower, tmp_path, monkeypatch):
    # Every map names its spaces by catalog or stage file.
    t, d = saved_tower
    docs = _tower_docs(d)
    members = docs["members.json"]
    assert docs["link0.json"]["domain"] == members["embeddings"][0][0]["codomain"] == "stage0.json"
    assert all(isinstance(m[side], str) for m in _map_docs(docs) for side in ("domain", "codomain"))
    ref = tmp_path / "byref"
    shutil.copytree(d, ref)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert io.load_tower(ref) == t
    assert _verify(ref) == (0, "")

    # the inline layout, each reference replaced by the document it names, loads too
    inline = tmp_path / "inline"
    inline.mkdir()
    inline_docs = copy.deepcopy(docs)
    for m in _map_docs(inline_docs):
        for side in ("domain", "codomain"):
            m[side] = docs[m[side]]
    for name, doc in inline_docs.items():
        io.write_json(inline / name, doc)
    assert io.load_tower(inline) == t
    assert _verify(inline) == (0, "")

    # a reference that leaves the directory is refused, even where the file exists
    shutil.copy(d / "stage0.json", tmp_path / "stage0.json")
    for bad in ("../stage0.json", str(tmp_path / "stage0.json"), "", ".", "stage0.json\0"):
        members["embeddings"][0][0]["codomain"] = bad
        io.write_json(ref / "members.json", members)
        rc, err = _verify(ref)
        assert rc == 1
        assert json.loads(err)["error"] == "FormatError"
