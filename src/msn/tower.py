"""Finite tower stages with exact extension certificates.

A tower is a chain of separated spaces joined by exactly isometric links.
Each new stage discharges a finite seeded sample of near-commuting pairs
by folding pushouts, with error budget halving per stage; every discharge
is recorded with its exact per-level bound and can be re-audited.  The
intertwining record pairs two towers through alternating pushout
extensions whose step deviations obey the scheduled powers of two, and
whose successive-map gaps and tail sums satisfy the closed-form bounds
derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from msn.amalgam import multi_amalgam, pushout, sparse_pushout
from msn.errors import BadArgument, CatalogNotSeparated, EmptyEmbeddingSet, PairNotInCertificates
from msn.linalg import Matrix
from msn.maps import LinearMap, compose, identity_map, is_embedding, map_distance
from msn.ramsey import sphere_points
from msn.seeding import rng as seeded_rng
from msn.spaces import MultiSpace, extend_with_norm, is_separated, pullback_space, trivial_space, truncate


@dataclass(frozen=True)
class DischargeRecord:
    """One condition-(b) instance: a pair absorbed into the next stage."""

    stage: int
    source: str
    gamma: LinearMap
    eta: LinearMap
    delta: Fraction
    eps: Fraction
    j_map: LinearMap
    bounds: tuple[Fraction, ...]


@dataclass(frozen=True)
class Tower:
    catalog: tuple[MultiSpace, ...]
    deltas: tuple[Fraction, ...]
    seed: int
    omega: bool
    stages: tuple[MultiSpace, ...]
    links: tuple[LinearMap, ...]
    member_embeddings: tuple[tuple[LinearMap, ...], ...]
    discharges: tuple[DischargeRecord, ...]


def _retarget(f: LinearMap, new_cod: MultiSpace) -> LinearMap:
    return LinearMap(f.domain, new_cod, f.matrix)


def _sampled_eta(base: LinearMap, cur: MultiSpace, delta, r) -> LinearMap:
    """Seeded delta-embedding of the base's domain into the current stage.

    One-dimensional members draw from the exhaustive embedding net of the
    stage (scaled by 1 + delta); only the pick is built and checked by
    ``is_embedding``.  Otherwise the signed scaled base is used.
    """
    member = base.domain
    total_funcs = sum(len(s.rows) for s in cur.seminorms)
    if member.dim == 1 and total_funcs <= 40:
        try:
            points = sphere_points(member, cur, Fraction(2))
        except EmptyEmbeddingSet:
            pass
        else:
            pick = LinearMap(member, cur, Matrix.from_rows([[x] for x in points[r.randrange(len(points))]]))
            if is_embedding(pick, 0)[0]:
                return LinearMap(member, cur, pick.matrix.scale(1 + delta))
    sign = 1 if r.randrange(2) else -1
    return LinearMap(member, cur, base.matrix.scale((1 + delta) * sign))


def build_tower(catalog, deltas, stage_budget: int, seed: int, omega: bool = False,
                pairs_per_stage: int = 1, dim_cap: int = 12) -> Tower:
    """Seeded tower construction.

    Stage 0 joins all catalog members over the trivial space; stage n+1
    discharges a seeded sample of pairs of delta-embeddings into stage n
    with error 2^-n.  Pairs that would push the stage dimension past
    ``dim_cap`` are discharged trivially (equal pair, link itself, exact
    bound zero).  In omega mode stages are extended by norms so the level
    count reaches the stage index.
    """
    catalog = tuple(catalog)
    deltas = tuple(Fraction(d) for d in deltas)
    if not catalog:
        raise BadArgument("catalog must be nonempty")
    if not deltas or deltas[0] != 0:
        raise BadArgument("delta list must start with 0")
    if any(d < 0 for d in deltas):
        raise BadArgument("delta must be nonnegative")
    if pairs_per_stage < 0 or dim_cap < 0:
        raise BadArgument("pairs per stage and dimension cap must be nonnegative")
    for i, m in enumerate(catalog):
        if not is_separated(m):
            raise CatalogNotSeparated(f"catalog member {i} is not separated")
    if stage_budget < 1:
        raise BadArgument("stage budget must be at least 1")

    # Stage 0: joint embedding of the whole catalog over the trivial space.
    stage = catalog[0]
    embeds = [identity_map(catalog[0])]
    triv = trivial_space(1)
    for j in range(1, len(catalog)):
        res = pushout(triv, stage, catalog[j],
                      LinearMap(triv, stage, Matrix.zero(stage.dim, 0)),
                      LinearMap(triv, catalog[j], Matrix.zero(catalog[j].dim, 0)), 0, Fraction(1))
        stage = res.space
        embeds = [compose(res.leg_y, e) for e in embeds]
        embeds.append(res.leg_z)
    if not is_separated(stage):
        stage = extend_with_norm(stage)
        embeds = [_retarget(e, stage) for e in embeds]

    stages = [stage]
    links: list[LinearMap] = []
    member_embeddings = [tuple(embeds)]
    discharges: list[DischargeRecord] = []

    for n in range(stage_budget - 1):
        cur = stages[n]
        eps = Fraction(1, 2 ** n)
        r = seeded_rng(seed, "stage", n)
        pairs = []
        trivial_pairs = []
        for p in range(pairs_per_stage):
            j = r.randrange(len(catalog))
            k = r.randrange(min(n + 1, len(deltas)))
            delta = deltas[k]
            base = member_embeddings[n][j]
            if 2 * cur.dim > dim_cap:
                trivial_pairs.append((f"catalog:{j}", base, base, delta))
                continue
            eta = _sampled_eta(base, cur, delta, r)
            pairs.append((f"catalog:{j}", base, eta, delta))
        res = multi_amalgam(cur, [(src_g.domain, src_g, e, d) for (_, src_g, e, d) in pairs], eps)
        nxt, link = res.space, res.into
        if omega:
            while nxt.length < n + 2:
                nxt = extend_with_norm(nxt)
        if not is_separated(nxt):
            nxt = extend_with_norm(nxt)
        link = _retarget(link, nxt)
        j_maps = [_retarget(j, nxt) for j in res.legs]
        for (src, gamma, eta, delta), j_map, bnd in zip(pairs, j_maps, res.bounds):
            discharges.append(DischargeRecord(n, src, gamma, eta, delta, eps, j_map, bnd))
        for (src, gamma, eta, delta) in trivial_pairs:
            bnd = tuple(Fraction(0) for _ in range(gamma.domain.length))
            discharges.append(DischargeRecord(n, src, gamma, eta, delta, eps, link, bnd))
        stages.append(nxt)
        links.append(link)
        member_embeddings.append(tuple(compose(link, e) for e in member_embeddings[n]))

    return Tower(catalog, deltas, seed, omega, tuple(stages), tuple(links),
                 tuple(member_embeddings), tuple(discharges))


def discharge(tower: Tower, X: MultiSpace, gamma: LinearMap, eta: LinearMap, delta) -> tuple[LinearMap, Fraction]:
    """Look up the recorded extension map for a pre-discharged pair."""
    delta = Fraction(delta)
    for rec in tower.discharges:
        if (rec.gamma.domain == X and rec.gamma.matrix == gamma.matrix
                and rec.eta.matrix == eta.matrix and rec.delta == delta):
            bound = max(rec.bounds) if rec.bounds else Fraction(0)
            return rec.j_map, bound
    raise PairNotInCertificates("pair was not discharged; rebuild the tower including it")


def verify_tower(tower: Tower) -> dict:
    """Re-audit every certificate; returns pass/fail with witnesses."""
    failures = []
    checks = 0
    for n, link in enumerate(tower.links):
        checks += 1
        ok, wit = is_embedding(link, 0)
        if not ok:
            failures.append({"kind": "link", "stage": n, "witness": wit})
    for m in range(len(tower.stages)):
        # the chained link X_m -> X_n, one link longer per step
        chain = identity_map(tower.stages[m])
        for n in range(m + 1, len(tower.stages)):
            chain = compose(tower.links[n - 1], chain)
            checks += 1
            ok, wit = is_embedding(chain, 0)
            if not ok:
                failures.append({"kind": "composite", "from": m, "to": n, "witness": wit})
    lam = [s.length for s in tower.stages]
    checks += 1
    if any(lam[i] > lam[i + 1] for i in range(len(lam) - 1)):
        failures.append({"kind": "lambda-monotone", "lambdas": lam})
    if tower.omega:
        checks += 1
        if any(s.length < i for i, s in enumerate(tower.stages)):
            failures.append({"kind": "lambda-omega", "lambdas": lam})
    for i, s in enumerate(tower.stages):
        checks += 1
        if not is_separated(s):
            failures.append({"kind": "separation", "stage": i})
    for i, per_stage in enumerate(tower.member_embeddings):
        for j, emb in enumerate(per_stage):
            checks += 1
            ok, wit = is_embedding(emb, 0)
            if not ok:
                failures.append({"kind": "member-embedding", "stage": i, "member": j, "witness": wit})
    for rec in tower.discharges:
        link = tower.links[rec.stage]
        allowed = 2 * rec.delta + rec.eps
        for level in range(rec.gamma.domain.length):
            checks += 1
            val = map_distance(compose(link, rec.gamma), compose(rec.j_map, rec.eta), level)
            if val is None or val > allowed or val != rec.bounds[level]:
                failures.append({"kind": "certificate", "stage": rec.stage, "level": level,
                                 "value": str(val), "allowed": str(allowed)})
        checks += 1
        ok, wit = is_embedding(rec.j_map, 0)
        if not ok:
            failures.append({"kind": "discharge-map", "stage": rec.stage, "witness": wit})
    return {"ok": not failures, "checks": checks, "failures": failures}


@dataclass(frozen=True)
class BackForthRecord:
    """Alternating chains between two towers with exact deviation data."""

    start_level: int
    chain_a: tuple[MultiSpace, ...]
    chain_b: tuple[MultiSpace, ...]
    j_maps: tuple[LinearMap, ...]
    l_maps: tuple[LinearMap, ...]
    dev_jl: tuple[Fraction, ...]     # || J_{s+1} . L_s - link ||, bound 2^-(n+2s)
    dev_lj: tuple[Fraction, ...]    # || L_s . J_s - link ||,    bound 2^-(n+2s+1)
    gaps: tuple[Fraction, ...]      # successive J-map gaps, bound 3 * 2^-(n+2s+1)
    tails: tuple[Fraction, ...]     # tail sums, bound 3 * 2^-(n+2s)

    def bounds_ok(self) -> bool:
        n = self.start_level
        for s, v in enumerate(self.dev_lj):
            if v > Fraction(1, 2 ** (n + 2 * s + 1)):
                return False
        for s, v in enumerate(self.dev_jl):
            if v > Fraction(1, 2 ** (n + 2 * s)):
                return False
        for s, v in enumerate(self.gaps):
            if v > Fraction(3, 2 ** (n + 2 * s + 1)):
                return False
        for s, v in enumerate(self.tails):
            if v > Fraction(3, 2 ** (n + 2 * s)):
                return False
        return True


def _seed_object(tower: Tower, stage_index: int, length: int) -> MultiSpace:
    """1-dimensional subspace spanned by the first generator of a stage."""
    stage = tower.stages[stage_index]
    col = Matrix(tuple((int(i == 0),) for i in range(stage.dim)), 1, 1)
    return truncate(pullback_space(stage, col), length)


def back_and_forth(tower_a: Tower, tower_b: Tower, steps: int, start_level: int = 3) -> BackForthRecord:
    """Intertwine two towers by alternating pushout extensions.

    Step s amalgamates the current chain objects over the common one with
    errors 2^-(n+2s+1) and 2^-(n+2s+2); the recorded deviations realise
    the scheduled bounds exactly, and gaps/tails follow by the triangle
    inequality with the constant 3.
    """
    if steps < 1:
        raise BadArgument("at least one step")
    if start_level < 0:
        raise BadArgument("start level must be nonnegative")
    n = start_level
    if tower_a.stages == tower_b.stages:
        X0 = _seed_object(tower_a, min(n, len(tower_a.stages) - 1), 1)
        ident = identity_map(X0)
        zero = Fraction(0)
        s_count = steps
        return BackForthRecord(n, (X0,) * (s_count + 1), (X0,) * (s_count + 1),
                               (ident,) * (s_count + 1), (ident,) * s_count,
                               (zero,) * s_count, (zero,) * s_count,
                               (zero,) * s_count, (zero,) * s_count)

    ia = min(n, len(tower_a.stages) - 1)
    ib = min(n, len(tower_b.stages) - 1)
    length = min(tower_a.stages[ia].length, tower_b.stages[ib].length)
    X0 = _seed_object(tower_a, ia, length)
    cb = _seed_object(tower_b, ib, length)
    triv = trivial_space(1)
    join = sparse_pushout(triv, cb, X0, LinearMap(triv, cb, Matrix.zero(cb.dim, 0)),
                          LinearMap(triv, X0, Matrix.zero(X0.dim, 0)), 0, Fraction(1))
    chain_a = [X0]
    chain_b = [join.space]
    gammas = [join.leg_z]
    etas: list[LinearMap] = []
    links_a: list[LinearMap] = []
    links_b: list[LinearMap] = []
    dev_jl: list[Fraction] = []
    dev_lj: list[Fraction] = []
    for s in range(steps):
        Xs, Ys, gs = chain_a[s], chain_b[s], gammas[s]
        res = sparse_pushout(Xs, Xs, Ys, identity_map(Xs), gs, 0, Fraction(1, 2 ** (n + 2 * s + 1)))
        links_a.append(res.leg_y)
        etas.append(res.leg_z)
        chain_a.append(res.space)
        dev_lj.append(max(res.bound_certificate) if res.bound_certificate else Fraction(0))
        res2 = sparse_pushout(Ys, Ys, res.space, identity_map(Ys), res.leg_z, 0,
                              Fraction(1, 2 ** (n + 2 * s + 2)))
        links_b.append(res2.leg_y)
        gammas.append(res2.leg_z)
        chain_b.append(res2.space)
        dev_jl.append(max(res2.bound_certificate) if res2.bound_certificate else Fraction(0))
    gaps = []
    for s in range(steps):
        vals = [map_distance(compose(links_b[s], gammas[s]), compose(gammas[s + 1], links_a[s]), m)
                for m in range(chain_a[s].length)]
        gaps.append(max(vals) if vals else Fraction(0))
    tails = [sum(gaps[s:], Fraction(0)) for s in range(steps)]
    return BackForthRecord(n, tuple(chain_a), tuple(chain_b), tuple(gammas), tuple(etas),
                           tuple(dev_jl), tuple(dev_lj), tuple(gaps), tuple(tails))
