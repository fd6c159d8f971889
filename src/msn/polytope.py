"""Exact conversion between H- and V-representations of polytopes.

Polytopes are plain data: inequality lists ``a . x <= b`` and point
lists.  ``polytope_vertices`` enumerates the vertices of an inequality
system and ``polytope_facets`` the canonical irredundant facets of a
point hull.  Both run the double description method
(Fukuda & Prodon, "Double description method revisited", 1996) on a
homogenising cone: vertex enumeration inserts constraints incrementally
starting from a simplicial cone, and facet enumeration applies the same
ray machinery to the polar cone.  A cone with lineality is split once
(``_lineality_split``) into its lineality space and a pointed part, and
every answer is read off those rays: for vertices, the system is empty
iff no ray has t > 0 and unbounded iff it is not empty and has
lineality or a ray with t == 0; for facets, lineality turns into
implicit equalities, emitted as opposite inequality pairs.  The method
works in integers throughout: the start cone comes from one
fraction-free Gauss-Jordan pass that keeps the first independent rows
and their combination coefficients, each ray keeps an id for life and
its tight set as an int bitmask extended by one bit per inserted row,
and ray pairs are tested for adjacency combinatorially, with no rank
computation, by per-row masks of ray ids that each new ray extends by
its own bit (Terzer & Stelling, "Large-scale computation of elementary
flux modes with bit pattern trees", Bioinformatics 2008).
``polytope_facets`` returns the primitive integer rows it builds, and
the vertex functions take int and Fraction rows alike, so a facet list
goes back in with no conversion.  ``vertex_rows`` returns each
vertex as the primitive ray it was read off, the ``_scale_to_int`` row
``(x, t)``, for callers that go on in integers; ``polytope_vertices`` is
the same list in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from msn import _kernel
from msn._kernel import _row_primitive
from msn.errors import UnboundedPolyhedron
from msn.linalg import Vec, _int_nullspace, _scale_to_int, coordinate_complement, int_rows

Ineq = tuple[Vec, Fraction]  # a . x <= b; int entries too


def _cone_rays(rows: list[list[int]], dim: int) -> list[tuple[int, ...]] | None:
    """Extreme rays of the cone {y : row . y >= 0 for all rows}, or None.

    Returns None when the rows have rank below ``dim``: the cone is not
    pointed, and ``_lineality_split`` splits it.  Double description
    (Fukuda & Prodon, "Double description method revisited", 1996): start
    from the simplicial cone of the first ``dim`` rows that are independent
    of the rows before them, whose rays are the primitive columns of the
    inverse, read off one ``_kernel.leading_basis`` pass; then insert the
    remaining rows one at a time.  Each ray gets an id when it is made and
    keeps its tight set, the processed rows it lies on, as an int bitmask;
    ``on[j]`` is the mask of the ids on processed row j, set from the zero
    and new rays when row j is inserted and then only by later new rays.
    A (+, -) pair is adjacent, and yields the new ray on the inserted
    hyperplane, iff its common tight set has at least ``dim - 2`` rows and
    no third ray lies on all of them: the AND of the live ids with ``on[j]``
    over the common rows, which stops once only the pair is left, is the
    pair alone.  The rays come out as the rays with row . y > 0, then those
    with row . y == 0, then the new ones, at every insertion.
    """
    chosen, pivcols, red = _kernel.leading_basis(rows, dim)
    if len(chosen) < dim:
        return None
    # Row k of the reduction is d_k e_{c_k} = comb_k . B, so column j of
    # B^-1 holds comb_k[j] / d_k at coordinate c_k; scale it by lcm(d).
    m = lcm(*(r[c] for c, r in zip(pivcols, red)))
    rays: list = []
    for j in range(dim):
        y = [0] * dim
        for c, r in zip(pivcols, red):
            y[c] = r[dim + j] * (m // r[c])
        rays.append(tuple(_row_primitive(y)))
    # Ray j lies on every chosen row but row j, so chosen row k holds
    # every ray but ray k: the tight sets and the row masks start equal.
    full = (1 << dim) - 1
    tight: list = [full ^ (1 << j) for j in range(dim)]
    on = tight[:]
    live = full
    order = list(range(dim))

    chosen_set = set(chosen)
    for idx, row in enumerate(rows):
        if idx in chosen_set:
            continue
        plus, zero, minus = [], [], []
        for k in order:
            v = sum(map(mul, row, rays[k]))
            if v > 0:
                plus.append((k, v))
            elif v < 0:
                minus.append((k, v))
            else:
                zero.append(k)
        # Ids from ``first`` on are this row's new rays; ``onrow`` collects
        # the ids on the row.  ``live`` takes the new ids only after the
        # pairs, so each AND chain sees the rays of before the insertion.
        bit, first, onrow = 1 << len(on), len(rays), 0
        for p, vp in plus if minus else ():
            tp, rp = tight[p], rays[p]
            for q, vq in minus:
                common = tp & tight[q]
                if common.bit_count() < dim - 2:
                    continue
                # The live rays on every common row, narrowed until only the pair is left.
                pair, rest, c = (1 << p) | (1 << q), live, common
                while c and rest != pair:
                    low = c & -c
                    rest &= on[low.bit_length() - 1]
                    c ^= low
                if rest != pair:
                    continue
                k = 1 << len(rays)
                rays.append(tuple(_row_primitive([vp * qx - vq * px for px, qx in zip(rp, rays[q])])))
                tight.append(common | bit)
                onrow |= k
                while common:
                    low = common & -common
                    on[low.bit_length() - 1] |= k
                    common ^= low
        for k in zero:
            tight[k] |= bit
            onrow |= 1 << k
        for q, _ in minus:
            live ^= 1 << q
            rays[q] = tight[q] = None
        live |= onrow
        on.append(onrow)
        order = [p for p, _ in plus] + zero + list(range(first, len(rays)))
    return [rays[k] for k in order]


def _lineality_split(rows: list[list[int]], dim: int):
    """``(lin, rays)`` with {y : row . y >= 0 for all rows} = span(lin) + cone(rays).

    A pointed cone has no lineality and its own extreme rays.  Otherwise
    ``lin`` is the canonical kernel basis of the rows and ``rays`` are
    the extreme rays of the pointed part that lies in the lex-first
    coordinate complement of ``lin``, written with zeros off it.
    """
    rays = _cone_rays(rows, dim)
    if rays is not None:
        return [], rays
    lin = _int_nullspace(rows, dim)
    comp = coordinate_complement(lin, dim)
    out = []
    for rz in _cone_rays([[row[j] for j in comp] for row in rows], len(comp)):
        y = [0] * dim
        for zi, j in zip(rz, comp):
            y[j] = zi
        out.append(tuple(y))
    return lin, out


def vertex_rows(ineqs: list[Ineq], dim: int) -> list[tuple[list[int], int]]:
    """Each vertex of {x : a . x <= b} as its ``_scale_to_int`` row ``(x, t)``.

    [] when the system is empty; raises if it is unbounded.  The rows
    come straight off the primitive rays ``(t, *x)`` with ``t > 0``, so
    ``x / t`` is the vertex in lowest terms; sorted by the vertices.
    """
    # Homogenised rows (b, -a) in integers: scale (b, a), then negate ints.
    crows = []
    for a, b in ineqs:
        row, _ = _scale_to_int((b, *a))
        crows.append(row[:1] + [-x for x in row[1:]])
    crows.append([1] + [0] * dim)
    lin, rays = _lineality_split(crows, dim + 1)
    # The last row keeps t = r[0] >= 0 on every ray, and t == 0 on the
    # lineality; x is in the set iff (1, x) is in the cone.
    if not any(r[0] for r in rays):
        return []
    if lin:
        raise UnboundedPolyhedron("feasible set contains a line")
    if not all(r[0] for r in rays):
        raise UnboundedPolyhedron("recession ray found during conversion")
    # Distinct primitive rays are distinct vertices; sort them on integer
    # numerators over one common denominator.
    m = lcm(*(r[0] for r in rays))
    rays.sort(key=lambda r: [x * (m // r[0]) for x in r[1:]])
    return [(list(r[1:]), r[0]) for r in rays]


def polytope_vertices(ineqs: list[Ineq], dim: int) -> list[Vec]:
    """All vertices of {x : a . x <= b}, [] when it is empty; raises if it is unbounded."""
    return [tuple(Fraction(x, t) for x in xs) for xs, t in vertex_rows(ineqs, dim)]


def polytope_facets(points: list[Vec], dim: int) -> list[Ineq]:
    """Canonical irredundant H-representation of conv(points), in integers.

    Lower-dimensional hulls yield implicit equalities, emitted as pairs of
    opposite inequalities.  Each inequality c . x <= c0 is returned as it
    is built, the primitive integer row ``(c, c0)``; the rows are sorted.
    """
    if not points:
        raise ValueError("cannot convert an empty vertex set")
    grows = int_rows([(1, *p) for p in points])
    # Polar cone: lineality y (gen . y = 0) gives implicit equalities.
    lin, rays = _lineality_split(grows, dim + 1)
    out = set()
    for y in lin:
        out.add((*y[1:], -y[0]))
        out.add((*(-x for x in y[1:]), y[0]))
    for y in rays:
        if any(y[1:]):
            out.add((*(-x for x in y[1:]), y[0]))
    return [(r[:-1], r[-1]) for r in sorted(out)]
