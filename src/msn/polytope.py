"""Exact conversion between H- and V-representations of polytopes.

Polytopes are plain data: inequality lists ``a . x <= b`` and point
lists.  ``polytope_vertices`` enumerates the vertices of an inequality
system and ``polytope_facets`` the canonical irredundant facets of a
point hull.  Both run the double description method
(Fukuda & Prodon, "Double description method revisited", 1996) on a
homogenising cone: vertex enumeration inserts constraints incrementally
starting from a simplicial cone, and facet enumeration applies the same
ray machinery to the polar cone (lineality there turns into implicit
equalities, emitted as opposite inequality pairs).  The method works in
integers throughout: the start cone comes from two fraction-free
eliminations, each ray's tight set is an int bitmask extended by one bit
per inserted row, and ray pairs are tested for adjacency
combinatorially, by tight-set containment, with no rank computation.
``polytope_facets`` returns the primitive integer rows it builds, and
``polytope_vertices`` takes int and Fraction rows alike, so a facet
list goes back in with no conversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from msn import _kernel
from msn._kernel import _row_primitive
from msn.errors import UnboundedPolyhedron
from msn.linalg import Vec, _int_nullspace, _scale_to_int, coordinate_complement, int_rows
from msn.lp import lp_feasible

Ineq = tuple[Vec, Fraction]  # a . x <= b; int entries too


def _cone_rays(rows: list[list[int]], dim: int) -> list[tuple[int, ...]] | None:
    """Extreme rays of the cone {y : row . y >= 0 for all rows}, or None.

    Returns None when the rows have rank below ``dim`` (the cone is not
    pointed).  Double description (Fukuda & Prodon, "Double description
    method revisited", 1996): start from the simplicial cone of the
    lexicographically first ``dim`` independent rows, whose rays are the
    primitive columns of the inverse, then insert the remaining rows one
    at a time.  Each ray keeps its tight set, the processed rows it lies
    on, as an int bitmask.  A (+, -) pair is adjacent, and yields the new
    ray on the inserted hyperplane, iff its common tight set has at least
    ``dim - 2`` rows and lies in no third ray's tight set.
    """
    # The pivot columns of the transpose are the lex-first independent rows.
    rank, chosen, _ = _kernel.echelon_int([list(c) for c in zip(*rows)])
    if rank < dim:
        return None
    # [B | I] reduces to rows c_i * [e_i | row i of B^-1] with c_i > 0.
    aug = [list(rows[i]) + [int(j == k) for j in range(dim)] for k, i in enumerate(chosen)]
    _, _, red = _kernel.echelon_int(aug)
    m = lcm(*(r[i] for i, r in enumerate(red)))
    scale = [m // r[i] for i, r in enumerate(red)]
    rays = [tuple(_row_primitive([s * r[dim + j] for s, r in zip(scale, red)])) for j in range(dim)]
    # Ray j lies on every chosen row but row j.
    full = (1 << dim) - 1
    tight = [full ^ (1 << j) for j in range(dim)]

    chosen_set = set(chosen)
    bit = 1 << dim
    for idx in range(len(rows)):
        if idx in chosen_set:
            continue
        row = rows[idx]
        vals = [sum(a * x for a, x in zip(row, r)) for r in rays]
        plus = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[int] = []
        for p in plus:
            tp, rp, vp = tight[p], rays[p], vals[p]
            for q in minus:
                common = tp & tight[q]
                if common.bit_count() < dim - 2:
                    continue
                if any(t & common == common for k, t in enumerate(tight) if k != p and k != q):
                    continue
                vq = vals[q]
                new_rays.append(tuple(_row_primitive([vp * qx - vq * px for px, qx in zip(rp, rays[q])])))
                new_tight.append(common | bit)
        rays = [rays[k] for k in plus] + [rays[k] for k in zero] + new_rays
        tight = [tight[k] for k in plus] + [tight[k] | bit for k in zero] + new_tight
        bit <<= 1
    return rays


def polytope_vertices(ineqs: list[Ineq], dim: int) -> list[Vec]:
    """All vertices of {x : a . x <= b}; raises if the set is unbounded."""
    if dim == 0:
        return [()] if all(b >= 0 for _, b in ineqs) else []
    # Homogenised rows (b, -a) in integers: scale (b, a), then negate ints.
    crows = []
    for a, b in ineqs:
        row, _ = _scale_to_int((b, *a))
        crows.append(row[:1] + [-x for x in row[1:]])
    crows.append([1] + [0] * dim)
    rays = _cone_rays(crows, dim + 1)
    if rays is None:
        # The homogenising cone has lineality: the polytope is empty or
        # contains a line.  Decide exactly via feasibility.
        if lp_feasible(ineqs):
            raise UnboundedPolyhedron("feasible set contains a line")
        return []
    # The last row keeps t = r[0] >= 0 on every ray; t == 0 is a recession ray.
    if any(r[0] == 0 for r in rays):
        raise UnboundedPolyhedron("recession ray found during conversion")
    # Distinct primitive rays are distinct vertices; sort them on integer
    # numerators over one common denominator.
    m = lcm(*(r[0] for r in rays))
    rays.sort(key=lambda r: [x * (m // r[0]) for x in r[1:]])
    return [tuple(Fraction(x, r[0]) for x in r[1:]) for r in rays]


def polytope_facets(points: list[Vec], dim: int) -> list[Ineq]:
    """Canonical irredundant H-representation of conv(points), in integers.

    Lower-dimensional hulls yield implicit equalities, emitted as pairs of
    opposite inequalities.  Each inequality c . x <= c0 is returned as it
    is built, the primitive integer row ``(c, c0)``; the rows are sorted.
    """
    if not points:
        raise ValueError("cannot convert an empty vertex set")
    if dim == 0:
        return []
    D = dim + 1
    grows = int_rows([(1, *p) for p in points])
    lin = _int_nullspace(grows, D)  # y with gen . y = 0: implicit equalities
    out = set()
    for y in lin:
        out.add((*y[1:], -y[0]))
        out.add((*(-x for x in y[1:]), y[0]))
    comp = coordinate_complement(lin, D)
    # Constraint matrix of the polar cone restricted to the complement.
    sub = [[row[j] for j in comp] for row in grows]
    for rz in _cone_rays(sub, len(comp)):
        y = [0] * D
        for zi, j in zip(rz, comp):
            y[j] = zi
        if any(y[1:]):
            out.add((*(-x for x in y[1:]), y[0]))
    return [(r[:-1], r[-1]) for r in sorted(out)]
