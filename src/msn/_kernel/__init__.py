"""Exact pivoting kernels: integer row echelon and the condensed integer simplex.

``BACKEND`` names the implementation; there is one, in ``pure``.  The
private ``_row_primitive`` (divide an integer row by its content) is
shared with the double description in ``msn.polytope``.
"""

from msn._kernel.pure import OPTIMAL, UNBOUNDED, _row_primitive, bland_min, echelon_int, pivot

BACKEND = "pure"

__all__ = ["BACKEND", "OPTIMAL", "UNBOUNDED", "bland_min", "echelon_int", "pivot"]
