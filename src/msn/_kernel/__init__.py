"""Exact pivoting kernels: integer row echelon and the condensed integer simplex.

``BACKEND`` names the implementation; there is one, in ``pure``.
"""

from msn._kernel.pure import OPTIMAL, UNBOUNDED, bland_min, echelon_int, pivot

BACKEND = "pure"

__all__ = ["BACKEND", "OPTIMAL", "UNBOUNDED", "bland_min", "echelon_int", "pivot"]
