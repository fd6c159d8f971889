"""Exact-arithmetic workbench for finite-dimensional multi-seminormed spaces.

Seminorm calculus, embedding certificates, amalgamation pushouts, finite
tower stages with quantitative error certificates, and colouring
experiments, all over exact rationals.
"""

kernel_backend = "pure"  # the one kernel: ``msn._kernel``, in pure Python
__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
