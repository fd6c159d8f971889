"""Exception hierarchy shared by all modules.

Mathematical failures carry exact witnesses so callers (and the CLI) can
report machine-readable diagnostics instead of bare messages.
"""


class MsnError(Exception):
    """Base class for all library errors."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class DimensionMismatch(MsnError):
    pass


class ShapeMismatch(MsnError):
    pass


class LengthMismatch(MsnError):
    pass


class BadLevel(MsnError):
    pass


class BadLength(MsnError):
    pass


class ArityMismatch(MsnError):
    pass


class Infeasible(MsnError):
    pass


class Unbounded(MsnError):
    pass


class UnboundedPolyhedron(MsnError):
    pass


class EpsNonPositive(MsnError):
    pass


class NotSeparated(MsnError):
    pass


class EmptyEmbeddingSet(MsnError):
    pass


class UndefinedPoint(MsnError):
    pass


class MultiLevelInput(MsnError):
    pass


class PairNotInCertificates(MsnError):
    pass


class CatalogNotSeparated(MsnError):
    pass


class NotAnEmbedding(MsnError):
    """Raised when a map fails an exact embedding check.

    ``witness`` records the violated level and the vector (or facet) at
    which the distortion bound fails.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}

    def payload(self) -> dict:
        from msn.io import witness_to_doc  # msn.io imports this module

        out = super().payload()
        out["witness"] = witness_to_doc(self.witness)
        return out


class NotAnNEmbedding(NotAnEmbedding):
    pass
