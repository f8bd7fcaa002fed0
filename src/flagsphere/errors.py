"""Exception hierarchy shared by all flagsphere modules.

Domain errors map to CLI exit code 1, parse/IO errors to exit code 2.
"""


class FlagsphereError(Exception):
    """Base class for all domain errors raised by this package."""


# -- complex construction / queries ------------------------------------------

class EmptyInput(FlagsphereError):
    pass


class NonPure(FlagsphereError):
    pass


class DominatedFacet(FlagsphereError):
    pass


class UnknownVertex(FlagsphereError):
    pass


class RepeatedVertex(FlagsphereError):
    pass


class NotAnEdge(FlagsphereError):
    pass


class WrongDimension(FlagsphereError):
    pass


# -- cyclic polytope ----------------------------------------------------------

class TooSmall(FlagsphereError):
    pass


# -- flagification ------------------------------------------------------------

class NotTriangleFree(FlagsphereError):
    pass


class TooFewPolytopeVertices(FlagsphereError):
    pass


class InvariantViolation(FlagsphereError):
    pass


# -- solvers ------------------------------------------------------------------

class SolverTimeout(FlagsphereError):
    """Raised when an exact solver exceeds its explored-node budget."""


class BadDimension(FlagsphereError):
    pass


# -- coloring -----------------------------------------------------------------

class NotFlag(FlagsphereError):
    pass


class NotManifold(FlagsphereError):
    pass


class PlanarStrategyFailure(FlagsphereError):
    pass


class NotPlanar(FlagsphereError):
    pass


class SubgraphMissing(FlagsphereError):
    pass


class CertificationFailed(FlagsphereError):
    pass


# -- random clique complexes --------------------------------------------------

class InvalidAlpha(FlagsphereError):
    pass


class TooLarge(FlagsphereError):
    """Input whose sample would outgrow memory; refused before allocating."""


# -- file formats -------------------------------------------------------------

class ParseError(FlagsphereError):
    """Malformed input file (maps to CLI exit code 2)."""
