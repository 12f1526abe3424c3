"""Exception types shared across the package, and its one reader of
integers in files and options."""


def base10_int(text: str) -> int:
    """The integer that text spells as an optional sign and ASCII digits.
    ValueError for anything else, such as "1_0", " 1" or non-ASCII
    digits, which int() alone would read.  Complex files, manifests,
    contract --edge and every integer option of the command line read
    their integers with it."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError("not a base-10 integer: %r" % text)
    return int(text)  # refuses a second sign


class VolrigError(Exception):
    """Base class for all package-specific errors."""


class BadParameters(VolrigError):
    """An argument is outside the range an operation supports."""


class InvalidFace(VolrigError):
    """A face has repeated, non-integer, or non-positive vertex labels."""


class VertexOutOfRange(VolrigError):
    """A vertex label exceeds the declared number of vertices."""


class MixedDimension(VolrigError):
    """Facets (or complexes being combined) do not share one cardinality."""


class EmptyFacetList(VolrigError):
    """A complex must carry at least one facet."""


class KOutOfRange(VolrigError):
    """Requested face dimension does not occur in the complex."""


class ApexCollision(VolrigError):
    """Cone apex label collides with an existing vertex."""


class NotAnEdge(VolrigError):
    """The vertex pair is not an edge of the complex."""


class ContractionAnnihilates(VolrigError):
    """Contracting the edge would leave no facets at all."""


class FaceTooLarge(VolrigError):
    """Query face has more vertices than a facet."""


class DimensionMismatch(VolrigError):
    """Matrix or vector shapes are incompatible."""


class NotInvertible(VolrigError):
    """Attempted to invert a zero (or non-unit) field element."""


class MissingVertexCoordinates(VolrigError):
    """A placement does not cover every vertex it is asked about."""


class SingularBasis(VolrigError):
    """Could not sample a nonsingular generic basis."""


class SizeExceedsDimension(VolrigError):
    """Compound coordinates are only defined up to the facet cardinality."""


class GenericityFailure(VolrigError):
    """Independent random trials disagreed on a generically constant value."""


class InstanceTooLarge(VolrigError):
    """An instance exceeds a size cap: linalg.check_dense_size refuses
    it, and the comment on linalg.MAX_DENSE_ENTRIES lists what it
    guards."""


class NotSparse(VolrigError):
    """Completion requires a sparse starting complex."""


class ChainOutsideComplex(VolrigError):
    """A chain assigns a coefficient to a face the complex lacks."""


class FacetNotPresent(VolrigError):
    """The named facet is not in the complex."""


class ParseError(VolrigError):
    """Malformed complex file.  Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DatasetError(VolrigError):
    """A dataset directory fails its manifest (counts or checksums)."""
