"""Exception types shared across the package."""


class Ferrers3DError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(Ferrers3DError):
    """Malformed input (empty data, bad coordinates, bad JSON shape)."""


class NotFerrers(Ferrers3DError):
    """The data violates the downward-closure conditions; the message names
    the offending coordinates."""


class NotInDiagram(Ferrers3DError):
    """A reference point does not belong to the diagram."""


class NotNormal(Ferrers3DError):
    """A link was requested at a phantom point."""


class LinkMismatch(Ferrers3DError):
    """A link state failed validation: an internal engine error."""


class UnsupportedDiagram(Ferrers3DError):
    """The diagram lacks the property the requested computation needs."""


class HypothesisFailed(Ferrers3DError):
    """A closed-form combination rule was called outside its hypotheses."""


class TooLarge(Ferrers3DError):
    """An enumeration limit would be exceeded."""


class InsufficientDegree(Ferrers3DError):
    """A Hilbert-function table was too short to certify stabilization."""
