"""Exception types shared across the package."""


class Ferrers3DError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(Ferrers3DError):
    """A bad argument to a public function: empty data, a value of the wrong
    type (a bool or a float is not an int) or out of range, or a bad JSON
    shape.  Nothing is coerced, and a bad argument raises this or a subclass
    and nothing else; a parameter typed ``Diagram`` given something else is
    outside that contract and fails as Python does."""


class NotFerrers(InvalidInput):
    """Diagram data that violates the downward-closure conditions; the
    message names the offending coordinates."""


class NotInDiagram(InvalidInput):
    """A reference point argument does not belong to the diagram."""


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
