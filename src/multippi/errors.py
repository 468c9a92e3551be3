"""Exception types shared across the package."""


class MultippiError(Exception):
    """Base class for all multippi errors."""

    dataset: int | None = None      # set by ``at``

    def at(self, dataset: int) -> "MultippiError":
        """This error, naming the dataset of a stack that a check made before any fit failed on."""
        self.dataset = dataset
        return self


class SchemaError(MultippiError):
    """A required column binding is missing from the input file."""


class CauseMapError(MultippiError):
    """A fine-grained cause label is not in the cause map."""


class SplitError(MultippiError):
    """A labeled/unlabeled split cannot be constructed as requested."""


class AlignmentError(MultippiError):
    """External predictions reference record ids absent from the dataset."""


class PredictionFormatError(MultippiError):
    """An external prediction file is malformed."""


class ParameterError(MultippiError):
    """A hyperparameter or option is out of range."""


class ShapeError(MultippiError):
    """Dimensions, class counts, or labels are inconsistent."""


class SeparationError(MultippiError):
    """Complete separation: coefficients diverge while the loss still falls."""


class DegenerateModelError(MultippiError):
    """Training data cannot identify a model (e.g. a single class)."""


class NumericError(MultippiError):
    """A non-finite value appeared where a finite one is required."""
