"""Exception hierarchy shared by all modules."""


class CartanLabError(Exception):
    """Base class for all library errors."""


class DomainError(CartanLabError):
    """Point too close to (or outside) a chart's domain box."""


class NonFiniteError(CartanLabError):
    """A map or trajectory produced non-finite values."""


class SingularMetricError(CartanLabError):
    """Metric matrix is not invertible at the requested point."""


class CompositionError(CartanLabError):
    """Arrows are not composable (source/target mismatch)."""


class ToleranceError(CartanLabError):
    """A verticality or consistency precheck failed beyond tolerance."""


class NotABisectionError(CartanLabError):
    """Callable is not a local bisection (not a section of the source map,
    or its target map is singular)."""


class BaseMismatchError(CartanLabError):
    """Operands live over different base points."""


class SingularError(CartanLabError):
    """A determinant fell below the singularity threshold."""


class SamplingError(CartanLabError):
    """Could not draw admissible samples from the configured box."""


class EscapeError(CartanLabError):
    """An integrated trajectory left the chart's domain box."""


class FrameError(CartanLabError):
    """Local frame of the source-fibre kernel degenerated."""


class FlatnessError(CartanLabError):
    """Holonomy detected where a flat connection was required."""


class TransitivityError(CartanLabError):
    """Model is not transitive on the sampled chart box."""


class SliceError(CartanLabError):
    """Coset normalization against the structure-group slice failed."""


class MetricError(CartanLabError):
    """Metric data is inconsistent with the requested construction."""


class ConfigError(CartanLabError):
    """Experiment or model configuration is invalid."""
