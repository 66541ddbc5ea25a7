"""Exception and warning types shared across the package."""


class PolewaveError(Exception):
    """Base class for every error raised by this package."""


class SpecError(PolewaveError, ValueError):
    """A potential or run configuration failed validation."""


class GridError(PolewaveError, ValueError):
    """A radial grid is unusable (bad step, bad extent, misaligned cutoff)."""


class StepSizeError(GridError):
    """The step size is too coarse for the requested momentum.

    Raised when |k| h exceeds the stability budget of the fourth-order
    recurrence, so results would be dominated by phase error.
    """


class NoBoundStateError(PolewaveError):
    """A bound state was requested but the potential supports none."""


class NumericalError(PolewaveError, RuntimeError):
    """An iteration failed to converge or produced non-finite values."""


class ConditioningWarning(UserWarning):
    """The computation is well defined but badly conditioned.

    Emitted, for instance, when a momentum with Im k < 0 lets rounding
    grow by exp(2 |Im k| r_c) beyond 1e6 inside the cutoff node r_c.
    """


class ExtrapolationWarning(UserWarning):
    """A pole extrapolation is being used outside its comfort zone.

    Emitted when the target energy is far from the sample window relative
    to the window's own span, so the polynomial model is unconstrained.
    """
