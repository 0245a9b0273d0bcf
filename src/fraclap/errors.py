"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside the domain an operation supports."""


class SampleShapeError(ValueError):
    """A sample vector has the wrong length for the grid it targets."""


class BlowUpError(RuntimeError):
    """The evolved wavefunction left the representable range.

    Attributes
    ----------
    time : float
        Simulation time at which the first non-finite sample appeared.
    index : int
        Index of the first non-finite sample.
    times, energies : array or None
        The energy log of the steps before the abort, when there is one.
    """

    def __init__(self, time: float, index: int, times=None, energies=None):
        self.time = time
        self.index = index
        self.times = times
        self.energies = energies
        super().__init__(
            f"non-finite wavefunction sample at index {index}, t = {time:.6g}"
        )
