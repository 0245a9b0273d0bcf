"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside the domain an operation supports."""


class SampleShapeError(ValueError):
    """A sample vector has the wrong length for the grid it targets."""


class BlowUpError(RuntimeError):
    """The evolved wavefunction left the representable range: ``index`` is
    its first non-finite sample, ``time`` when it appeared, and ``times``
    and ``energies`` the log of the steps before, when there is one."""

    def __init__(self, time: float, index: int, times=None, energies=None):
        self.time = time
        self.index = index
        self.times = times
        self.energies = energies
        super().__init__(
            f"non-finite wavefunction sample at index {index}, t = {time:.6g}"
        )
