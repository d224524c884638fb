"""Exception taxonomy shared across the toolkit.

The CLI maps these onto process exit codes: validation problems exit 1,
numerical failures exit 2, file/container problems exit 3.
"""

from __future__ import annotations


class RackitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(RackitError, ValueError):
    """Bad arguments, shapes, flags, or incompatible inputs."""


class NumericalError(RackitError, RuntimeError):
    """A factorization or solve could not proceed."""


class CholeskyError(NumericalError):
    """Cholesky hit a non-positive pivot. Carries the failing index."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(
            f"non-positive pivot at index {self.index}; matrix is not positive "
            "definite (increase dampening)"
        )

    def __reduce__(self):
        # The default rebuilds from the message; a worker process sends this
        # error back to its parent pickled.
        return CholeskyError, (self.index,)


class ContainerError(RackitError, ValueError):
    """Malformed or truncated on-disk artifact."""
