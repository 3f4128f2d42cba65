"""The exceptions the command line maps to exit codes, in one module.

`waves`, `spectral` and `evolution` raise them and re-export each one as
the same class object, so `from snoidal.spectral import EigenSolveError`
and `from snoidal.errors import EigenSolveError` name one class.  `cli`
imports them from here, so it need not load a layer it does not run.

Exit codes: OutOfRangeError and ModulusBoundaryError exit 2 (invalid
parameters), SingularSystemError, IndexMismatchError and EigenSolveError
exit 3 (internal consistency violation), BlowUpError exits 4.
"""

from __future__ import annotations

__all__ = [
    "OutOfRangeError",
    "ModulusBoundaryError",
    "EigenSolveError",
    "SingularSystemError",
    "IndexMismatchError",
    "BlowUpError",
]


class OutOfRangeError(ValueError):
    """No L-periodic snoidal wave exists for the requested (L, c)."""


class ModulusBoundaryError(RuntimeError):
    """Root bracketing for the modulus hit the (0, 1) boundary guard."""


class EigenSolveError(RuntimeError):
    """Dense symmetric eigensolver failed to converge (assembly bug)."""


class SingularSystemError(RuntimeError):
    """Constraint solve is ill-posed: the kernel is not one-dimensional, or a solve fails."""


class IndexMismatchError(RuntimeError):
    """Index-formula prediction disagrees with directly computed counts."""


class BlowUpError(RuntimeError):
    """Sup-norm ceiling exceeded; carries the blow-up time and the batch row."""

    def __init__(self, message: str, time: float, member: int = 0):
        super().__init__(message)
        self.time = time
        self.member = member

    def __reduce__(self):
        # `args` holds only the message, so the default reduction would call
        # BlowUpError(message) and miss `time`.
        return type(self), (*self.args, self.time, self.member), self.__dict__
