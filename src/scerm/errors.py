"""Exception types shared across the package, and the lambda check that
every lambda entry point calls."""

import math


class ContractViolation(ValueError):
    """An argument violates a documented precondition (dimensions, signs, ranges)."""


class DomainError(ValueError):
    """Non-finite or otherwise out-of-domain numerical input."""


class NonConvergenceError(RuntimeError):
    """Solver failed to reach the requested decrement tolerance.

    Carries the decrement trace accumulated before the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = tuple(trace) if trace is not None else ()


class ConfigError(ValueError):
    """Configuration document failed schema validation.

    ``errors`` is a list of ``(path, message)`` pairs where ``path`` is a
    dotted location inside the document.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [f"{path}: {msg}" for path, msg in self.errors]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


def check_lambda(lam, where: str, *, zero_ok: bool = False) -> None:
    """Raise ContractViolation unless lam is finite and > 0 (>= 0 with
    zero_ok). A NaN fails every comparison, so ``lam <= 0`` alone lets it
    through."""
    if not (math.isfinite(lam) and (lam >= 0.0 if zero_ok else lam > 0.0)):
        raise ContractViolation(
            f"{where} requires a finite lambda {'>= 0' if zero_ok else '> 0'}, got {lam!r}")
