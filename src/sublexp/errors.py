"""Semantic exception hierarchy.

Public functions never raise bare ValueError/RuntimeError; callers (in
particular the CLI) map these classes onto exit codes.
"""

from __future__ import annotations


class SublexpError(Exception):
    """Base class for all package errors."""


class ValidationError(SublexpError, ValueError):
    """Inputs violate a documented contract (domain, shape, invariant)."""


class GuardError(ValidationError):
    """A brute-force oracle was asked to run outside its guarded domain."""


class StateCapError(SublexpError):
    """The dynamic program exceeded the configured reachable-state cap.

    ``step`` is the 1-based draw (of ``steps``) whose layer crossed the cap,
    and ``layer_sizes`` the state count of every layer built up to and
    including it, so ``sum(layer_sizes) == count``.  Dense lattice layers
    are refused before any is built: ``step`` is None, ``count`` is their
    offsets, not the graph states a ``state_count`` reports, and
    ``layer_sizes`` holds every layer the sum would need.
    """

    def __init__(self, count: int, cap: int, *, step: int | None = None,
                 steps: int | None = None, layer_sizes: tuple[int, ...] = ()) -> None:
        what = "reachable state count" if step is not None else "dense lattice offset count"
        where = f" at draw {step} of {steps}" if step is not None else ""
        super().__init__(f"{what} {count} exceeds cap {cap}{where}")
        self.count = count
        self.cap = cap
        self.step = step
        self.steps = steps
        self.layer_sizes = layer_sizes


class PDENumericsError(SublexpError):
    """Non-finite values appeared during time stepping."""
