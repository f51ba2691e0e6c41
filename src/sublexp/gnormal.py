"""The G-normal distribution N(0, [sigma_lo^2, sigma_hi^2]), two ways.

``solve_gheat`` integrates the fully nonlinear heat equation

    du/dt = (1/2) * G(d2u/dx2),    u(0, x) = phi(x),
    G(a)  = sigma_hi2 * a    for a >= 0,
            sigma_lo2 * a    for a < 0,

with a monotone explicit finite-difference scheme and returns u(t, 0),
which is the upper expectation of ``phi`` under the G-normal law.
``solve_gheats`` does this for several functionals at once: their initial
data are the rows of one array, stepped by one time loop that works in
place on scratch arrays allocated once.  Every element goes through the
one-row scheme's float operations in the same order (stencil, then the
G coefficient, then ``dt*0.5``, then the add; no constant folded), so a
row's value is bit-identical to a solve of that row alone.
``solve_gheat`` is the one-row form.

The G coefficient is chosen by the max rule: ``G(d2)`` is computed as
``max(sigma_lo2 * d2, sigma_hi2 * d2)``, with ``sigma_hi2 * d2`` taken as
``d2`` itself when ``sigma_hi2`` is 1.0 (the default), which is the same
float for every ``d2``.  For finite ``d2`` the max is the same float as
``sigma_hi2 * d2`` where ``d2 >= 0`` and ``sigma_lo2 * d2`` otherwise:
rounding is monotone and ``0 <= sigma_lo2 <= sigma_hi2``, so the product
with ``sigma_hi2`` is the larger one exactly when ``d2 >= 0``
(the two can only tie, never cross), and both products carry the sign
of ``d2``, zeros included.  The one divergence is ``d2 = +inf`` with
``sigma_lo2 = 0``: ``0 * inf`` is NaN and ``max`` propagates it, where
the masked choice gave ``+inf``.  Both are non-finite, and no float
operation turns inf or NaN back into a finite value, so the same nodes go
non-finite at the same step and ``PDENumericsError`` names the same rows
at the same step.

``peng_oracle`` evaluates the same quantity through the central limit
recursion: n i.i.d. coordinates with the two-point extremal ambiguity set
{+-sigma w.p. 1/2 : sigma in {sigma_lo, sigma_hi}} have certain mean zero and
second moment interval [sigma_lo2, sigma_hi2]; the exact dynamic program for
``phi(S_n / sqrt(n))`` converges to the PDE value as n grows.

``gnormal_reference`` is a third, quadrature-based cross-check valid only
for test functions that are convex or concave on the whole grid domain: the
extremal law is then the classical Gaussian at the appropriate endpoint of
the variance interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .errors import PDENumericsError, PDEStabilityError, ValidationError
from .laws import ambiguity, two_point_law

#: Extra half-width beyond the diffusion range so that catalog test
#: functions keep their kinks well inside the domain.
SUPPORT_MARGIN = 1.0

_NAN_CHECK_EVERY = 200


@dataclass(frozen=True)
class GParams:
    """Variance interval ``[sigma_lo2, sigma_hi2]`` of the G-normal law."""

    sigma_lo2: float
    sigma_hi2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.sigma_lo2 <= self.sigma_hi2 < math.inf):
            raise ValidationError("need 0 <= sigma_lo2 <= sigma_hi2 < inf")


def G(alpha: float, p: GParams) -> float:
    """``sigma_hi2 * a^+ - sigma_lo2 * a^-`` with ``a^- = max(-a, 0)``.

    Positively homogeneous and consistent with G(1) = upper variance,
    G(-1) = -(lower variance).
    """
    return p.sigma_hi2 * alpha if alpha >= 0.0 else p.sigma_lo2 * alpha


@dataclass(frozen=True)
class PDEGrid:
    """Uniform grid on ``[-half_width, half_width]`` with explicit step dt."""

    half_width: float
    nx: int
    dt: float

    def __post_init__(self) -> None:
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValidationError("half_width must be positive and finite")
        if self.nx < 3:
            raise ValidationError("need at least 3 spatial points")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.nx - 1)

    def refined(self) -> "PDEGrid":
        """Halve dx and quarter dt."""
        return PDEGrid(self.half_width, 2 * self.nx - 1, self.dt / 4.0)

    def check(self, p: GParams) -> None:
        if self.dt * p.sigma_hi2 / self.dx**2 > 0.5 + 1e-12:
            raise PDEStabilityError(
                f"dt*sigma_hi2/dx^2 = {self.dt * p.sigma_hi2 / self.dx**2:.6g} > 0.5"
            )
        needed = 6.0 * math.sqrt(p.sigma_hi2) + SUPPORT_MARGIN
        if self.half_width < needed - 1e-12:
            raise ValidationError(
                f"half_width {self.half_width} too small; need >= {needed:.3g}"
            )


def default_grid(p: GParams, half_width: float = 8.0, nx: int = 801,
                 safety: float = 0.9) -> PDEGrid:
    dx = 2.0 * half_width / (nx - 1)
    if p.sigma_hi2 > 0.0:
        dt = safety * dx**2 / (2.0 * p.sigma_hi2)
    else:
        dt = safety * dx**2 / 2.0
    return PDEGrid(half_width, nx, dt)


def _nonfinite(fs: Sequence[engine.Functional], u: np.ndarray) -> str:
    """Names of the functionals whose row of ``u`` has a non-finite value."""
    return ", ".join(f.name for f, ok in zip(fs, np.isfinite(u).all(axis=1)) if not ok)


def solve_gheats(fs: Sequence[engine.Functional], p: GParams, grid: PDEGrid,
                 t: float = 1.0) -> tuple[float, ...]:
    """Upper G-normal expectation of each of ``fs`` by explicit time stepping to ``t``.

    Row k of one (K, nx) array holds ``fs[k]`` on the grid, and one time loop
    steps every row.  Each update is ``u_i += dt * 0.5 * G(second difference
    / dx^2)``; the stability bound makes the update monotone in every stencil
    value.  The boundary nodes use a zero second difference (linear
    extrapolation), so they stay at their initial values.  The step count is
    chosen so the integration lands exactly on ``t``.

    Every step works in place on scratch arrays allocated once.  Each element
    goes through the operations of the one-row scheme in the same order:
    ``d2 = ((u[i+1] - 2.0*u[i]) + u[i-1]) * inv_dx2``, then
    ``max(sigma_lo2 * d2, sigma_hi2 * d2)``, times ``(dt*0.5)``, added to
    ``u[i]``.  When ``sigma_hi2`` is 1.0 (the default) the product
    ``sigma_hi2 * d2`` is ``d2`` itself, bit for bit (-0.0, infinities and
    NaN included), so that multiply is skipped.  For finite ``d2`` the max
    is ``sigma_hi2 * d2`` where ``d2 >= 0`` and ``sigma_lo2 * d2``
    otherwise, bit for bit, because
    rounding is monotone and ``0 <= sigma_lo2 <= sigma_hi2``.  Only at
    ``d2 = +inf`` with ``sigma_lo2 = 0`` does it give NaN where that choice
    gives inf; a non-finite value stays non-finite, so the same rows raise
    ``PDENumericsError`` at the same step.  Folding the constants together
    or reordering the stencil would change the rounding.

    The stencil runs over the rows laid end to end as one flat array, since
    numpy copies strided 2-D operands into temporaries.  That also updates
    the end nodes of the rows, from a stencil that spans two rows, so each
    step writes columns 0 and ``nx - 1`` back from a saved copy, through
    one strided view.  An interior node's stencil reads only its own row,
    so a row's value does not depend on the other rows of its batch.
    """
    if not fs:
        raise ValidationError("solve_gheats needs at least one functional")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError("time horizon must be positive and finite")
    grid.check(p)
    x = np.linspace(-grid.half_width, grid.half_width, grid.nx)
    u = np.empty((len(fs), grid.nx))
    for row, f in zip(u, fs):
        row[:] = [f.phi(float(xi)) for xi in x]
    if not np.isfinite(u).all():
        raise PDENumericsError(f"initial data of {_nonfinite(fs, u)} is not finite on the grid")

    n_steps = max(1, math.ceil(t / grid.dt - 1e-12))
    dt = t / n_steps
    inv_dx2 = 1.0 / grid.dx**2
    half_dt = dt * 0.5
    flat = u.reshape(-1)
    left, mid, right = flat[:-2], flat[1:-1], flat[2:]
    ends = u[:, ::grid.nx - 1]  # columns 0 and nx - 1, as nx >= 3
    end_values = ends.copy()
    d2 = np.empty_like(mid)
    scratch = np.empty_like(mid)  # sigma_lo2 * d2 when sigma_hi2 is 1, else sigma_hi2 * d2
    mask = np.empty(mid.shape, dtype=bool)
    unit_hi = p.sigma_hi2 == 1.0
    for step in range(n_steps):
        np.multiply(mid, 2.0, out=d2)
        np.subtract(right, d2, out=d2)
        np.add(d2, left, out=d2)
        np.multiply(d2, inv_dx2, out=d2)
        if unit_hi:
            np.multiply(d2, p.sigma_lo2, out=scratch)
            np.maximum(scratch, d2, out=d2)
        else:
            np.multiply(d2, p.sigma_hi2, out=scratch)
            np.multiply(d2, p.sigma_lo2, out=d2)
            np.maximum(d2, scratch, out=d2)
        np.multiply(d2, half_dt, out=d2)
        np.add(mid, d2, out=mid)
        np.copyto(ends, end_values)
        if step % _NAN_CHECK_EVERY == 0 and not np.isfinite(mid, out=mask).all():
            raise PDENumericsError(
                f"non-finite values in {_nonfinite(fs, u)} after step {step}")
    if not np.isfinite(u).all():
        raise PDENumericsError(f"non-finite values in {_nonfinite(fs, u)} at final time")
    return tuple(float(np.interp(0.0, x, row)) for row in u)


def solve_gheat(f: engine.Functional, p: GParams, grid: PDEGrid,
                t: float = 1.0) -> float:
    """Upper G-normal expectation of ``f``: ``solve_gheats`` on one row."""
    return solve_gheats((f,), p, grid, t)[0]


def peng_oracles(fs: Sequence[engine.Functional], p: GParams, ns: Sequence[int],
                 *, state_cap: int = engine.DEFAULT_STATE_CAP) -> tuple[tuple[float, ...], ...]:
    """Upper expectation of each of ``fs`` via the n-step two-point CLT recursion, per n of ``ns``.

    The recursion's graph is compiled once, at the largest n, and every
    (n, functional) pair is an upper column of one backward sweep over it,
    which carries no lower column.
    """
    if any(n < 1 for n in ns):
        raise ValidationError("peng_oracle needs n >= 1")
    if not ns:
        return ()
    sigmas = sorted({math.sqrt(p.sigma_lo2), math.sqrt(p.sigma_hi2)})
    set_ = ambiguity(two_point_law(s) for s in sigmas)
    graph = engine.compile_sum(engine.SequenceModel.iid(set_, max(ns)), state_cap=state_cap)
    uppers = iter(engine.sweep_columns(
        graph, [(engine.scaled(f, 1.0 / math.sqrt(n)), n) for n in ns for f in fs], ())[0])
    return tuple(tuple(next(uppers) for _ in fs) for _ in ns)


def peng_oracle(f: engine.Functional, p: GParams, n: int,
                *, state_cap: int = engine.DEFAULT_STATE_CAP) -> float:
    """Upper expectation of ``f`` via the n-step two-point CLT recursion."""
    return peng_oracles((f,), p, (n,), state_cap=state_cap)[0][0]


def _shape_on_grid(f: engine.Functional, half_width: float,
                   nx: int = 401) -> str:
    """Classify ``f`` as 'convex', 'concave', or 'neither' on the domain."""
    x = np.linspace(-half_width, half_width, nx)
    y = np.array([f.phi(float(xi)) for xi in x], dtype=float)
    d2 = y[2:] - 2.0 * y[1:-1] + y[:-2]
    tol = 1e-9 * max(1.0, float(np.abs(y).max()))
    convex = bool((d2 >= -tol).all())
    concave = bool((d2 <= tol).all())
    if convex:
        return "convex"
    if concave:
        return "concave"
    return "neither"


def gnormal_reference(f: engine.Functional, p: GParams, *,
                      half_width: float = 8.0, nodes: int = 96) -> float:
    """Gauss-Hermite value of the extremal classical Gaussian.

    For convex ``f`` the upper G-normal expectation is the classical
    expectation at the upper variance; for concave ``f``, at the lower
    variance.  Everything else is rejected.  Callers must treat the result
    as a hypothesis to validate against ``solve_gheat``, not as ground
    truth.
    """
    if nodes < 64:
        raise ValidationError("use at least 64 quadrature nodes")
    shape = _shape_on_grid(f, half_width)
    if shape == "neither":
        raise ValidationError(
            f"{f.name} is neither convex nor concave on [-{half_width}, {half_width}]"
        )
    var = p.sigma_hi2 if shape == "convex" else p.sigma_lo2
    if var == 0.0:
        return f.phi(0.0)
    ts, ws = np.polynomial.hermite.hermgauss(nodes)
    scale = math.sqrt(2.0 * var)
    vals = np.array([f.phi(float(scale * t)) for t in ts], dtype=float)
    return float(np.dot(ws, vals) / math.sqrt(math.pi))
