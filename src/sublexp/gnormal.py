"""The G-normal distribution N(0, [sigma_lo^2, sigma_hi^2]), two ways.

``solve_gheats`` integrates the fully nonlinear heat equation

    du/dt = (1/2) * G(d2u/dx2),    u(0, x) = phi(x),
    G(a)  = sigma_hi2 * a    for a >= 0,
            sigma_lo2 * a    for a < 0,

with a monotone explicit finite-difference scheme and returns u(t, 0),
which is the upper expectation of ``phi`` under the G-normal law, for
several functionals at once: their initial data are the columns of one
node-major array, stepped by one time loop that works in place on scratch
arrays allocated once and never writes the boundary nodes.  Every element
goes through the one-row scheme's float operations in the same order
(stencil, then the G coefficient, then ``dt*0.5``, then the add; no
constant folded), so a functional's value is bit-identical to a solve of
that functional alone.

A column retires from the loop once one step leaves its whole state
unchanged bit for bit: the int64 views of its state before and after the
step are equal.  That is tested on the steps that check for non-finite
values, after the check; for finite doubles, "equal as floats, with the
same sign bits" means exactly "equal bits".  The step map is autonomous
(dt is fixed) and reads only the column it writes, so a state one step
leaves unchanged stays unchanged at every later step: the column's value
at ``t`` is its value now.  The live columns are compacted into the front
of the same arrays, and the loop ends once no column is live.  Of the five
catalog functionals and their negations at nx = 1601 and variances
[0.5, 1], ``identity`` and its negation retire at step 200 and the other
eight never do.

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

``peng_oracles`` evaluates the same quantity through the central limit
recursion: n i.i.d. coordinates with the two-point extremal ambiguity set
{+-sigma w.p. 1/2 : sigma in {sigma_lo, sigma_hi}} have certain mean zero and
second moment interval [sigma_lo2, sigma_hi2]; the exact dynamic program for
``phi(S_n / sqrt(n))`` converges to the PDE value as n grows.

``gnormal_references`` is a third, quadrature-based cross-check valid only
for test functions that are convex or concave on the whole grid domain: the
extremal law is then the classical Gaussian at the appropriate endpoint of
the variance interval.  Any other functional gets NaN, except when the two
variances are equal, where the law is classical and every functional has a
quadrature value.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import engine
from ._frozen import frozen
from .errors import PDENumericsError, ValidationError
from .laws import ambiguity, two_point_law

#: Extra half-width beyond the diffusion range so that catalog test
#: functions keep their kinks well inside the domain.
SUPPORT_MARGIN = 1.0

_NAN_CHECK_EVERY = 200

#: ``PDEGrid.dt`` as a fraction of the explicit scheme's stability limit.
_CFL_SAFETY = 0.9


@frozen
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


def check_time(t: float) -> None:
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError("time horizon must be positive and finite")


@frozen
class PDEGrid:
    """Uniform grid of ``nx`` nodes on ``[-half_width, half_width]``.

    The time step is not stored: ``dt(sigma_hi2)`` derives it from dx and the
    upper variance, at ``_CFL_SAFETY`` of the explicit scheme's stability
    limit, so the scheme is monotone on every grid.
    """

    half_width: float = 8.0
    nx: int = 801

    def __post_init__(self) -> None:
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValidationError("half_width must be positive and finite")
        if self.nx < 3:
            raise ValidationError("need at least 3 spatial points")
        if not 0.0 < self.dx * self.dx < math.inf:  # a float ** raises where * gives inf
            raise ValidationError(f"half_width {self.half_width} and nx {self.nx} give a "
                                  "dx^2 that is not positive and finite")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.nx - 1)

    def dt(self, sigma_hi2: float) -> float:
        """``_CFL_SAFETY`` of the stability limit dx^2 / (2 sigma_hi2); inf where that overflows."""
        return _CFL_SAFETY * self.dx**2 / (2.0 * sigma_hi2 if sigma_hi2 > 0.0 else 2.0)

    def refined(self) -> "PDEGrid":
        """Halve dx, which quarters dt exactly."""
        return PDEGrid(self.half_width, 2 * self.nx - 1)

    def check(self, sigma_hi2: float) -> None:
        needed = 6.0 * math.sqrt(sigma_hi2) + SUPPORT_MARGIN
        if self.half_width < needed - 1e-12:
            raise ValidationError(
                f"half_width {self.half_width} too small; need >= {needed:.3g}"
            )


def _nonfinite(fs: Sequence[engine.Functional], u: np.ndarray) -> str:
    """Names of the functionals whose column of ``u`` has a non-finite value."""
    return ", ".join(f.name for f, ok in zip(fs, np.isfinite(u).all(axis=0)) if not ok)


def solve_gheats(fs: Sequence[engine.Functional], p: GParams, grid: PDEGrid,
                 t: float = 1.0) -> tuple[float, ...]:
    """Upper G-normal expectation of each of ``fs`` by explicit time stepping to ``t``.

    Column k of one (nx, K) array holds ``fs[k]`` on the grid, and one time
    loop steps every column.  Each update is ``u_i += dt * 0.5 * G(second
    difference / dx^2)``; the stability bound makes the update monotone in
    every stencil value.  The boundary nodes use a zero second difference
    (linear extrapolation), so they stay at their initial values.  The step
    count is chosen so the integration lands exactly on ``t``.

    Every step works in place on scratch arrays allocated once, a retirement
    too: it stages the live columns in the scratch array, which has room for
    K - 1 columns of the state, and copies them back to the front of the
    state array.
    A column retires on a check step that leaves it unchanged bit for bit,
    as the module docstring says; its value is then ``np.interp(0.0, x,
    column)`` of that state, the value it would have at ``t``.  Each element
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
    gives inf; a non-finite value stays non-finite, so the same functionals
    raise ``PDENumericsError`` at the same step.  Folding the constants together
    or reordering the stencil would change the rounding.

    The array is node-major, so its flat view holds node i of every live
    column in one contiguous run of K values.  The stencil then runs over the
    interior nodes ``flat[K:-K]`` with neighbours ``flat[:-2K]`` and
    ``flat[2K:]``, all contiguous, and never writes the boundary nodes.
    The ufuncs take ``out`` positionally and their constants as 0-d arrays
    built once, which skips per-call keyword parsing and scalar conversion;
    ``np.maximum`` keeps ``out=``, as numpy 2.4 deprecates a positional
    ``out`` there.
    """
    if not fs:
        raise ValidationError("solve_gheats needs at least one functional")
    check_time(t)
    grid.check(p.sigma_hi2)
    nx, k = grid.nx, len(fs)
    x = np.linspace(-grid.half_width, grid.half_width, nx)
    u = np.empty((nx, k))
    for col, f in enumerate(fs):
        u[:, col] = [f.phi(float(xi)) for xi in x]
    if not np.isfinite(u).all():
        raise PDENumericsError(f"initial data of {_nonfinite(fs, u)} is not finite on the grid")

    n_steps = max(1, math.ceil(t / grid.dt(p.sigma_hi2) - 1e-12))
    dt = t / n_steps
    two, inv_dx2, lo, hi, half_dt = (np.array(c, dtype=np.float64) for c in (
        2.0, 1.0 / grid.dx**2, p.sigma_lo2, p.sigma_hi2, dt * 0.5))
    cells = u.reshape(-1)
    d2_buf = np.empty((nx - 2) * k)
    # sigma_lo2 * d2; on a check step the state before the step; on a retirement
    # the staged live columns, at most k - 1 columns of nx nodes, which
    # (nx - 2) * k holds unless nx < 2k
    scratch_buf = np.empty(max((nx - 2) * k, nx * (k - 1)))
    mask_buf = np.empty((nx - 2) * k, dtype=bool)

    def views(width: int) -> tuple[np.ndarray, ...]:
        """The state of ``width`` live columns, its stencil operands and step buffers."""
        flat, n = cells[:nx * width], (nx - 2) * width
        return (flat.reshape(nx, width), flat[:-2 * width], flat[width:-width],
                flat[2 * width:], d2_buf[:n], scratch_buf[:n], mask_buf[:n])

    u, left, mid, right, d2, scratch, mask = views(k)
    live = list(range(k))  # the index in fs of each live column
    values = [0.0] * k
    scale_hi = p.sigma_hi2 != 1.0
    multiply, subtract, add, maximum, isfinite = (
        np.multiply, np.subtract, np.add, np.maximum, np.isfinite)
    for step in range(n_steps):
        multiply(mid, two, d2)
        subtract(right, d2, d2)
        add(d2, left, d2)
        multiply(d2, inv_dx2, d2)
        multiply(d2, lo, scratch)
        if scale_hi:
            multiply(d2, hi, d2)
        maximum(scratch, d2, out=d2)
        multiply(d2, half_dt, d2)
        if step % _NAN_CHECK_EVERY:
            add(mid, d2, mid)
            continue
        np.copyto(scratch, mid)  # the state before the step
        add(mid, d2, mid)
        if not isfinite(mid, mask).all():
            raise PDENumericsError(
                f"non-finite values in {_nonfinite([fs[i] for i in live], u)} after step {step}")
        # a column whose bits this step left equal is unchanged and stays so.  Its
        # flags are reduced from a column-major copy in d2's memory, which the
        # step is done with: reducing across the node-major rows costs a few steps.
        by_column = d2.view(np.bool_)[:mid.size].reshape(len(live), nx - 2)
        np.equal(mid.view(np.int64), scratch.view(np.int64), mask)
        np.copyto(by_column, mask.reshape(nx - 2, len(live)).T)
        fixed = by_column.all(axis=1)
        if not fixed.any():
            continue
        for col in np.flatnonzero(fixed):
            values[live[col]] = float(np.interp(0.0, x, u[:, col]))
        keep = np.flatnonzero(~fixed)
        live = [live[col] for col in keep]
        if not live:
            break
        staged = scratch_buf[:nx * len(live)].reshape(nx, len(live))
        for j, col in enumerate(keep):
            staged[:, j] = u[:, col]
        u, left, mid, right, d2, scratch, mask = views(len(live))
        np.copyto(u, staged)
    if not np.isfinite(u).all():
        raise PDENumericsError(
            f"non-finite values in {_nonfinite([fs[i] for i in live], u)} at final time")
    for col, i in enumerate(live):
        values[i] = float(np.interp(0.0, x, u[:, col]))
    return tuple(values)


def peng_oracles(fs: Sequence[engine.Functional], p: GParams, ns: Sequence[int],
                 *, state_cap: int = engine.DEFAULT_STATE_CAP) -> tuple[tuple[float, ...], ...]:
    """Upper expectation of each of ``fs`` via the n-step two-point CLT recursion, per n of ``ns``.

    The recursion's sum is built once, at the largest n (``engine.row_sums``:
    dense layers when the two-point supports sit on the lattice, the graph
    otherwise), and every (n, functional) pair is an upper column of one
    backward sweep over it, which carries no lower column.
    """
    if any(n < 1 for n in ns):
        raise ValidationError("peng_oracles needs n >= 1")
    if not ns:
        return ()
    sigmas = sorted({math.sqrt(p.sigma_lo2), math.sqrt(p.sigma_hi2)})
    set_ = ambiguity(two_point_law(s) for s in sigmas)
    sums = engine.row_sums(engine.SequenceModel.iid(set_, max(ns)), state_cap=state_cap)
    uppers = iter(engine.sweep_columns(
        sums, [(engine.scaled(f, 1.0 / math.sqrt(n)), n) for n in ns for f in fs], ())[0])
    return tuple(tuple(next(uppers) for _ in fs) for _ in ns)


def _shape_on_grid(f: engine.Functional, half_width: float) -> str:
    """Classify ``f`` as 'convex', 'concave', or 'neither' on 401 nodes of the domain."""
    x = np.linspace(-half_width, half_width, 401)
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


HERMITE_NODES = 96  # Gauss-Hermite nodes of every quadrature reference


def _quadrature(f: engine.Functional, p: GParams, half_width: float,
                hermite: tuple[np.ndarray, np.ndarray]) -> float:
    """The Gauss-Hermite value of ``f`` at its extremal variance; NaN when ``f`` has no shape.

    Equal variances leave one law, the classical N(0, sigma^2), so every ``f`` has a value.
    """
    if p.sigma_lo2 == p.sigma_hi2:
        var = p.sigma_hi2
    else:
        shape = _shape_on_grid(f, half_width)
        if shape == "neither":
            return math.nan
        var = p.sigma_hi2 if shape == "convex" else p.sigma_lo2
    if var == 0.0:
        return f.phi(0.0)
    ts, ws = hermite
    scale = math.sqrt(2.0 * var)
    vals = np.array([f.phi(float(scale * t)) for t in ts], dtype=float)
    return float(np.dot(ws, vals) / math.sqrt(math.pi))


def gnormal_references(fs: Sequence[engine.Functional], p: GParams, *,
                       half_width: float = 8.0) -> tuple[float, ...]:
    """Gauss-Hermite value of the extremal classical Gaussian for each of ``fs``.

    For convex ``f`` the upper G-normal expectation is the classical
    expectation at the upper variance; for concave ``f``, at the lower
    variance; any other ``f`` gets NaN, unless the two variances are equal:
    the law is then the classical N(0, sigma^2), and every ``f`` gets its
    quadrature value (``f(0)`` at sigma^2 = 0).  The ``HERMITE_NODES`` nodes are
    computed once for all of ``fs``.  Callers must treat the values as a
    hypothesis to validate against ``solve_gheats``, not as ground truth.
    """
    hermite = np.polynomial.hermite.hermgauss(HERMITE_NODES)
    return tuple(_quadrature(f, p, half_width, hermite) for f in fs)
