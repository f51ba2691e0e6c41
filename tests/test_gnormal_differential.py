"""Differential test: ``solve_gheats`` against the per-row G-heat loop, exactly.

``reference_solve_gheat`` is the one-row G-heat solve as it was before the
batched solve: one 1-D array stepped on its own, with fresh temporaries every step.
The batched solve puts every element through the same float operations in
the same order, so each value must equal the reference bit for bit, in a
batch of one row or of many, in either row order, and whatever other rows
share its batch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sublexp as sl
import sublexp.engine as eng
from sublexp.errors import PDENumericsError, ValidationError
from sublexp.gnormal import _NAN_CHECK_EVERY, SUPPORT_MARGIN

# ---------------------------------------------------------------------------
# Reference: the original per-row loop
# ---------------------------------------------------------------------------


def reference_solve_gheat(f: eng.Functional, p: sl.GParams, grid: sl.PDEGrid,
                          t: float = 1.0) -> float:
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError("time horizon must be positive and finite")
    grid.check(p)
    x = np.linspace(-grid.half_width, grid.half_width, grid.nx)
    u = np.array([f.phi(float(xi)) for xi in x], dtype=float)
    if not np.isfinite(u).all():
        raise PDENumericsError("initial data is not finite on the grid")

    n_steps = max(1, math.ceil(t / grid.dt - 1e-12))
    dt = t / n_steps
    inv_dx2 = 1.0 / grid.dx**2
    for step in range(n_steps):
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        flux = np.where(d2 >= 0.0, p.sigma_hi2 * d2, p.sigma_lo2 * d2)
        u[1:-1] += dt * 0.5 * flux
        if step % _NAN_CHECK_EVERY == 0 and not np.isfinite(u).all():
            raise PDENumericsError(f"non-finite values after step {step}")
    if not np.isfinite(u).all():
        raise PDENumericsError("non-finite values at final time")
    return float(np.interp(0.0, x, u))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

_CONST = eng.Functional("const", lambda x: 2.5)
_KINKED = eng.Functional(
    "kinked", lambda x: abs(x - 0.3) - 0.5 * max(x + 1.1, 0.0) + min(x * x, 2.0))
FUNCTIONALS = (
    *eng.catalog(),
    *(eng.negated(f) for f in eng.catalog()),
    _CONST,
    _KINKED,
)
#: sigma_hi2 = 1.0 skips a multiply in ``solve_gheats``; the last one does not
PARAMS = (sl.GParams(0.5, 1.0), sl.GParams(1.0, 1.0), sl.GParams(0.0, 1.0),
          sl.GParams(0.25, 0.81))
NXS = (3, 4, 200, 401)  # 200 is even: 0 falls between two nodes
TIMES = ("1", "0.37", "below one dt")


def _horizon(label: str, grid: sl.PDEGrid) -> float:
    return grid.dt / 2.0 if label == "below one dt" else float(label)


def _exact(values) -> list[str]:
    """Each float's bits, sign of zero included."""
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("label", TIMES)
@pytest.mark.parametrize("nx", NXS)
@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.sigma_lo2:g}-{p.sigma_hi2:g}")
def test_batched_solve_equals_per_row_loop(p, nx, label):
    grid = sl.default_grid(p, nx=nx)
    t = _horizon(label, grid)
    if label == "below one dt":
        assert max(1, math.ceil(t / grid.dt - 1e-12)) == 1
    want = [reference_solve_gheat(f, p, grid, t) for f in FUNCTIONALS]

    assert _exact(sl.solve_gheats(FUNCTIONALS, p, grid, t)) == _exact(want)
    backwards = sl.solve_gheats(FUNCTIONALS[::-1], p, grid, t)
    assert _exact(backwards[::-1]) == _exact(want)
    singles = [sl.solve_gheats((f,), p, grid, t)[0] for f in FUNCTIONALS]
    assert _exact(singles) == _exact(want)


def test_gnormal_fine_shape_equals_per_row_loop():
    # the rows f, -f of the five catalog functionals at nx = 1601; t = 0.01 is
    # 223 steps, past the NaN check at step 200
    p = sl.GParams(0.5, 1.0)
    grid = sl.default_grid(p, nx=1601)
    fs = [g for f in eng.catalog() for g in (f, eng.negated(f))]
    assert len(fs) == 10 and math.ceil(0.01 / grid.dt - 1e-12) == 223
    want = [reference_solve_gheat(f, p, grid, 0.01) for f in fs]
    assert _exact(sl.solve_gheats(fs, p, grid, 0.01)) == _exact(want)


_SMALL = {p: sl.default_grid(p, nx=41) for p in PARAMS}
_SMALL_WANT = {
    p: [reference_solve_gheat(f, p, grid) for f in FUNCTIONALS] for p, grid in _SMALL.items()
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PARAMS),
    rows=st.lists(st.integers(0, len(FUNCTIONALS) - 1), min_size=1, max_size=8),
)
def test_row_value_does_not_depend_on_its_batch(p, rows):
    # any selection, order and repetition of rows: each row keeps its own value
    got = sl.solve_gheats([FUNCTIONALS[i] for i in rows], p, _SMALL[p])
    assert _exact(got) == _exact(_SMALL_WANT[p][i] for i in rows)


# ---------------------------------------------------------------------------
# The max rule: any variance interval, and the one non-finite divergence
# ---------------------------------------------------------------------------


@st.composite
def gparams(draw):
    """``0 <= sigma_lo2 <= sigma_hi2``: either end may be 0, and they may be equal."""
    # subnormal sigma_hi2 would make default_grid's dt overflow
    hi = draw(st.one_of(st.just(1.0), st.floats(0.0, 4.0, allow_subnormal=False)))
    frac = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return sl.GParams(hi * frac, hi)  # monotone rounding keeps hi * frac <= hi


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=gparams())
def test_any_variance_interval_equals_per_row_loop(p):
    # the max rule against the reference's masked choice, for any coefficients
    half_width = max(8.0, 6.0 * math.sqrt(p.sigma_hi2) + SUPPORT_MARGIN)
    grid = sl.default_grid(p, half_width=half_width, nx=41)
    want = [reference_solve_gheat(f, p, grid) for f in FUNCTIONALS]
    assert _exact(sl.solve_gheats(FUNCTIONALS, p, grid)) == _exact(want)


def test_overflow_to_plus_inf_with_zero_lower_variance_raises_like_the_loop():
    # at the plateau's edge d2 = +inf: 0 * inf makes the max rule give NaN where
    # the masked choice gave inf; both are non-finite, so the error is the same
    p = sl.GParams(0.0, 1.0)
    grid = sl.default_grid(p, nx=101)
    huge = eng.Functional("huge", lambda x: 1e308 if abs(x) < 1.0 else 0.0)
    x = np.linspace(-grid.half_width, grid.half_width, grid.nx)
    u = np.array([huge.phi(float(xi)) for xi in x])
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((u[2:] - 2.0 * u[1:-1]) + u[:-2]) * (1.0 / grid.dx**2)
        assert np.isposinf(d2).any()
        with pytest.raises(PDENumericsError, match="after step 0"):
            reference_solve_gheat(huge, p, grid)
        with pytest.raises(PDENumericsError, match="in huge after step 0") as err:
            sl.solve_gheats([eng.cosine(), huge, eng.ramp(0.0)], p, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)
