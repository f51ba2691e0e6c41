"""Differential test: ``solve_gheats`` against the per-row G-heat loop, exactly.

``reference_solve_gheat`` is the one-row G-heat solve as it was before the
batched solve: one 1-D array stepped on its own, with fresh temporaries every step.
The batched solve puts every element through the same float operations in
the same order, so each value must equal the reference bit for bit, in a
batch of one row or of many, in either row order, and whatever other rows
share its batch.  That holds too for rows that retire from the time loop at
a fixed point, and for the rows that keep stepping beside them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sublexp as sl
import sublexp.engine as eng
import sublexp.gnormal as gn
from sublexp.errors import PDENumericsError, ValidationError
from sublexp.gnormal import _NAN_CHECK_EVERY, SUPPORT_MARGIN

from conftest import count_step_widths

# ---------------------------------------------------------------------------
# Reference: the original per-row loop
# ---------------------------------------------------------------------------


def reference_solve_gheat(f: eng.Functional, p: sl.GParams, grid: sl.PDEGrid,
                          t: float = 1.0) -> float:
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError("time horizon must be positive and finite")
    grid.check(p.sigma_hi2)
    x = np.linspace(-grid.half_width, grid.half_width, grid.nx)
    u = np.array([f.phi(float(xi)) for xi in x], dtype=float)
    if not np.isfinite(u).all():
        raise PDENumericsError("initial data is not finite on the grid")

    n_steps = max(1, math.ceil(t / grid.dt(p.sigma_hi2) - 1e-12))
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


def _horizon(label: str, dt: float) -> float:
    return dt / 2.0 if label == "below one dt" else float(label)


def _exact(values) -> list[str]:
    """Each float's bits, sign of zero included."""
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("label", TIMES)
@pytest.mark.parametrize("nx", NXS)
@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.sigma_lo2:g}-{p.sigma_hi2:g}")
def test_batched_solve_equals_per_row_loop(p, nx, label):
    grid = sl.PDEGrid(nx=nx)
    dt = grid.dt(p.sigma_hi2)
    t = _horizon(label, dt)
    if label == "below one dt":
        assert max(1, math.ceil(t / dt - 1e-12)) == 1
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
    grid = sl.PDEGrid(nx=1601)
    fs = [g for f in eng.catalog() for g in (f, eng.negated(f))]
    assert len(fs) == 10 and math.ceil(0.01 / grid.dt(p.sigma_hi2) - 1e-12) == 223
    want = [reference_solve_gheat(f, p, grid, 0.01) for f in fs]
    assert _exact(sl.solve_gheats(fs, p, grid, 0.01)) == _exact(want)


_SMALL = {p: sl.PDEGrid(nx=41) for p in PARAMS}
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
    """``0 <= sigma_lo2 <= sigma_hi2``: either end may be 0 or subnormal, and they may be equal.

    A subnormal sigma_hi2 makes ``PDEGrid.dt`` overflow to inf, which is one step.
    """
    hi = draw(st.one_of(st.just(1.0), st.just(5e-324), st.floats(0.0, 4.0)))
    frac = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return sl.GParams(hi * frac, hi)  # monotone rounding keeps hi * frac <= hi


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=gparams())
def test_any_variance_interval_equals_per_row_loop(p):
    # the max rule against the reference's masked choice, for any coefficients
    half_width = max(8.0, 6.0 * math.sqrt(p.sigma_hi2) + SUPPORT_MARGIN)
    grid = sl.PDEGrid(half_width, 41)
    want = [reference_solve_gheat(f, p, grid) for f in FUNCTIONALS]
    assert _exact(sl.solve_gheats(FUNCTIONALS, p, grid)) == _exact(want)


def test_overflow_to_plus_inf_with_zero_lower_variance_raises_like_the_loop():
    # at the plateau's edge d2 = +inf: 0 * inf makes the max rule give NaN where
    # the masked choice gave inf; both are non-finite, so the error is the same
    p = sl.GParams(0.0, 1.0)
    grid = sl.PDEGrid(nx=101)
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


# ---------------------------------------------------------------------------
# Retirement: a column one step leaves unchanged bit for bit stops stepping
# ---------------------------------------------------------------------------


def _affine(a: float, b: float) -> eng.Functional:
    return eng.Functional(f"{a:g}x{b:+g}", lambda x: a * x + b)


#: Rows that reach a fixed point: the second difference of an affine row is
#: rounding noise that the steps wash out, and a constant row's is exactly 0.
#: The -0.0 row's first step turns its interior nodes into 0.0, equal as
#: floats, so only the sign bits tell that the step changed it.
RETIRING = (
    eng.identity(),
    eng.negated(eng.identity()),
    _CONST,
    eng.Functional("negative zero", lambda x: -0.0),
    _affine(0.5, -0.25),  # dyadic
    _affine(-0.3, 0.7),  # not dyadic
)
LIVE = (eng.cosine(), eng.ramp(0.0), eng.negated(eng.square()))
#: a permutation that interleaves the two kinds of row
MIXED = tuple((*RETIRING, *LIVE)[i] for i in (6, 0, 3, 7, 1, 8, 4, 2, 5))
RETIRE_PARAMS = (sl.GParams(0.5, 1.0), sl.GParams(0.25, 0.81), sl.GParams(0.0, 0.0))


@pytest.mark.parametrize("steps", (1, 199, 201, 450))
@pytest.mark.parametrize("nx", (40, 41))
@pytest.mark.parametrize("p", RETIRE_PARAMS, ids=lambda p: f"{p.sigma_lo2:g}-{p.sigma_hi2:g}")
def test_retired_and_live_rows_equal_per_row_loop(p, nx, steps, monkeypatch):
    # horizons that end before, at and after a check step, and one past two of them;
    # G = 0 leaves every row at a fixed point
    grid = sl.PDEGrid(nx=nx)
    dt = grid.dt(p.sigma_hi2)
    t = steps * dt
    assert max(1, math.ceil(t / dt - 1e-12)) == steps
    want = [reference_solve_gheat(f, p, grid, t) for f in MIXED]
    stepped = count_step_widths(monkeypatch, nx)
    assert _exact(sl.solve_gheats(MIXED, p, grid, t)) == _exact(want)
    assert stepped[0] == len(MIXED)
    if steps > 1:
        assert stepped[1] < len(MIXED)  # the constant row retires at the first check
    if steps > _NAN_CHECK_EVERY + 1:
        # by the second check every row of RETIRING has retired; G = 0 leaves
        # every row at a fixed point, so there the loop stops
        if p.sigma_hi2 == 0.0:
            assert len(stepped) == _NAN_CHECK_EVERY + 1
        else:
            assert stepped[-1] == len(LIVE)
    backwards = sl.solve_gheats(MIXED[::-1], p, grid, t)
    assert _exact(backwards[::-1]) == _exact(want)


def test_gnormal_fine_shape_retires_identity_rows_after_step_200(monkeypatch):
    # the built-in gnormal-fine solve: f, -f for the five catalog functionals
    p, nx = sl.GParams(0.5, 1.0), 1601
    grid = sl.PDEGrid(nx=nx)
    fs = [g for f in eng.catalog() for g in (f, eng.negated(f))]
    n_steps = math.ceil(1.0 / grid.dt(p.sigma_hi2) - 1e-12)
    stepped = count_step_widths(monkeypatch, nx)
    sl.solve_gheats(fs, p, grid, 1.0)
    assert stepped == [10] * (_NAN_CHECK_EVERY + 1) + [8] * (n_steps - _NAN_CHECK_EVERY - 1)


def test_rows_that_never_settle_never_narrow(monkeypatch):
    # the clt-flagship solve: cos and ramp@0, each with its negation
    p, nx = sl.GParams(0.5, 1.0), 801
    grid = sl.PDEGrid(nx=nx)
    fs = [g for f in (eng.cosine(), eng.ramp(0.0)) for g in (f, eng.negated(f))]
    stepped = count_step_widths(monkeypatch, nx)
    sl.solve_gheats(fs, p, grid, 1.0)
    assert stepped == [4] * math.ceil(1.0 / grid.dt(p.sigma_hi2) - 1e-12)


def test_loop_stops_once_every_row_has_retired(monkeypatch):
    p, nx = sl.GParams(0.5, 1.0), 401
    grid = sl.PDEGrid(nx=nx)
    fs = (eng.identity(), eng.negated(eng.identity()), _CONST)
    want = [reference_solve_gheat(f, p, grid) for f in fs]
    stepped = count_step_widths(monkeypatch, nx)
    assert _exact(sl.solve_gheats(fs, p, grid)) == _exact(want)
    # the constant row leaves after step 0, the identity rows after step 200
    assert stepped == [3] + [2] * _NAN_CHECK_EVERY
    assert len(stepped) < math.ceil(1.0 / grid.dt(p.sigma_hi2) - 1e-12)


def test_overflow_beside_a_retiring_row_raises_like_the_loop():
    p = sl.GParams(0.5, 1.0)
    grid = sl.PDEGrid(nx=101)
    huge = eng.Functional("huge", lambda x: 1e308 if abs(x) < 1.0 else 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PDENumericsError, match="after step 0"):
            reference_solve_gheat(huge, p, grid)
        with pytest.raises(PDENumericsError, match="in huge after step 0") as err:
            sl.solve_gheats([_CONST, eng.identity(), huge], p, grid)
    assert "identity" not in str(err.value) and "const" not in str(err.value)


def test_non_finite_row_after_retirements_is_named_by_its_own_name(monkeypatch):
    # const retires after step 0 and identity after step 200, so by step 300
    # ramp@0 has moved from column 3 to column 1; a NaN put there names it alone
    p, nx = sl.GParams(0.5, 1.0), 101
    grid = sl.PDEGrid(nx=nx)
    fs = (_CONST, eng.cosine(), eng.identity(), eng.ramp(0.0))
    stepped = count_step_widths(monkeypatch, nx)
    counting = gn.np.subtract

    def poisoned(a, b, out):
        counting(a, b, out)
        if len(stepped) == 301:
            assert stepped[-1] == 2
            out.reshape(nx - 2, 2)[nx // 2, 1] = math.nan

    gn.np.subtract = poisoned
    with pytest.raises(PDENumericsError, match="non-finite values in ramp@0 after step 400"):
        sl.solve_gheats(fs, p, grid, 500 * grid.dt(p.sigma_hi2))
