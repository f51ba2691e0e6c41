"""G-normal evaluation: the PDE solver, the CLT oracle, and the quadrature check."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest

import sublexp as sl
import sublexp.engine as eng
import sublexp.gnormal as gn
from sublexp.errors import PDENumericsError, ValidationError

from conftest import count_step_widths

GP = sl.GParams(0.5, 1.0)
SYM = sl.GParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# The generator G
# ---------------------------------------------------------------------------


def test_G_endpoint_values():
    assert sl.G(1.0, GP) == pytest.approx(1.0)
    assert sl.G(-1.0, GP) == pytest.approx(-0.5)
    assert sl.G(0.0, GP) == 0.0


def test_G_positive_homogeneity():
    for alpha in (-2.0, -0.3, 0.7, 4.0):
        for lam in (0.5, 2.0, 7.0):
            assert sl.G(lam * alpha, GP) == pytest.approx(lam * sl.G(alpha, GP), abs=1e-12)


def test_G_matches_oracle_second_moments():
    # G(1) = upper variance, G(-1) = -(lower variance), via the CLT oracle
    ((up, neg_lo),) = sl.peng_oracles((eng.square(), eng.negated(eng.square())), GP, (16,))
    lo = -neg_lo
    assert sl.G(1.0, GP) == pytest.approx(up, abs=1e-10)
    assert sl.G(-1.0, GP) == pytest.approx(-lo, abs=1e-10)


def test_gparams_validation():
    with pytest.raises(ValidationError):
        sl.GParams(1.0, 0.5)
    with pytest.raises(ValidationError):
        sl.GParams(-0.1, 1.0)


# ---------------------------------------------------------------------------
# solve_gheats
# ---------------------------------------------------------------------------


def test_classical_reduction_square():
    grid = sl.PDEGrid()
    (u,) = sl.solve_gheats((eng.square(),), SYM, grid, 1.0)
    assert abs(u - 1.0) <= 2e-3


def test_constants_are_fixed_points():
    grid = sl.PDEGrid()
    c = eng.Functional("const", lambda x: 2.5)
    assert sl.solve_gheats((c,), GP, grid, 1.0) == (2.5,)


def test_extremal_variances():
    grid = sl.PDEGrid()
    up, neg_lo = sl.solve_gheats((eng.square(), eng.negated(eng.square())), GP, grid)
    assert up == pytest.approx(1.0, abs=5e-3)
    assert neg_lo == pytest.approx(-0.5, abs=5e-3)


def test_symmetric_case_matches_analytic_cos():
    # classical heat semigroup: E[cos(x + sqrt(t) Z)] = exp(-t/2) cos(x)
    grid = sl.PDEGrid()
    (u,) = sl.solve_gheats((eng.cosine(),), SYM, grid, 1.0)
    assert u == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_symmetric_case_matches_analytic_ramp():
    # E[min(1, Z^+)] = (phi(0) - phi(1)) + (1 - Phi(1)) for standard normal Z
    grid = sl.PDEGrid()
    (u,) = sl.solve_gheats((eng.ramp(0.0),), SYM, grid, 1.0)
    density0 = 1.0 / math.sqrt(2 * math.pi)
    density1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    cdf1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    assert u == pytest.approx((density0 - density1) + (1 - cdf1), abs=1e-5)


def test_upper_value_dominates_constant_variance_gaussians():
    # the adversarial diffusion can hold any sigma^2 in the interval, so the
    # upper expectation is at least every constant-variance Gaussian value
    grid = sl.PDEGrid()
    (u,) = sl.solve_gheats((eng.cosine(),), GP, grid, 1.0)
    for s2 in (0.5, 0.7, 1.0):
        assert u >= math.exp(-0.5 * s2) - 1e-4
    # and the adaptive policy is strictly better than the best constant one
    assert u > math.exp(-0.5 * 0.5) + 1e-4


def test_scheme_monotone_in_initial_data():
    grid = sl.PDEGrid()
    one = eng.Functional("one", lambda x: 1.0)
    above = eng.Functional("cos+.1", lambda x: math.cos(x) + 0.1)
    u_ramp, u_one, u_cos, u_above = sl.solve_gheats(
        (eng.ramp(0.0), one, eng.cosine(), above), GP, grid)
    assert u_ramp <= u_one + 1e-12
    assert u_cos <= u_above + 1e-12


def test_subadditivity_transfer():
    grid = sl.PDEGrid()
    f, g = eng.cosine(), eng.ramp(0.0)
    both = eng.Functional("f+g", lambda x: f.phi(x) + g.phi(x))
    lhs, u_f, u_g = sl.solve_gheats((both, f, g), GP, grid)
    assert lhs <= u_f + u_g + 2e-3


def test_refinement_increments_decrease_for_smooth_data():
    grid = sl.PDEGrid()
    vals = []
    for _ in range(4):
        vals += sl.solve_gheats((eng.cosine(),), GP, grid)
        grid = grid.refined()
    incs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert incs[1] < incs[0] and incs[2] < incs[1]


def test_refinement_converged_for_kinked_data():
    grid = sl.PDEGrid()
    vals = []
    for _ in range(3):
        vals += sl.solve_gheats((eng.ramp(0.0),), GP, grid)
        grid = grid.refined()
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 1e-5


def _stored_dt(half_width: float, nx: int, sigma_hi2: float) -> float:
    """The step a grid stored when it carried its dt, by the rule that set it."""
    dx = 2.0 * half_width / (nx - 1)
    if sigma_hi2 > 0.0:
        return 0.9 * dx**2 / (2.0 * sigma_hi2)
    return 0.9 * dx**2 / 2.0


@pytest.mark.parametrize("nx", (3, 4, 41, 801, 1601))
@pytest.mark.parametrize("half_width", (2.0, 8.0, 13.5))
def test_dt_is_the_stored_step_bit_for_bit(half_width, nx):
    grid = sl.PDEGrid(half_width, nx)
    for s in (0.0, 5e-324, 0.81, 1.0, 4.0):
        want = _stored_dt(half_width, nx, s)  # inf at the subnormal: one step to any t
        assert grid.dt(s).hex() == want.hex()
        # halving dx and dividing by 4 are exact
        assert grid.refined().dt(s).hex() == (want / 4.0).hex()
        if s >= 0.81:
            assert grid.dt(s) * s / grid.dx**2 == pytest.approx(0.45, rel=1e-15)


def test_a_grid_whose_dx_squared_is_not_positive_and_finite_is_refused():
    # a float ** raises OverflowError where dx * dx is inf
    dx = 2.0 * 1.0e200 / 800
    assert dx * dx == math.inf
    with pytest.raises(ValidationError, match=r"^half_width 1e\+200 and nx 801 give a dx\^2"):
        sl.PDEGrid(1.0e200, 801)
    with pytest.raises(ValidationError, match="not positive and finite"):
        sl.PDEGrid(8.0, 10**200)  # dx * dx underflows to 0
    assert sl.PDEGrid(1.0e150, 801).dx == 2.0 * 1.0e150 / 800


def test_domain_too_small_raises():
    grid = sl.PDEGrid(2.0, 201)
    with pytest.raises(ValidationError):
        sl.solve_gheats((eng.square(),), GP, grid, 1.0)


def test_nonfinite_initial_data_raises():
    grid = sl.PDEGrid()
    blowup = eng.Functional("inf", lambda x: math.inf if x > 7.9 else 0.0)
    with pytest.raises(PDENumericsError):
        sl.solve_gheats((blowup,), GP, grid, 1.0)


def test_nonfinite_initial_data_names_the_row():
    grid = sl.PDEGrid(nx=101)
    blowup = eng.Functional("blowup", lambda x: math.nan if x < -7.9 else x)
    with pytest.raises(PDENumericsError, match="initial data of blowup is not finite") as err:
        sl.solve_gheats([eng.cosine(), blowup, eng.ramp(0.0)], GP, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)


def test_overflow_in_a_batch_names_the_row():
    # 2.0 * 1e308 overflows in the first step; only that row goes non-finite
    grid = sl.PDEGrid(nx=101)
    huge = eng.Functional("huge", lambda x: 1e308 if abs(x) < 1.0 else 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PDENumericsError, match="in huge after step 0") as err:
            sl.solve_gheats([eng.cosine(), huge, eng.ramp(0.0)], GP, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)


def test_empty_batch_rejected():
    with pytest.raises(ValidationError):
        sl.solve_gheats((), GP, sl.PDEGrid())


def test_equal_int64_views_are_equal_floats_with_equal_sign_bits():
    # a column retires when the int64 views of its finite state before and after a
    # step are equal; the reference is "equal as floats, and signbit equal"
    rng = np.random.default_rng(20240901)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20_000,
                        dtype=np.int64, endpoint=True)
    tiny, big = 5e-324, np.finfo(np.float64).max
    a = np.concatenate([bits.view(np.float64), rng.normal(size=2_000),
                        [0.0, -0.0, tiny, -tiny, big, -big, 1.0, -1.0]])
    a = a[np.isfinite(a)]
    b = np.concatenate([
        a,  # equal values
        -a,  # the sign flipped: +-0.0 against -+0.0
        np.nextafter(a, big), np.nextafter(a, -big),  # 1-ulp neighbours
        rng.permutation(a),
        rng.choice([0.0, -0.0, tiny, -tiny], size=a.size),
    ])
    a = np.tile(a, 6)
    assert np.isfinite(b).all() and {(x, math.copysign(1.0, x)) for x in b[b == 0.0]} == {
        (0.0, 1.0), (0.0, -1.0)}
    old = (a == b) & (np.signbit(a) == np.signbit(b))
    assert old.any() and not old.all()
    assert np.array_equal(np.equal(a.view(np.int64), b.view(np.int64)), old)


def test_time_loop_allocates_nothing_per_step(monkeypatch):
    # a per-step temporary of one (nx - 2, K) operand would add 25.6 KB here
    live = (eng.cosine(), eng.ramp(0.0), eng.square(), eng.negated(eng.square()))
    # identity retires after step 200 of both runs below; the other rows keep stepping
    for fs, retired in ((live, 0), ((eng.identity(), *live), 1)):
        k, nx = len(fs), 801
        grid = sl.PDEGrid(nx=nx)
        with monkeypatch.context() as mp:
            widths = count_step_widths(mp, nx)
            sl.solve_gheats(fs, GP, grid, 0.05)  # also warms numpy's caches outside the trace
        assert len(widths) > gn._NAN_CHECK_EVERY + 1 and widths[-1] == k - retired

        def peak(t: float) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sl.solve_gheats(fs, GP, grid, t)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        long_run, short_run = peak(1.0), peak(0.05)
        assert abs(long_run - short_run) <= 4096
        # x, u, d2, scratch and the NaN mask, plus one column's list of initial values
        once = 8 * nx + 8 * nx * k + 2 * 8 * (nx - 2) * k + (nx - 2) * k
        column = sys.getsizeof([0.0] * nx) + nx * sys.getsizeof(1.5)
        assert long_run < once + column


# ---------------------------------------------------------------------------
# peng_oracles
# ---------------------------------------------------------------------------


def test_peng_no_ambiguity_variance_exact():
    for (val,) in sl.peng_oracles((eng.square(),), SYM, (1, 4, 9)):
        assert val == pytest.approx(1.0, abs=1e-10)


def test_peng_odd_functional_vanishes():
    ns = (1, 2, 4)
    for n, (val,) in zip(ns, sl.peng_oracles((eng.identity(),), GP, ns)):
        assert val == pytest.approx(0.0, abs=1e-10)
        # cross-check against the brute-force policy oracle
        sigmas = (math.sqrt(GP.sigma_lo2), math.sqrt(GP.sigma_hi2))
        model = sl.SequenceModel.iid(
            sl.ambiguity(sl.two_point_law(s) for s in sigmas), n, 1.0
        )
        want = sl.oracle_policy_enum(model, eng.scaled(eng.identity(), n ** -0.5))
        assert val == pytest.approx(want.upper, abs=1e-10)


def test_peng_upper_variance_additivity():
    for (val,) in sl.peng_oracles((eng.square(),), GP, (1, 3, 8)):
        assert val == pytest.approx(1.0, abs=1e-10)


def test_peng_degenerate_lower_variance():
    gp = sl.GParams(0.0, 1.0)
    ((up, neg_lo),) = sl.peng_oracles((eng.square(), eng.negated(eng.square())), gp, (4,))
    assert up == pytest.approx(1.0, abs=1e-10)
    assert -neg_lo == pytest.approx(0.0, abs=1e-10)


def test_peng_oracles_sweep_one_graph_once_for_any_list_of_n(monkeypatch):
    fs = (eng.square(), eng.cosine(), eng.ramp(0.0))
    ns = (5, 2, 9, 5, 1)
    want = tuple(tuple(gn.peng_oracles((f,), GP, (n,))[0][0] for f in fs) for n in ns)
    sweeps = []
    sweep_columns = eng.sweep_columns

    def counting(graph, upper, lower):
        sweeps.append((len(upper), len(lower)))
        return sweep_columns(graph, upper, lower)

    monkeypatch.setattr(eng, "sweep_columns", counting)
    # the batch is bit-identical to one n and one functional at a time
    assert [[v.hex() for v in row] for row in gn.peng_oracles(fs, GP, ns)] == [
        [v.hex() for v in row] for row in want]
    # upper values only: the sweep carries no lower column
    assert sweeps == [(len(fs) * len(ns), 0)]


def test_peng_agreement_with_pde_improves():
    fs = (eng.cosine(), eng.ramp(0.0))
    refs = sl.solve_gheats(fs, GP, sl.PDEGrid())
    pengs = sl.peng_oracles(fs, GP, (8, 16, 32))
    for c, ref in enumerate(refs):
        gaps = [abs(row[c] - ref) for row in pengs]
        assert gaps[2] <= gaps[1] <= gaps[0]


def test_scaling_stability_under_doubling():
    # a xi + b xi' ~ sqrt(a^2+b^2) xi: doubling the sample must reproduce
    # the sqrt(2)-scaled one-sample value in the limit
    fs = [eng.scaled(f, math.sqrt(2.0)) for f in (eng.cosine(), eng.ramp(0.0))]
    at_32, at_64 = sl.peng_oracles(fs, GP, (32, 64))
    for a, b in zip(at_32, at_64):
        assert abs(a - b) < 0.01


# ---------------------------------------------------------------------------
# gnormal_references
# ---------------------------------------------------------------------------


def test_quadrature_convex_concave():
    assert sl.gnormal_references((eng.square(), eng.negated(eng.square())), GP) == pytest.approx(
        (1.0, -0.5), abs=1e-9)


def test_quadrature_affine_vanishes():
    assert sl.gnormal_references((eng.identity(),), GP) == pytest.approx((0.0,), abs=1e-9)


def test_quadrature_rejects_mixed_curvature():
    (value,) = sl.gnormal_references((eng.cosine(),), GP)
    assert math.isnan(value)


def test_quadrature_agrees_with_pde():
    fs = (eng.square(), eng.negated(eng.square()))
    assert sl.gnormal_references(fs, GP) == pytest.approx(
        sl.solve_gheats(fs, GP, sl.PDEGrid()), abs=5e-3)


def test_quadrature_zero_variance_point_mass():
    gp = sl.GParams(0.0, 1.0)
    assert sl.gnormal_references((eng.negated(eng.square()),), gp) == pytest.approx((0.0,), abs=1e-12)


def test_quadrature_of_any_functional_at_equal_variances():
    # one variance leaves the classical N(0, sigma^2): cos and ramp@0 have
    # values although they are neither convex nor concave
    fs = eng.catalog()
    names = [f.name for f in fs]
    cos, ramp = names.index("cos"), names.index("ramp@0")
    refs = sl.gnormal_references(fs, SYM)
    assert refs[cos] == pytest.approx(math.exp(-0.5), abs=1e-12)
    # E[min(1, X^+)] = phi(0) - phi(1) + P(X > 1); the kinks cost the quadrature 1e-3
    normal_pdf = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    exact_ramp = normal_pdf(0.0) - normal_pdf(1.0) + 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    assert refs[ramp] == pytest.approx(exact_ramp, abs=1e-3)
    assert refs == pytest.approx(sl.solve_gheats(fs, SYM, sl.PDEGrid()), abs=5e-3)
    # sigma^2 = 0 is the point mass at 0
    point = sl.GParams(0.0, 0.0)
    assert sl.gnormal_references(fs, point) == tuple(f.phi(0.0) for f in fs)


def test_references_equal_one_reference_per_functional():
    # cosine and ramp are neither convex nor concave: NaN, in a batch or alone
    fs = (eng.square(), eng.negated(eng.square()), eng.identity(), eng.cosine(), eng.ramp(0.0))
    for gp in (GP, sl.GParams(0.0, 1.0)):
        got = sl.gnormal_references(fs, gp)
        for f, value in zip(fs[:3], got):
            assert value.hex() == sl.gnormal_references((f,), gp)[0].hex()
        for f, value in zip(fs[3:], got[3:]):
            assert math.isnan(value)
            assert math.isnan(sl.gnormal_references((f,), gp)[0])
