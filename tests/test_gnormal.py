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
from sublexp.errors import PDENumericsError, PDEStabilityError, ValidationError

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
    grid = sl.default_grid(SYM)
    (u,) = sl.solve_gheats((eng.square(),), SYM, grid, 1.0)
    assert abs(u - 1.0) <= 2e-3


def test_constants_are_fixed_points():
    grid = sl.default_grid(GP)
    c = eng.Functional("const", lambda x: 2.5)
    assert sl.solve_gheats((c,), GP, grid, 1.0) == (2.5,)


def test_extremal_variances():
    grid = sl.default_grid(GP)
    up, neg_lo = sl.solve_gheats((eng.square(), eng.negated(eng.square())), GP, grid)
    assert up == pytest.approx(1.0, abs=5e-3)
    assert neg_lo == pytest.approx(-0.5, abs=5e-3)


def test_symmetric_case_matches_analytic_cos():
    # classical heat semigroup: E[cos(x + sqrt(t) Z)] = exp(-t/2) cos(x)
    grid = sl.default_grid(SYM)
    (u,) = sl.solve_gheats((eng.cosine(),), SYM, grid, 1.0)
    assert u == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_symmetric_case_matches_analytic_ramp():
    # E[min(1, Z^+)] = (phi(0) - phi(1)) + (1 - Phi(1)) for standard normal Z
    grid = sl.default_grid(SYM)
    (u,) = sl.solve_gheats((eng.ramp(0.0),), SYM, grid, 1.0)
    density0 = 1.0 / math.sqrt(2 * math.pi)
    density1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    cdf1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    assert u == pytest.approx((density0 - density1) + (1 - cdf1), abs=1e-5)


def test_upper_value_dominates_constant_variance_gaussians():
    # the adversarial diffusion can hold any sigma^2 in the interval, so the
    # upper expectation is at least every constant-variance Gaussian value
    grid = sl.default_grid(GP)
    (u,) = sl.solve_gheats((eng.cosine(),), GP, grid, 1.0)
    for s2 in (0.5, 0.7, 1.0):
        assert u >= math.exp(-0.5 * s2) - 1e-4
    # and the adaptive policy is strictly better than the best constant one
    assert u > math.exp(-0.5 * 0.5) + 1e-4


def test_scheme_monotone_in_initial_data():
    grid = sl.default_grid(GP)
    one = eng.Functional("one", lambda x: 1.0)
    above = eng.Functional("cos+.1", lambda x: math.cos(x) + 0.1)
    u_ramp, u_one, u_cos, u_above = sl.solve_gheats(
        (eng.ramp(0.0), one, eng.cosine(), above), GP, grid)
    assert u_ramp <= u_one + 1e-12
    assert u_cos <= u_above + 1e-12


def test_subadditivity_transfer():
    grid = sl.default_grid(GP)
    f, g = eng.cosine(), eng.ramp(0.0)
    both = eng.Functional("f+g", lambda x: f.phi(x) + g.phi(x))
    lhs, u_f, u_g = sl.solve_gheats((both, f, g), GP, grid)
    assert lhs <= u_f + u_g + 2e-3


def test_refinement_increments_decrease_for_smooth_data():
    grid = sl.default_grid(GP)
    vals = []
    for _ in range(4):
        vals += sl.solve_gheats((eng.cosine(),), GP, grid)
        grid = grid.refined()
    incs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert incs[1] < incs[0] and incs[2] < incs[1]


def test_refinement_converged_for_kinked_data():
    grid = sl.default_grid(GP)
    vals = []
    for _ in range(3):
        vals += sl.solve_gheats((eng.ramp(0.0),), GP, grid)
        grid = grid.refined()
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 1e-5


def test_stability_violation_raises():
    bad = sl.PDEGrid(8.0, 801, 1.0)
    with pytest.raises(PDEStabilityError):
        sl.solve_gheats((eng.square(),), GP, bad, 1.0)


def test_domain_too_small_raises():
    grid = sl.PDEGrid(2.0, 201, 1e-5)
    with pytest.raises(ValidationError):
        sl.solve_gheats((eng.square(),), GP, grid, 1.0)


def test_nonfinite_initial_data_raises():
    grid = sl.default_grid(GP)
    blowup = eng.Functional("inf", lambda x: math.inf if x > 7.9 else 0.0)
    with pytest.raises(PDENumericsError):
        sl.solve_gheats((blowup,), GP, grid, 1.0)


def test_nonfinite_initial_data_names_the_row():
    grid = sl.default_grid(GP, nx=101)
    blowup = eng.Functional("blowup", lambda x: math.nan if x < -7.9 else x)
    with pytest.raises(PDENumericsError, match="initial data of blowup is not finite") as err:
        sl.solve_gheats([eng.cosine(), blowup, eng.ramp(0.0)], GP, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)


def test_overflow_in_a_batch_names_the_row():
    # 2.0 * 1e308 overflows in the first step; only that row goes non-finite
    grid = sl.default_grid(GP, nx=101)
    huge = eng.Functional("huge", lambda x: 1e308 if abs(x) < 1.0 else 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PDENumericsError, match="in huge after step 0") as err:
            sl.solve_gheats([eng.cosine(), huge, eng.ramp(0.0)], GP, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)


def test_empty_batch_rejected():
    with pytest.raises(ValidationError):
        sl.solve_gheats((), GP, sl.default_grid(GP))


def test_time_loop_allocates_nothing_per_step():
    # a per-step temporary of one (nx - 2, K) operand would add 25.6 KB here
    fs = (eng.cosine(), eng.ramp(0.0), eng.square(), eng.negated(eng.square()))
    k, nx = len(fs), 801
    grid = sl.default_grid(GP, nx=nx)
    sl.solve_gheats(fs, GP, grid, 0.05)  # warm numpy's caches outside the trace

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
    refs = sl.solve_gheats(fs, GP, sl.default_grid(GP))
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
        sl.solve_gheats(fs, GP, sl.default_grid(GP)), abs=5e-3)


def test_quadrature_zero_variance_point_mass():
    gp = sl.GParams(0.0, 1.0)
    assert sl.gnormal_references((eng.negated(eng.square()),), gp) == pytest.approx((0.0,), abs=1e-12)


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
