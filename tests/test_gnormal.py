"""G-normal evaluation: the PDE solver, the CLT oracle, and the quadrature check."""

from __future__ import annotations

import math

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
    up = sl.peng_oracle(eng.square(), GP, 16)
    lo = -sl.peng_oracle(eng.neg_square(), GP, 16)
    assert sl.G(1.0, GP) == pytest.approx(up, abs=1e-10)
    assert sl.G(-1.0, GP) == pytest.approx(-lo, abs=1e-10)


def test_gparams_validation():
    with pytest.raises(ValidationError):
        sl.GParams(1.0, 0.5)
    with pytest.raises(ValidationError):
        sl.GParams(-0.1, 1.0)


# ---------------------------------------------------------------------------
# solve_gheat and solve_gheats
# ---------------------------------------------------------------------------


def test_classical_reduction_square():
    grid = sl.default_grid(SYM)
    u = sl.solve_gheat(eng.square(), SYM, grid, 1.0)
    assert abs(u - 1.0) <= 2e-3


def test_constants_are_fixed_points():
    grid = sl.default_grid(GP)
    c = eng.Functional("const", lambda x: 2.5, eng.GROWTH_BOUNDED_LIPSCHITZ)
    assert sl.solve_gheat(c, GP, grid, 1.0) == 2.5


def test_extremal_variances():
    grid = sl.default_grid(GP)
    assert sl.solve_gheat(eng.square(), GP, grid) == pytest.approx(1.0, abs=5e-3)
    assert sl.solve_gheat(eng.neg_square(), GP, grid) == pytest.approx(-0.5, abs=5e-3)


def test_symmetric_case_matches_analytic_cos():
    # classical heat semigroup: E[cos(x + sqrt(t) Z)] = exp(-t/2) cos(x)
    grid = sl.default_grid(SYM)
    u = sl.solve_gheat(eng.cosine(), SYM, grid, 1.0)
    assert u == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_symmetric_case_matches_analytic_ramp():
    # E[min(1, Z^+)] = (phi(0) - phi(1)) + (1 - Phi(1)) for standard normal Z
    grid = sl.default_grid(SYM)
    u = sl.solve_gheat(eng.ramp(0.0), SYM, grid, 1.0)
    density0 = 1.0 / math.sqrt(2 * math.pi)
    density1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    cdf1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    assert u == pytest.approx((density0 - density1) + (1 - cdf1), abs=1e-5)


def test_upper_value_dominates_constant_variance_gaussians():
    # the adversarial diffusion can hold any sigma^2 in the interval, so the
    # upper expectation is at least every constant-variance Gaussian value
    grid = sl.default_grid(GP)
    u = sl.solve_gheat(eng.cosine(), GP, grid, 1.0)
    for s2 in (0.5, 0.7, 1.0):
        assert u >= math.exp(-0.5 * s2) - 1e-4
    # and the adaptive policy is strictly better than the best constant one
    assert u > math.exp(-0.5 * 0.5) + 1e-4


def test_scheme_monotone_in_initial_data():
    grid = sl.default_grid(GP)
    u_ramp = sl.solve_gheat(eng.ramp(0.0), GP, grid)
    one = eng.Functional("one", lambda x: 1.0, eng.GROWTH_BOUNDED_LIPSCHITZ)
    assert u_ramp <= sl.solve_gheat(one, GP, grid) + 1e-12
    u_cos = sl.solve_gheat(eng.cosine(), GP, grid)
    above = eng.Functional("cos+.1", lambda x: math.cos(x) + 0.1,
                           eng.GROWTH_BOUNDED_LIPSCHITZ)
    assert u_cos <= sl.solve_gheat(above, GP, grid) + 1e-12


def test_subadditivity_transfer():
    grid = sl.default_grid(GP)
    f, g = eng.cosine(), eng.ramp(0.0)
    both = eng.Functional("f+g", lambda x: f.phi(x) + g.phi(x), eng.GROWTH_QUADRATIC)
    lhs = sl.solve_gheat(both, GP, grid)
    rhs = sl.solve_gheat(f, GP, grid) + sl.solve_gheat(g, GP, grid)
    assert lhs <= rhs + 2e-3


def test_refinement_increments_decrease_for_smooth_data():
    grid = sl.default_grid(GP)
    vals = []
    for _ in range(4):
        vals.append(sl.solve_gheat(eng.cosine(), GP, grid))
        grid = grid.refined()
    incs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert incs[1] < incs[0] and incs[2] < incs[1]


def test_refinement_converged_for_kinked_data():
    grid = sl.default_grid(GP)
    vals = []
    for _ in range(3):
        vals.append(sl.solve_gheat(eng.ramp(0.0), GP, grid))
        grid = grid.refined()
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 1e-5


def test_stability_violation_raises():
    bad = sl.PDEGrid(8.0, 801, 1.0)
    with pytest.raises(PDEStabilityError):
        sl.solve_gheat(eng.square(), GP, bad, 1.0)


def test_domain_too_small_raises():
    grid = sl.PDEGrid(2.0, 201, 1e-5)
    with pytest.raises(ValidationError):
        sl.solve_gheat(eng.square(), GP, grid, 1.0)


def test_nonfinite_initial_data_raises():
    grid = sl.default_grid(GP)
    blowup = eng.Functional("inf", lambda x: math.inf if x > 7.9 else 0.0,
                            eng.GROWTH_QUADRATIC)
    with pytest.raises(PDENumericsError):
        sl.solve_gheat(blowup, GP, grid, 1.0)


def test_nonfinite_initial_data_names_the_row():
    grid = sl.default_grid(GP, nx=101)
    blowup = eng.Functional("blowup", lambda x: math.nan if x < -7.9 else x,
                            eng.GROWTH_QUADRATIC)
    with pytest.raises(PDENumericsError, match="initial data of blowup is not finite") as err:
        sl.solve_gheats([eng.cosine(), blowup, eng.ramp(0.0)], GP, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)


def test_overflow_in_a_batch_names_the_row():
    # 2.0 * 1e308 overflows in the first step; only that row goes non-finite
    grid = sl.default_grid(GP, nx=101)
    huge = eng.Functional("huge", lambda x: 1e308 if abs(x) < 1.0 else 0.0,
                          eng.GROWTH_QUADRATIC)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PDENumericsError, match="in huge after step 0") as err:
            sl.solve_gheats([eng.cosine(), huge, eng.ramp(0.0)], GP, grid)
    assert "cos" not in str(err.value) and "ramp" not in str(err.value)


def test_empty_batch_rejected():
    with pytest.raises(ValidationError):
        sl.solve_gheats((), GP, sl.default_grid(GP))


# ---------------------------------------------------------------------------
# peng_oracle
# ---------------------------------------------------------------------------


def test_peng_no_ambiguity_variance_exact():
    for n in (1, 4, 9):
        assert sl.peng_oracle(eng.square(), SYM, n) == pytest.approx(1.0, abs=1e-10)


def test_peng_odd_functional_vanishes():
    for n in (1, 2, 4):
        val = sl.peng_oracle(eng.identity(), GP, n)
        assert val == pytest.approx(0.0, abs=1e-10)
        # cross-check against the brute-force policy oracle
        sigmas = (math.sqrt(GP.sigma_lo2), math.sqrt(GP.sigma_hi2))
        model = sl.SequenceModel.iid(
            sl.ambiguity(sl.two_point_law(s) for s in sigmas), n, 1.0
        )
        want = sl.oracle_policy_enum(model, eng.scaled(eng.identity(), n ** -0.5))
        assert val == pytest.approx(want.upper, abs=1e-10)


def test_peng_upper_variance_additivity():
    for n in (1, 3, 8):
        assert sl.peng_oracle(eng.square(), GP, n) == pytest.approx(1.0, abs=1e-10)


def test_peng_degenerate_lower_variance():
    gp = sl.GParams(0.0, 1.0)
    assert sl.peng_oracle(eng.square(), gp, 4) == pytest.approx(1.0, abs=1e-10)
    assert -sl.peng_oracle(eng.neg_square(), gp, 4) == pytest.approx(0.0, abs=1e-10)


def test_peng_oracles_sweep_one_graph_once_for_any_list_of_n(monkeypatch):
    fs = (eng.square(), eng.cosine(), eng.ramp(0.0))
    ns = (5, 2, 9, 5, 1)
    want = tuple(tuple(sl.peng_oracle(f, GP, n) for f in fs) for n in ns)
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
    grid = sl.default_grid(GP)
    for f in (eng.cosine(), eng.ramp(0.0)):
        ref = sl.solve_gheat(f, GP, grid)
        gaps = [abs(sl.peng_oracle(f, GP, n) - ref) for n in (8, 16, 32)]
        assert gaps[2] <= gaps[1] <= gaps[0]


def test_scaling_stability_under_doubling():
    # a xi + b xi' ~ sqrt(a^2+b^2) xi: doubling the sample must reproduce
    # the sqrt(2)-scaled one-sample value in the limit
    for f in (eng.cosine(), eng.ramp(0.0)):
        fs = eng.scaled(f, math.sqrt(2.0))
        gap = abs(sl.peng_oracle(fs, GP, 32) - sl.peng_oracle(fs, GP, 64))
        assert gap < 0.01


# ---------------------------------------------------------------------------
# gnormal_reference
# ---------------------------------------------------------------------------


def test_quadrature_convex_concave():
    assert sl.gnormal_reference(eng.square(), GP) == pytest.approx(1.0, abs=1e-9)
    assert sl.gnormal_reference(eng.neg_square(), GP) == pytest.approx(-0.5, abs=1e-9)


def test_quadrature_affine_vanishes():
    assert sl.gnormal_reference(eng.identity(), GP) == pytest.approx(0.0, abs=1e-9)


def test_quadrature_rejects_mixed_curvature():
    with pytest.raises(ValidationError):
        sl.gnormal_reference(eng.cosine(), GP)


def test_quadrature_agrees_with_pde():
    grid = sl.default_grid(GP)
    for f in (eng.square(), eng.neg_square()):
        assert sl.gnormal_reference(f, GP) == pytest.approx(
            sl.solve_gheat(f, GP, grid), abs=5e-3
        )


def test_quadrature_zero_variance_point_mass():
    gp = sl.GParams(0.0, 1.0)
    assert sl.gnormal_reference(eng.neg_square(), gp) == pytest.approx(0.0, abs=1e-12)
