"""Hypothesis diagnostics: Lindeberg, means, variance ratios, capacity tails."""

from __future__ import annotations

import math

import pytest

import sublexp as sl
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.experiments as exp
from sublexp.errors import StateCapError, ValidationError

from conftest import certain_pm1_iid, pm1_uncertain, stationary_1dep

TOL = 1e-10


def report(model: sl.SequenceModel, eps_grid=(), p_grid=()) -> cond.ConditionReport:
    """The report of ``model``'s full row at these grid points alone."""
    return cond.build_report(cond.row_context(model, model.n), eps_grid, p_grid)


def lindeberg(model: sl.SequenceModel, eps: float) -> float:
    return report(model, eps_grid=(eps,)).lindeberg[eps]


# ---------------------------------------------------------------------------
# Lindeberg functional
# ---------------------------------------------------------------------------


def test_lindeberg_vanishes_for_bounded_small_supports():
    # |X| <= 1 and eps B^2 >= 1 kill every positive part
    assert lindeberg(certain_pm1_iid(4), 0.5) == pytest.approx(0.0, abs=TOL)


def test_lindeberg_scaled_array_vanishes_beyond_two():
    for n in (2, 5):
        model = certain_pm1_iid(n, scale=1.0 / math.sqrt(n))
        assert lindeberg(model, 0.5) == pytest.approx(0.0, abs=TOL)


def test_lindeberg_single_term_value():
    assert lindeberg(certain_pm1_iid(1), 0.25) == pytest.approx(0.75, abs=TOL)


def test_lindeberg_monotone_in_eps():
    eps_grid = (0.01, 0.05, 0.25, 1.0)
    vals = [report(stationary_1dep(8), eps_grid).lindeberg[e] for e in eps_grid]
    assert all(v >= 0 for v in vals)
    assert all(b <= a + TOL for a, b in zip(vals, vals[1:]))


def test_lindeberg_rejects_bad_eps():
    with pytest.raises(ValidationError, match="eps must be > 0"):
        lindeberg(certain_pm1_iid(2), 0.0)


# ---------------------------------------------------------------------------
# Mean uncertainty
# ---------------------------------------------------------------------------


def test_mean_uncertainty_zero_for_certain_models():
    assert report(stationary_1dep(6)).mean_unc == pytest.approx(0.0, abs=TOL)


def test_mean_uncertainty_grows_under_sqrt_scaling():
    vals = []
    for n in (8, 16, 32):
        model = sl.SequenceModel.iid(pm1_uncertain(), n, scale=1.0 / math.sqrt(n))
        vals.append(report(model).mean_unc)
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 0.5  # the negative control is flagged by n = 32


def test_mean_uncertainty_scale_invariant_and_bounded():
    # numerator and normalizer both scale linearly, so the ratio is free of
    # the scaling rule; it is capped at 2 because B_n >= 0.2 n scale (the
    # mean-maximizing policy alone gives E[S^2] >= (0.2 n)^2)
    vals = []
    for n in (8, 16, 32):
        inv_n = sl.SequenceModel.iid(pm1_uncertain(), n, scale=1.0 / n)
        inv_sqrt = sl.SequenceModel.iid(pm1_uncertain(), n, scale=1.0 / math.sqrt(n))
        v = report(inv_n).mean_unc
        assert v == pytest.approx(report(inv_sqrt).mean_unc, abs=1e-9)
        vals.append(v)
    assert vals[0] < vals[1] < vals[2] <= 2.0


def test_mean_uncertainty_iff_certain_means():
    uncertain = sl.SequenceModel.iid(pm1_uncertain(), 3)
    assert report(uncertain).mean_unc > 0.1
    shifted = sl.singleton(sl.DiscreteLaw((0.0, 2.0), (0.5, 0.5)))  # mean 1, certain
    certain = sl.SequenceModel.iid(shifted, 3)
    assert report(certain).mean_unc > 0.1


# ---------------------------------------------------------------------------
# Variance ratio
# ---------------------------------------------------------------------------


def test_variance_ratio_no_ambiguity_is_one():
    ctx = cond.row_context(certain_pm1_iid(6), 6, M_grid=(1, 3))
    for M in (1, 3, 6):
        assert cond.variance_ratio(ctx, M) == pytest.approx(1.0, abs=TOL)


def test_variance_ratio_stationary_plateau():
    ctx = cond.row_context(stationary_1dep(16), 16, M_grid=(4, 8))
    for M in (4, 8, 16):
        assert cond.variance_ratio(ctx, M) == pytest.approx(0.49, abs=TOL)


def test_variance_ratio_single_term():
    model = stationary_1dep(4)
    (up,), (lo,) = sl.window_columns(model, (1,), [lambda xs: xs[0] * xs[0]],
                                     [lambda xs: xs[0] * xs[0]])
    ctx = cond.row_context(model, 4, M_grid=(1,))
    assert cond.variance_ratio(ctx, 1) == pytest.approx(lo / up, abs=TOL)


def test_variance_ratio_degenerate_is_nan():
    model = sl.SequenceModel.iid(sl.singleton(sl.point_mass(0.0)), 3)
    assert math.isnan(cond.variance_ratio(cond.row_context(model, 3, M_grid=(2,)), 2))


# ---------------------------------------------------------------------------
# Capacity tail
# ---------------------------------------------------------------------------


def test_capacity_tail_zero_inside_eps():
    model = certain_pm1_iid(5, scale=0.1)
    assert cond.capacity_tail(cond.row_context(model, 5), 0.25) == pytest.approx(0.0, abs=TOL)


def test_capacity_tail_direct_value():
    law = sl.DiscreteLaw((-3.0, 1.0), (0.5, 0.5))
    model = sl.SequenceModel.iid(sl.singleton(law), 4)
    assert cond.capacity_tail(cond.row_context(model, 4), 2.0) == pytest.approx(4 * 0.5, abs=TOL)


def test_capacity_tail_threshold_crossing():
    # fixed supports scaled by 1/sqrt(n): the tail empties once n > sup^2/eps^2
    vals = {}
    for n in (4, 16, 32):
        model = certain_pm1_iid(n, scale=1.0 / math.sqrt(n))
        vals[n] = cond.capacity_tail(cond.row_context(model, n), 0.25)
    assert vals[4] > 0.0
    assert vals[32] == pytest.approx(0.0, abs=TOL)


def test_capacity_tail_classical_for_singletons():
    law = sl.DiscreteLaw((-2.0, 0.0, 2.0), (0.25, 0.5, 0.25))
    model = sl.SequenceModel.iid(sl.singleton(law), 3)
    assert cond.capacity_tail(cond.row_context(model, 3), 1.0) == pytest.approx(3 * 0.5, abs=TOL)


def test_capacity_tail_bounded_by_n():
    model = stationary_1dep(6)
    assert cond.capacity_tail(cond.row_context(model, 6), 0.01) <= 6.0 + TOL


def test_unnormalized_tail_takes_a_zero_variance_model():
    # B_n = 0: the tail divides by nothing, every normalized quantity raises
    ctx = cond.row_context(sl.SequenceModel.iid(sl.singleton(sl.point_mass(0.0)), 3), 3)
    assert cond.capacity_tail(ctx, 0.25) == 0.0
    with pytest.raises(ValidationError, match="eps must be > 0"):
        cond.capacity_tail(ctx, 0.0)
    # a bad grid point is named before the degenerate normalizer
    with pytest.raises(ValidationError, match="eps must be > 0"):
        cond.build_report(ctx, eps_grid=(0.0,))
    with pytest.raises(ValidationError, match="need p >= 2"):
        cond.build_report(ctx, p_grid=(1.5,))
    for eps_grid, p_grid in (((), (2.0,)), ((0.25,), ()), ((), ()),
                             (cond.DEFAULT_EPS_GRID, cond.DEFAULT_P_GRID)):
        with pytest.raises(ValidationError, match="degenerate model"):
            cond.build_report(ctx, eps_grid, p_grid)


# ---------------------------------------------------------------------------
# p-th moments and report assembly
# ---------------------------------------------------------------------------


def test_pth_moment_value():
    model = certain_pm1_iid(4)  # B^2 = 4, per-index E|X|^3 = 1
    assert report(model, p_grid=(3.0,)).pth[3.0] == pytest.approx(4.0 / 8.0, abs=TOL)


def test_report_fields_cover_grids():
    model = stationary_1dep(8)
    rep = cond.build_report(cond.row_context(model, 8, M_grid=(2, 8)), eps_grid=(0.1, 0.5),
                            p_grid=(2.0,))
    assert set(rep.lindeberg) == {0.1, 0.5}
    assert set(rep.var_ratio) == {2, 8}
    assert set(rep.pth) == {2.0}
    assert rep.trunc is None


def test_report_reads_prefixes_off_one_graph_per_row(engine_calls):
    # every S_M of the row's grid, clipped or not, is read from the moments
    # of the context's one compile and one sweep: a report makes neither
    model = exp.reference_experiments()["truncated-heavy"].model_for(8)
    plain = cond.row_context(model, 8, M_grid=cond.default_M_grid(8))
    clipped = cond.row_context(model, 8, tau=1.0, M_grid=cond.default_M_grid(8))
    assert [call.get("x_clip") for call in engine_calls["compile_sum"]] == [[None], [None, 1.0]]
    assert len(engine_calls["sweep_columns"]) == 2
    engine_calls["compile_sum"].clear()
    engine_calls["sweep_columns"].clear()
    plain_rep, clipped_rep = cond.build_report(plain), cond.build_report(clipped)
    assert engine_calls["compile_sum"] == engine_calls["sweep_columns"] == []
    assert plain_rep.trunc is None
    assert set(plain_rep.var_ratio) == set(clipped_rep.trunc.var_ratio) == {2, 4, 8}
    assert clipped_rep.var_ratio == plain_rep.var_ratio
    # the clipped root's ratios are those of a compile of the clipped sum
    for M, ratio in clipped_rep.trunc.var_ratio.items():
        (res,) = eng.eval_sums(model.prefix(M), eng.square(), [None], x_clip=1.0)
        assert ratio == res.lower / res.upper
    assert cond.variance_ratio(plain, 8) == plain_rep.var_ratio[8] == plain.m2.lower / plain.m2.upper
    # a row built without tau has no truncated profile
    with pytest.raises(ValidationError, match="without tau"):
        cond.truncated_profile(plain)


@pytest.mark.parametrize("name", ["stationary-1dep", "truncated-heavy"])
def test_report_equals_one_marginals_call_per_quantity(name):
    ctx = cond.row_context(exp.reference_experiments()[name].model_for(8), 8, tau=1.0, M_grid=(4,))
    rep = cond.build_report(ctx, eps_grid=(0.1, 0.5), p_grid=(2.0, 3.0))
    B2, model = ctx.B2, ctx.model

    def total(phi, lower=False, x_clip=None):
        ups, los = eng.marginal_columns(model, [] if lower else [phi], [phi] if lower else [],
                                        x_clip=x_clip)
        return eng.ordered_sum((los if lower else ups)[0])

    def spread(x_clip=None):
        return eng.ordered_sum(eng.spread_columns(model, [], x_clip=x_clip)[1])

    tB2 = total(lambda x: x * x, x_clip=1.0)
    want = {
        "lindeberg": [total(lambda x, c=eps * B2: max(x * x - c, 0.0)) / B2 for eps in (0.1, 0.5)],
        "mean_unc": [spread() / math.sqrt(B2)],
        "m2_ratio": [total(lambda x: x * x) / B2],
        "pth": [total(lambda x, p=p: abs(x) ** p) / math.sqrt(B2) ** p for p in (2.0, 3.0)],
        "cap_tail": [total(lambda x, e=eps: 1.0 if abs(x) > e else 0.0) for eps in (0.1, 0.5)],
        "trunc_B2": [tB2] * 2,
        "trunc_b2": [total(lambda x: x * x, lower=True, x_clip=1.0)],
        "trunc_mean_unc": [spread(x_clip=1.0) / math.sqrt(tB2)],
    }
    bounds = cond.truncated_bounds(ctx, 1.0)
    got = {
        "lindeberg": list(rep.lindeberg.values()),
        "mean_unc": [rep.mean_unc],
        "m2_ratio": [rep.m2_ratio],
        "pth": list(rep.pth.values()),
        "cap_tail": list(rep.cap_tail.values()),
        "trunc_B2": [rep.trunc.B_n2, bounds[0]],
        "trunc_b2": [bounds[1]],
        "trunc_mean_unc": [rep.trunc.mean_unc],
    }
    assert {k: [v.hex() for v in vs] for k, vs in got.items()} == \
        {k: [v.hex() for v in vs] for k, vs in want.items()}
    # a report of one grid point gives the same value as the full grid
    for eps in (0.1, 0.5):
        assert cond.build_report(ctx, (eps,), ()).lindeberg[eps] == rep.lindeberg[eps]
    for p in (2.0, 3.0):
        assert cond.build_report(ctx, (), (p,)).pth[p] == rep.pth[p]
    assert [cond.capacity_tail(ctx, eps) for eps in (0.1, 0.5)] == got["cap_tail"]


def test_report_takes_one_history_recursion_per_clip(monkeypatch):
    model = exp.reference_experiments()["truncated-heavy"].model_for(8)
    clips = []
    window = eng.window_columns

    def counting(model, indices, upper, lower, **kwargs):
        clips.append(kwargs.get("x_clip"))
        return window(model, indices, upper, lower, **kwargs)

    monkeypatch.setattr(eng, "window_columns", counting)
    cond.build_report(cond.row_context(model, 8))
    assert clips == [None]
    clips.clear()
    ctx = cond.row_context(model, 8, tau=1.0)
    cond.build_report(ctx)
    assert clips == [None, 1.0]


def _bits(res: eng.EvalResult) -> tuple[str, str, int]:
    return res.upper.hex(), res.lower.hex(), res.state_count


def test_rows_read_off_the_largest_rows_graph_equal_their_own_contexts(engine_calls):
    ns, grids = (4, 6, 8), [(2, 4), (3,), (5, 8)]
    assert cond.row_graphs(stationary_1dep, ns) == [(stationary_1dep(8), ns)]
    ctxs = cond.row_contexts(stationary_1dep(8), ns, tau=1.0, M_grids=grids)
    assert len(engine_calls["compile_sum"]) == len(engine_calls["sweep_columns"]) == 1
    for n, grid, ctx in zip(ns, grids, ctxs):
        own = cond.row_context(stationary_1dep(n), n, tau=1.0, M_grid=grid)
        assert ctx.graph is ctxs[0].graph and own.graph is not ctx.graph
        assert ctx.model == own.model and sorted(ctx.moments) == sorted({n, *grid})
        assert ctx.M_grid == own.M_grid == grid
        for M in (n, *grid):
            # root 0 is the full sum, root 1 the sum clipped at tau, each its own compile
            want = [eng.eval_sums(ctx.model.prefix(M), eng.square(), [None], x_clip=clip)[0]
                    for clip in (None, 1.0)]
            assert [_bits(res) for res in ctx.moments[M]] == [_bits(res) for res in want]
            assert [_bits(res) for res in own.moments[M]] == [_bits(res) for res in want]
        calls = len(engine_calls["compile_sum"]), len(engine_calls["sweep_columns"])
        report = cond.build_report(ctx)
        # the context holds every S_M the report reads, at both roots
        assert (len(engine_calls["compile_sum"]), len(engine_calls["sweep_columns"])) == calls
        assert report == cond.build_report(own)
        assert list(report.var_ratio) == list(report.trunc.var_ratio) == list(grid)
    # a family that varies with n compiles each row alone
    heavy = exp.reference_experiments()["truncated-heavy"].model_for
    assert cond.row_graphs(heavy, ns) == [(heavy(n), (n,)) for n in ns]


def test_row_contexts_check_their_grids_and_tau():
    with pytest.raises(ValidationError, match="horizons must lie in 1..4"):
        cond.row_contexts(stationary_1dep(8), (4, 8), M_grids=[(5,), (8,)])
    with pytest.raises(ValidationError, match="one grid per row"):
        cond.row_contexts(stationary_1dep(8), (4, 8), M_grids=[(2,)])
    with pytest.raises(ValidationError, match="tau must be > 0"):
        cond.row_context(stationary_1dep(8), 8, tau=0.0)
    ctx = cond.row_contexts(stationary_1dep(8), (4, 8), M_grids=[(2,), ()])[0]
    assert math.isfinite(cond.variance_ratio(ctx, 2))
    # a horizon the row does not hold raises
    for M in (3, 6):
        with pytest.raises(ValidationError, match=f"holds no S_{M}"):
            cond.variance_ratio(ctx, M)


def test_state_cap_bounds_both_roots_of_a_row_together():
    model = stationary_1dep(8)
    counts = [eng.eval_sums(model, eng.square(), [None], x_clip=clip)[0].state_count
              for clip in (None, 1.0)]
    ctx = cond.row_context(model, 8, tau=1.0, state_cap=sum(counts))
    assert [res.state_count for res in ctx.moments[8]] == counts
    cond.row_context(model, 8, state_cap=counts[0])  # the full sum alone fits
    with pytest.raises(StateCapError):
        cond.row_context(model, 8, tau=1.0, state_cap=sum(counts) - 1)


def test_wide_truncation_reproduces_untruncated_formulas():
    model = stationary_1dep(6)
    prof = cond.truncated_profile(cond.row_context(model, 6, tau=10.0, M_grid=(3, 6)))
    (squares,), _ = sl.marginal_columns(model, [lambda x: x * x], [])
    raw_B2 = sum(squares)
    assert prof.B_n2 == pytest.approx(raw_B2, abs=TOL)
    assert prof.mean_unc == pytest.approx(0.0, abs=TOL)
    for M in (3, 6):
        (res,) = sl.eval_sums(model.prefix(M), eng.square(), [None])
        assert prof.var_ratio[M] == pytest.approx(res.lower / res.upper, abs=TOL)


def test_truncation_bites_heavy_support():
    law = sl.DiscreteLaw((-1.0, 5.0), (0.8, 0.2))
    model = sl.SequenceModel.iid(sl.singleton(law), 3)
    prof = cond.truncated_profile(cond.row_context(model, 3, tau=1.0))
    # clamped second moment: 0.8 * 1 + 0.2 * 1 = 1 per index
    assert prof.B_n2 == pytest.approx(3.0, abs=TOL)


def test_trend_slope_recovers_power_law():
    ns = (8, 16, 32, 64)
    vals = [3.0 * n ** -0.5 for n in ns]
    assert cond.trend_slope(ns, vals) == pytest.approx(-0.5, abs=1e-12)
    assert math.isnan(cond.trend_slope(ns, [0.0, 0.0, 0.0, 0.0]))
