"""Hypothesis diagnostics: Lindeberg, means, variance ratios, capacity tails."""

from __future__ import annotations

import math

import pytest

import sublexp as sl
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.experiments as exp
from sublexp.errors import ValidationError

from conftest import certain_pm1_iid, pm1_uncertain, stationary_1dep

TOL = 1e-10


# ---------------------------------------------------------------------------
# Lindeberg functional
# ---------------------------------------------------------------------------


def test_lindeberg_vanishes_for_bounded_small_supports():
    # |X| <= 1 and eps B^2 >= 1 kill every positive part
    model = certain_pm1_iid(4)
    assert cond.lindeberg(cond.row_context(model, 4), 0.5) == pytest.approx(0.0, abs=TOL)


def test_lindeberg_scaled_array_vanishes_beyond_two():
    for n in (2, 5):
        model = certain_pm1_iid(n, scale=1.0 / math.sqrt(n))
        assert cond.lindeberg(cond.row_context(model, n), 0.5) == pytest.approx(0.0, abs=TOL)


def test_lindeberg_single_term_value():
    model = certain_pm1_iid(1)
    assert cond.lindeberg(cond.row_context(model, 1), 0.25) == pytest.approx(0.75, abs=TOL)


def test_lindeberg_monotone_in_eps():
    ctx = cond.row_context(stationary_1dep(8), 8)
    vals = [cond.lindeberg(ctx, e) for e in (0.01, 0.05, 0.25, 1.0)]
    assert all(v >= 0 for v in vals)
    assert all(b <= a + TOL for a, b in zip(vals, vals[1:]))


def test_lindeberg_rejects_bad_eps():
    with pytest.raises(ValidationError):
        cond.lindeberg(cond.row_context(certain_pm1_iid(2), 2), 0.0)


# ---------------------------------------------------------------------------
# Mean uncertainty
# ---------------------------------------------------------------------------


def test_mean_uncertainty_zero_for_certain_models():
    assert cond.mean_uncertainty(cond.row_context(stationary_1dep(6), 6)) == pytest.approx(0.0, abs=TOL)


def test_mean_uncertainty_grows_under_sqrt_scaling():
    vals = []
    for n in (8, 16, 32):
        model = sl.SequenceModel.iid(pm1_uncertain(), n, scale=1.0 / math.sqrt(n))
        vals.append(cond.mean_uncertainty(cond.row_context(model, n)))
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
        v = cond.mean_uncertainty(cond.row_context(inv_n, n))
        assert v == pytest.approx(cond.mean_uncertainty(cond.row_context(inv_sqrt, n)),
                                  abs=1e-9)
        vals.append(v)
    assert vals[0] < vals[1] < vals[2] <= 2.0


def test_mean_uncertainty_iff_certain_means():
    uncertain = sl.SequenceModel.iid(pm1_uncertain(), 3)
    assert cond.mean_uncertainty(cond.row_context(uncertain, 3)) > 0.1
    shifted = sl.singleton(sl.DiscreteLaw((0.0, 2.0), (0.5, 0.5)))  # mean 1, certain
    certain = sl.SequenceModel.iid(shifted, 3)
    assert cond.mean_uncertainty(cond.row_context(certain, 3)) > 0.1


# ---------------------------------------------------------------------------
# Variance ratio
# ---------------------------------------------------------------------------


def test_variance_ratio_no_ambiguity_is_one():
    ctx = cond.row_context(certain_pm1_iid(6), 6)
    for M in (1, 3, 6):
        assert cond.variance_ratio(ctx, M) == pytest.approx(1.0, abs=TOL)


def test_variance_ratio_stationary_plateau():
    ctx = cond.row_context(stationary_1dep(16), 16)
    for M in (4, 8, 16):
        assert cond.variance_ratio(ctx, M) == pytest.approx(0.49, abs=TOL)


def test_variance_ratio_single_term():
    model = stationary_1dep(4)
    up = sl.eval_window(model, (1,), lambda xs: xs[0] * xs[0])
    lo = sl.eval_window(model, (1,), lambda xs: xs[0] * xs[0], lower=True)
    assert cond.variance_ratio(cond.row_context(model, 4), 1) == pytest.approx(lo / up, abs=TOL)


def test_variance_ratio_degenerate_is_nan():
    model = sl.SequenceModel.iid(sl.singleton(sl.point_mass(0.0)), 3)
    assert math.isnan(cond.variance_ratio(cond.row_context(model, 3), 2))


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
    with pytest.raises(ValidationError, match="need p >= 2"):
        cond.pth_moment(ctx, 1.5)
    for read in (lambda: cond.pth_moment(ctx, 2.0), lambda: cond.lindeberg(ctx, 0.25),
                 lambda: cond.mean_uncertainty(ctx), lambda: cond.m2_ratio(ctx),
                 lambda: cond.build_report(ctx)):
        with pytest.raises(ValidationError, match="degenerate model"):
            read()


# ---------------------------------------------------------------------------
# p-th moments and report assembly
# ---------------------------------------------------------------------------


def test_pth_moment_value():
    model = certain_pm1_iid(4)  # B^2 = 4, per-index E|X|^3 = 1
    assert cond.pth_moment(cond.row_context(model, 4), 3.0) == pytest.approx(4.0 / 8.0, abs=TOL)


def test_report_fields_cover_grids():
    model = stationary_1dep(8)
    rep = cond.build_report(cond.row_context(model, 8), eps_grid=(0.1, 0.5), M_grid=(2, 8),
                            p_grid=(2.0,))
    assert set(rep.lindeberg) == {0.1, 0.5}
    assert set(rep.var_ratio) == {2, 8}
    assert set(rep.pth) == {2.0}
    assert rep.trunc is None


def test_report_reads_prefixes_off_one_graph_per_row(monkeypatch):
    # every S_M is read off the row graph, or off one clipped row graph with
    # tau, and each graph takes at most one backward sweep
    ctx = cond.row_context(exp.reference_experiments()["truncated-heavy"].model_for(8), 8)
    compiles, swept = [], []
    compile_sum, evaluate_columns = eng.compile_sum, eng.evaluate_columns

    def counting(model, **kwargs):
        compiles.append(kwargs.get("x_clip"))
        return compile_sum(model, **kwargs)

    def sweeping(graph, columns):
        swept.append(graph)
        return evaluate_columns(graph, columns)

    monkeypatch.setattr(eng, "compile_sum", counting)
    monkeypatch.setattr(eng, "evaluate_columns", sweeping)
    plain = cond.build_report(ctx)
    assert compiles == []
    assert [g is ctx.graph for g in swept] == [True]
    swept.clear()
    clipped = cond.build_report(ctx, tau=1.0)
    assert compiles == [1.0]
    assert len(swept) == 2 and swept[0] is not swept[1]
    assert set(plain.var_ratio) == set(clipped.trunc.var_ratio) == {2, 4, 8}
    # S_n's ratio alone is the row's own second moment's: no sweep at all
    swept.clear()
    assert cond.variance_ratio(ctx, 8) == plain.var_ratio[8] == ctx.m2.lower / ctx.m2.upper
    assert swept == []


@pytest.mark.parametrize("name", ["stationary-1dep", "truncated-heavy"])
def test_report_equals_one_marginals_call_per_quantity(name):
    ctx = cond.row_context(exp.reference_experiments()[name].model_for(8), 8)
    rep = cond.build_report(ctx, eps_grid=(0.1, 0.5), M_grid=(4,), p_grid=(2.0, 3.0), tau=1.0)
    B2, model = ctx.B2, ctx.model

    def total(phi, **kwargs):
        return eng.ordered_sum(eng.marginals(model, phi, **kwargs))

    tB2 = total(lambda x: x * x, x_clip=1.0)
    want = {
        "lindeberg": [total(lambda x, c=eps * B2: max(x * x - c, 0.0)) / B2 for eps in (0.1, 0.5)],
        "mean_unc": [eng.mean_spread(model) / math.sqrt(B2)],
        "m2_ratio": [total(lambda x: x * x) / B2],
        "pth": [total(lambda x, p=p: abs(x) ** p) / math.sqrt(B2) ** p for p in (2.0, 3.0)],
        "cap_tail": [total(lambda x, e=eps: 1.0 if abs(x) > e else 0.0) for eps in (0.1, 0.5)],
        "trunc_B2": [tB2] * 3,
        "trunc_b2": [total(lambda x: x * x, lower=True, x_clip=1.0)],
        "trunc_mean_unc": [eng.mean_spread(model, x_clip=1.0) / math.sqrt(tB2)],
    }
    bounds = cond.truncated_bounds(ctx, 1.0)
    got = {
        "lindeberg": list(rep.lindeberg.values()),
        "mean_unc": [rep.mean_unc],
        "m2_ratio": [rep.m2_ratio],
        "pth": list(rep.pth.values()),
        "cap_tail": list(rep.cap_tail.values()),
        "trunc_B2": [rep.trunc.B_n2, cond.truncated_B2(ctx, 1.0), bounds[0]],
        "trunc_b2": [bounds[1]],
        "trunc_mean_unc": [rep.trunc.mean_unc],
    }
    assert {k: [v.hex() for v in vs] for k, vs in got.items()} == \
        {k: [v.hex() for v in vs] for k, vs in want.items()}
    # each single-quantity function reads the same value off its own report
    assert [cond.lindeberg(ctx, eps) for eps in (0.1, 0.5)] == got["lindeberg"]
    assert [cond.mean_uncertainty(ctx), cond.m2_ratio(ctx)] == [rep.mean_unc, rep.m2_ratio]
    assert [cond.pth_moment(ctx, p) for p in (2.0, 3.0)] == got["pth"]
    assert [cond.capacity_tail(ctx, eps) for eps in (0.1, 0.5)] == got["cap_tail"]


def test_report_takes_one_history_recursion_per_clip(monkeypatch):
    ctx = cond.row_context(exp.reference_experiments()["truncated-heavy"].model_for(8), 8)
    clips = []
    window = eng.window_columns

    def counting(model, indices, upper, lower, **kwargs):
        clips.append(kwargs.get("x_clip"))
        return window(model, indices, upper, lower, **kwargs)

    monkeypatch.setattr(eng, "window_columns", counting)
    cond.build_report(ctx)
    assert clips == [None]
    clips.clear()
    cond.build_report(ctx, tau=1.0)
    assert clips == [None, 1.0]


def test_wide_truncation_reproduces_untruncated_formulas():
    model = stationary_1dep(6)
    prof = cond.truncated_profile(cond.row_context(model, 6), tau=10.0, M_grid=(3, 6))
    raw_B2 = sum(sl.eval_window(model, (k,), lambda xs: xs[0] * xs[0]) for k in range(1, 7))
    assert prof.B_n2 == pytest.approx(raw_B2, abs=TOL)
    assert prof.mean_unc == pytest.approx(0.0, abs=TOL)
    for M in (3, 6):
        res = sl.eval_sum(model.prefix(M), eng.square())
        assert prof.var_ratio[M] == pytest.approx(res.lower / res.upper, abs=TOL)


def test_truncation_bites_heavy_support():
    law = sl.DiscreteLaw((-1.0, 5.0), (0.8, 0.2))
    model = sl.SequenceModel.iid(sl.singleton(law), 3)
    prof = cond.truncated_profile(cond.row_context(model, 3), tau=1.0)
    # clamped second moment: 0.8 * 1 + 0.2 * 1 = 1 per index
    assert prof.B_n2 == pytest.approx(3.0, abs=TOL)


def test_trend_slope_recovers_power_law():
    ns = (8, 16, 32, 64)
    vals = [3.0 * n ** -0.5 for n in ns]
    assert cond.trend_slope(ns, vals) == pytest.approx(-0.5, abs=1e-12)
    assert math.isnan(cond.trend_slope(ns, [0.0, 0.0, 0.0, 0.0]))
