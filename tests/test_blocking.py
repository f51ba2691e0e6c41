"""Blocking construction: block-size search, beta weights, plans, diagnostics."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import sublexp as sl
import sublexp.blocking as blk
import sublexp.conditions as cond
import sublexp.engine as eng
from sublexp.errors import ValidationError

from conftest import certain_pm1_iid, pm1_uncertain, stationary_1dep, variance_uncertain

TOL = 1e-10


# ---------------------------------------------------------------------------
# choose_pn
# ---------------------------------------------------------------------------


def test_choose_pn_floor_at_two():
    assert blk.choose_pn(cond.row_context(certain_pm1_iid(1), 1)) == 2


def test_choose_pn_infinite_tol_returns_pmax():
    model = certain_pm1_iid(16, scale=0.25)
    assert blk.choose_pn(cond.row_context(model, 16), tol=math.inf) == 4


def test_choose_pn_threshold_algebra():
    # supports in [-c, c] scaled 1/sqrt(n): the sum is exactly zero whenever
    # B^2/p^4 >= c^2/n, so the search returns the even floor of n^(1/4)
    for n, expected in ((16, 2), (81, 2)):
        model = certain_pm1_iid(n, scale=1.0 / math.sqrt(n))
        assert blk.choose_pn(cond.row_context(model, n)) == expected


def _excess_ratios(ctx: cond.RowContext) -> dict[int, float]:
    """``choose_pn``'s statistic per even candidate, each from a ``marginal_columns`` call of its own.

    The candidates are the even p from the even floor of sqrt(k_n), at least 2, down to 2.
    """
    B2 = ctx.B2
    top = max(2, math.isqrt(ctx.model.n) // 2 * 2)
    return {p: p**4 / B2 * eng.ordered_sum(eng.marginal_columns(
                ctx.model, [lambda x, _c=B2 / p**4: max(x * x - _c, 0.0)], [])[0][0])
            for p in range(top, 1, -2)}


def test_choose_pn_reads_every_candidate_off_one_recursion(engine_calls):
    # candidates 6, 4, 2 at n = 36; 4, 2 at n = 25 and 16
    models = [stationary_1dep(36), sl.SequenceModel.iid(pm1_uncertain(), 25, scale=0.2),
              sl.SequenceModel(
                  [variance_uncertain() if k % 3 else pm1_uncertain() for k in range(16)])]
    for model in models:
        ctx = cond.row_context(model, model.n)
        ratios = _excess_ratios(ctx)
        # every candidate's own statistic, and the float just below it, as tol
        tols = (*ratios.values(), *(math.nextafter(r, -math.inf) for r in ratios.values()))
        for tol in (tol for tol in tols if tol > 0.0):
            engine_calls["window_columns"].clear()
            got = blk.choose_pn(ctx, tol=tol)
            # one call under one law, one per index otherwise
            assert len(engine_calls["window_columns"]) == (1 if eng.one_law(model) else model.n)
            assert got == next((p for p, r in ratios.items() if r <= tol), 2)


def test_choose_pn_validation():
    ctx = cond.row_context(certain_pm1_iid(4), 4)
    with pytest.raises(ValidationError):
        blk.choose_pn(ctx, tol=0.0)


# ---------------------------------------------------------------------------
# beta weights
# ---------------------------------------------------------------------------


def test_beta_interior_and_boundary():
    n = 8
    model = certain_pm1_iid(n, scale=1.0 / math.sqrt(n))
    beta = blk.compute_beta(cond.row_context(model, n))
    assert beta[0] == pytest.approx(2.0 / n, abs=TOL)
    assert beta[-1] == pytest.approx(2.0 / n, abs=TOL)
    for b in beta[1:-1]:
        assert b == pytest.approx(3.0 / n, abs=TOL)


def test_beta_single_index():
    model = certain_pm1_iid(1)
    assert blk.compute_beta(cond.row_context(model, 1)) == (1.0,)


def test_beta_total_bound():
    model = stationary_1dep(12)
    beta = blk.compute_beta(cond.row_context(model, 12))
    (res,) = sl.evaluate_columns(sl.row_sums(model), [(eng.square(), 12)])
    (squares,), _ = sl.marginal_columns(model, [lambda x: x * x], [])
    B2, m2_total = res.upper, sum(squares)
    assert sum(beta) <= 3.0 * m2_total / B2 + TOL


# ---------------------------------------------------------------------------
# build_plan
# ---------------------------------------------------------------------------


def test_plan_trace_equal_betas():
    # interior betas are all equal, so the min-index tie break fires
    model = certain_pm1_iid(20)
    plan = blk.build_plan(cond.row_context(model, 20), 4)
    assert plan.cuts == (3, 6, 9, 12, 15, 18)
    assert plan.h == 7
    assert plan.blocks[0] == (1, 2)
    assert plan.blocks[1] == (4, 5)
    assert plan.blocks[-1] == (19, 20)
    assert plan.windows[0] == (3, 4)
    assert plan.sentinel == 21


def test_plan_degenerate_single_block():
    model = certain_pm1_iid(3)
    plan = blk.build_plan(cond.row_context(model, 3), 4)
    assert plan.cuts == ()
    assert plan.h == 1
    assert plan.blocks == ((1, 2, 3),)


def test_plan_rejects_odd_pn():
    with pytest.raises(ValidationError):
        blk.build_plan(cond.row_context(certain_pm1_iid(8), 8), 3)


def test_plan_rejects_odd_pn_before_any_evaluation(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("build_plan evaluated the model before checking p_n")

    ctx = cond.row_context(stationary_1dep(8), 8)
    for name in ("row_sums", "compile_sum", "window_columns", "marginal_columns"):
        monkeypatch.setattr(eng, name, forbidden)
    with pytest.raises(ValidationError):
        blk.build_plan(ctx, 3)


def test_plan_invariants_on_random_models():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(2, 24)
        scale = rng.choice((1.0, 1.0 / math.sqrt(n)))
        if rng.random() < 0.5:
            model = sl.SequenceModel.iid(
                sl.ambiguity([sl.two_point_law(rng.choice((0.5, 1.0))),
                              sl.two_point_law(rng.choice((1.0, 1.5)))]),
                n, scale,
            )
        else:
            model = sl.SequenceModel.moving_window(
                variance_uncertain(), (1.0, rng.choice((0.5, 1.0))), n, scale
            )
        p_n = rng.choice((2, 4, 6))
        plan = blk.build_plan(cond.row_context(model, n), p_n)
        g = (0,) + plan.cuts
        for a, b in zip(g, g[1:]):
            assert a + p_n // 2 < b <= a + p_n
        flat = sorted(set(plan.cuts) | {k for b in plan.blocks for k in b})
        assert flat == list(range(1, n + 1))


def _stored_plan(n: int, p_n: int, beta: tuple[float, ...]) -> tuple[tuple, tuple, tuple]:
    """Cuts, windows and blocks by the loops that built them when a plan stored all three."""
    g = [0]
    windows = []
    while g[-1] + p_n <= n:
        window = tuple(range(g[-1] + p_n // 2 + 1, g[-1] + p_n + 1))
        best = min(beta[k - 1] for k in window)
        g.append(min(k for k in window if beta[k - 1] == best))
        windows.append(window)
    cuts = tuple(g[1:])
    blocks = []
    prev = 0
    for b in cuts + (n + 1,):
        blocks.append(tuple(range(prev + 1, b)))
        prev = b
    return cuts, tuple(windows), tuple(blocks)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_plan_derives_the_stored_windows_and_blocks(data):
    # few distinct betas, so the smallest-index tie break fires often
    n = data.draw(st.integers(1, 64), label="n")
    p_n = data.draw(st.sampled_from((2, 4, 6, 8, 12, 16)), label="p_n")
    beta = tuple(data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0),
                                    min_size=n, max_size=n), label="beta"))
    ctx = cond.RowContext(sl.SequenceModel.iid(pm1_uncertain(), n), {}, eng.DEFAULT_STATE_CAP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blk, "compute_beta", lambda _: beta)
        plan = blk.build_plan(ctx, p_n)
    cuts, windows, blocks = _stored_plan(n, p_n, beta)
    assert (plan.cuts, plan.windows, plan.blocks, plan.h) == (cuts, windows, blocks, len(blocks))


def test_plan_refuses_a_cut_past_k_n():
    # the spacing holds (2 < 4 <= 4) and the recursion stopped in time (4 + 4 > 3)
    with pytest.raises(ValidationError, match="cuts must lie in 1..k_n"):
        blk.BlockingPlan(k_n=3, p_n=4, beta=(0.0, 0.0, 0.0), cuts=(4,))
    assert blk.BlockingPlan(k_n=4, p_n=4, beta=(0.0,) * 4, cuts=(4,)).blocks == ((1, 2, 3), ())


def test_cut_sparsity_bound():
    for n, p_n in ((16, 4), (32, 6), (48, 8)):
        plan = blk.build_plan(cond.row_context(stationary_1dep(n), n), p_n)
        cut_mass = sum(plan.beta[c - 1] for c in plan.cuts)
        assert cut_mass <= (2.0 / p_n) * sum(plan.beta) + TOL


# ---------------------------------------------------------------------------
# Block sums and diagnostics
# ---------------------------------------------------------------------------


def test_build_plan_requires_low_dependence(monkeypatch):
    # one removed index separates blocks into independent sums only for m <= 1
    def forbidden(*args, **kwargs):
        pytest.fail("build_plan evaluated an m = 2 row before refusing it")

    ctx = cond.row_context(
        sl.SequenceModel.moving_window(variance_uncertain(), (1.0, 1.0, 1.0), 8), 8)
    for name in ("row_sums", "compile_sum", "window_columns", "marginal_columns"):
        monkeypatch.setattr(eng, name, forbidden)
    with pytest.raises(ValidationError, match="m > 1 is not supported yet"):
        blk.build_plan(ctx, 2)


def test_linear_functional_decomposes_over_blocks_and_cuts():
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 1.0), 8)
    plan = blk.build_plan(cond.row_context(model, 8), 4)
    (total,) = sl.evaluate_columns(sl.row_sums(model), [(eng.identity(), 8)])
    # each block sum is one mask of one graph; empty blocks add 0
    blocks = [b for b in plan.blocks if b]
    parts = sum(res.upper for res in sl.evaluate_columns(sl.compile_sum(model, masks=blocks),
                                                         [(eng.identity(), 8)]))
    (means,), _ = sl.marginal_columns(model, [lambda x: x], [])
    parts += sum(means[c - 1] for c in plan.cuts)
    assert total.upper == pytest.approx(parts, abs=TOL)


def test_block_sums_are_independent():
    # E[Y_1 Y_2] over both blocks' joint window equals E[Y_1 * (E or e)[Y_2]]
    model = stationary_1dep(8)
    first, second = blk.build_plan(cond.row_context(model, 8), 4).blocks[:2]
    split = len(first)
    (prod,), _ = sl.window_columns(
        model, first + second, [lambda xs: math.fsum(xs[:split]) * math.fsum(xs[split:])], [])
    (y2,) = sl.evaluate_columns(sl.compile_sum(model, masks=[second]), [(eng.identity(), 8)])
    composed = eng.Functional("y1 E[y2]", lambda y: y * (y2.upper if y >= 0 else y2.lower))
    (res,) = sl.evaluate_columns(sl.compile_sum(model, masks=[first]), [(composed, 8)])
    assert prod == pytest.approx(res.upper, abs=1e-12)


def test_diagnostics_flagship_values():
    ctx = cond.row_context(stationary_1dep(8), 8)
    plan = blk.build_plan(ctx, 2)
    diag = blk.diagnostics(ctx, plan)
    # every other index is removed at p_n = 2
    assert plan.cuts == (2, 4, 6, 8)
    assert diag.removed_mass == pytest.approx(8.0 / 30.0, abs=TOL)
    assert diag.Btilde2_over_B2 == pytest.approx(8.0 / 30.0, abs=TOL)
    assert diag.sum_beta_cuts == pytest.approx(22.0 / 30.0, abs=TOL)


def test_diagnostics_bounds():
    for n, p_n in ((16, 4), (32, 6)):
        ctx = cond.row_context(stationary_1dep(n), n)
        diag = blk.diagnostics(ctx, blk.build_plan(ctx, p_n))
        assert diag.removed_mass <= diag.sum_beta_cuts + 1e-9
        assert diag.sum_delta_lo <= 3.0 * diag.sum_beta_cuts + 1e-9
        assert diag.sum_delta_hi <= 3.0 * diag.sum_beta_cuts + 1e-9
        assert diag.btilde2_over_B2 <= diag.Btilde2_over_B2 + TOL


def test_diagnostics_monotone_along_reference_schedule():
    rows = []
    for n, p_n in ((8, 2), (16, 4), (32, 6), (48, 8)):
        ctx = cond.row_context(stationary_1dep(n), n)
        rows.append(blk.diagnostics(ctx, blk.build_plan(ctx, p_n)))
    for key in ("sum_beta_cuts", "removed_mass"):
        vals = [getattr(d, key) for d in rows]
        assert all(b < a for a, b in zip(vals, vals[1:])), key
    gaps = [abs(d.Btilde2_over_B2 - 1.0) for d in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_diagnostics_rejects_a_plan_of_another_row():
    ctx = cond.row_context(stationary_1dep(8), 8)
    plan = blk.build_plan(cond.row_context(stationary_1dep(6), 6), 2)
    with pytest.raises(ValidationError):
        blk.diagnostics(ctx, plan)


def _per_cut_delta_sum(model, cuts, B2, lower):
    """The correction sum with one ``window_columns`` call per cut and neighbor."""
    def moment(window):
        psis = [lambda xs: xs[0] * xs[-1]]
        ups, los = sl.window_columns(model, window, [] if lower else psis, psis if lower else [])
        return (los if lower else ups)[0]

    total = 0.0
    for k in cuts:
        d = moment((k,))
        for nb in (k - 1, k + 1):
            if 1 <= nb <= model.n:
                d += 2.0 * moment((k, nb))
        total += d / B2
    return abs(total)


def test_delta_sums_take_one_window_call_per_offset_under_one_law(monkeypatch):
    # one call per moment gives both sides: the lower and the upper correction sum
    a, b = pm1_uncertain(), variance_uncertain()
    calls = []
    window = eng.window_columns

    def counting(model, indices, upper, lower, **kwargs):
        calls.append(tuple(indices))
        return window(model, indices, upper, lower, **kwargs)

    # the last cut is index n, which has no right neighbor
    for model, one_law in ((stationary_1dep(9), True), (sl.SequenceModel.iid(a, 9), True),
                           (sl.SequenceModel((a, b) * 4 + (a,)), False)):
        ctx = cond.row_context(model, 9)
        cuts = (3, 5, 9)
        want = tuple(_per_cut_delta_sum(model, cuts, ctx.B2, lower) for lower in (True, False))
        calls.clear()
        monkeypatch.setattr(eng, "window_columns", counting)
        got = blk._delta_sums(model, cuts, ctx.B2)
        monkeypatch.setattr(eng, "window_columns", window)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert calls == ([(1,), (1, 2)] if one_law else
                         [(3,), (2, 3), (3, 4), (5,), (4, 5), (5, 6), (9,), (8, 9)])
