"""Backward-induction engine: examples, oracle equivalence, model structure."""

from __future__ import annotations

import math
import re
import tracemalloc

import pytest

import sublexp as sl
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.mdep as mdep
from sublexp.errors import GuardError, StateCapError, ValidationError

from conftest import certain_pm1_iid, pm1_uncertain, random_model, stationary_1dep

TOL = 1e-10


# ---------------------------------------------------------------------------
# Sums of coordinates
# ---------------------------------------------------------------------------


def test_two_step_mean_uncertain_square():
    model = sl.SequenceModel.iid(pm1_uncertain(), 2)
    (res,) = sl.eval_sums(model, eng.square(), [None])
    assert res.upper == pytest.approx(2.4, abs=TOL)
    assert res.lower == pytest.approx(1.6, abs=TOL)


def test_singleton_laws_reduce_to_convolution():
    lawA = sl.DiscreteLaw((-1.0, 2.0), (0.25, 0.75))
    lawB = sl.DiscreteLaw((-2.0, 0.5, 1.0), (0.3, 0.3, 0.4))
    model = sl.SequenceModel([sl.singleton(lawA), sl.singleton(lawB)])
    phi = lambda s: math.cos(s) + s * s
    expected = sum(
        pa * pb * phi(va + vb)
        for va, pa in zip(lawA.values, lawA.probs)
        for vb, pb in zip(lawB.values, lawB.probs)
    )
    (res,) = sl.eval_sums(model, eng.Functional("mix", phi), [None])
    assert res.upper == pytest.approx(expected, abs=1e-12)
    assert res.lower == pytest.approx(expected, abs=1e-12)


def test_trivial_window_equals_independent():
    mw = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0,), 3)
    ind = sl.SequenceModel.iid(pm1_uncertain(), 3)
    fs = (eng.square(), eng.cosine(), eng.identity())
    columns = [(f, 3) for f in fs]
    for a, b in zip(sl.evaluate_columns(sl.compile_sum(mw), columns),
                    sl.evaluate_columns(sl.compile_sum(ind), columns)):
        assert a.upper == pytest.approx(b.upper, abs=TOL)
        assert a.lower == pytest.approx(b.lower, abs=TOL)


def test_state_cap_reports_count():
    model = sl.SequenceModel.iid(pm1_uncertain(), 6)
    with pytest.raises(StateCapError) as err:
        sl.compile_sum(model, state_cap=5)
    assert err.value.count > 5
    # sums of +-1 draws: layers of 1, 2, 3 states reach 6 > 5 at draw 2
    assert err.value.step == 2
    assert err.value.layer_sizes == (1, 2, 3)
    assert sum(err.value.layer_sizes) == err.value.count
    assert "at draw 2 of 6" in str(err.value)


def test_compile_holds_a_small_multiple_of_its_graph():
    # the Rosenthal battery's largest running-max graph: m = 2, weights (1, 1, 1)
    models = {inst.model for inst in mdep.rosenthal_battery() if inst.model.weights == (1.0,) * 3}
    graphs = {model: sl.compile_sum(model, track_max=True) for model in models}
    model = max(models, key=lambda model: sum(map(len, graphs[model].args)))
    graph = graphs.pop(model)
    assert sum(map(len, graph.args)) == 33_474
    kept = sum(st.child.nbytes for st in graph.steps) + sum(arg.nbytes for arg in graph.args)
    del graph, graphs
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sl.compile_sum(model, track_max=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 7.4 here; a merge that sorts position-packed keys reaches 9.5
    assert peak < 8.5 * kept


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_the_dp_on_the_flagship_example():
    model = sl.SequenceModel.iid(pm1_uncertain(), 2)
    res = sl.oracle_policy_enum(model, eng.square())
    assert res.upper == pytest.approx(2.4, abs=TOL)
    assert res.lower == pytest.approx(1.6, abs=TOL)


def test_oracle_single_stage_is_set_maximum():
    set_ = pm1_uncertain()
    model = sl.SequenceModel.iid(set_, 1)
    res = sl.oracle_policy_enum(model, eng.identity())
    assert res.upper == pytest.approx(sl.upper_expect(set_, lambda x: x), abs=TOL)
    assert res.lower == pytest.approx(sl.lower_expect(set_, lambda x: x), abs=TOL)


def test_oracle_zero_mean_square_additivity():
    model = sl.SequenceModel.iid(sl.singleton(sl.two_point_law(1.0)), 3)
    res = sl.oracle_policy_enum(model, eng.square())
    assert res.upper == pytest.approx(3.0, abs=TOL)


def test_oracle_guards():
    with pytest.raises(GuardError):
        sl.oracle_policy_enum(sl.SequenceModel.iid(pm1_uncertain(), 7), eng.square())
    wide = sl.singleton(sl.DiscreteLaw((0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5))
    with pytest.raises(GuardError):
        sl.oracle_policy_enum(sl.SequenceModel.iid(wide, 2), eng.square())


def test_engine_matches_oracle_randomized(rng):
    fs = (eng.square(), eng.cosine(), eng.ramp(0.0))
    for _ in range(40):
        model = random_model(rng)
        found = sl.evaluate_columns(sl.compile_sum(model), [(f, model.n) for f in fs])
        for f, got in zip(fs, found):
            want = sl.oracle_policy_enum(model, f)
            assert got.upper == pytest.approx(want.upper, abs=TOL)
            assert got.lower == pytest.approx(want.lower, abs=TOL)


# ---------------------------------------------------------------------------
# Second-moment structure
# ---------------------------------------------------------------------------


def test_Bn_examples():
    B, _ = cond.row_context(certain_pm1_iid(5), 5).Bn
    assert B == pytest.approx(math.sqrt(5.0), abs=TOL)
    B, _ = cond.row_context(sl.SequenceModel.iid(pm1_uncertain(), 2), 2).Bn
    assert B == pytest.approx(math.sqrt(2.4), abs=TOL)


def test_moving_window_Bn_closed_form():
    inn = sl.singleton(sl.two_point_law(1.0))
    for n in (2, 5, 9):
        model = sl.SequenceModel.moving_window(inn, (1.0, 1.0), n)
        B, b = cond.row_context(model, n).Bn
        assert B * B == pytest.approx(4 * n - 2, abs=TOL)
        assert b * b == pytest.approx(4 * n - 2, abs=TOL)


def test_certain_zero_mean_upper_variance_is_additive(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        sets = []
        per_index = []
        for _ in range(n):
            sigmas = sorted({rng.choice((0.5, 1.0, 1.5)) for _ in range(rng.randint(1, 2))})
            set_ = sl.ambiguity([sl.two_point_law(s) for s in sigmas])
            sets.append(set_)
            per_index.append(max(s * s for s in sigmas))
        model = sl.SequenceModel(sets)
        (res,) = sl.eval_sums(model, eng.square(), [None])
        assert res.upper == pytest.approx(sum(per_index), abs=TOL)


# ---------------------------------------------------------------------------
# Cross moments and window functionals
# ---------------------------------------------------------------------------


def test_cross_moment_independent_zero_mean():
    model = sl.SequenceModel(
        [sl.singleton(sl.two_point_law(1.0)), sl.singleton(sl.two_point_law(0.5))]
    )
    (up,), _ = sl.window_columns(model, (1, 2), [lambda xs: xs[0] * xs[1]], [])
    assert up == pytest.approx(0.0, abs=TOL)


def test_cross_moment_shared_innovation():
    inn = sl.singleton(sl.two_point_law(1.0))
    model = sl.SequenceModel.moving_window(inn, (1.0, 1.0), 5)
    (up,), _ = sl.window_columns(model, (2, 3), [lambda xs: xs[0] * xs[1]], [])
    assert up == pytest.approx(1.0, abs=TOL)


def test_cross_moment_marginal_consistency():
    model = stationary_1dep(5)
    (via_pair,), _ = sl.window_columns(model, (2, 3), [lambda xs: xs[0] * xs[0]], [])
    (via_index,), _ = sl.window_columns(model, (2,), [lambda xs: xs[0] * xs[0]], [])
    assert via_pair == pytest.approx(via_index, abs=TOL)


# ---------------------------------------------------------------------------
# Independence structure (sequential factorization)
# ---------------------------------------------------------------------------


def _product_factorizes(model, left, right, tol, psi=None, chi=None):
    """Check E[psi(X_left) chi(X_right)] against the nested-evaluation form."""
    nl = len(left)
    psi = psi or (lambda xs: math.fsum(xs))
    chi = chi or (lambda xs: math.fsum(xs) + 0.25)
    (joint,), _ = sl.window_columns(model, tuple(left) + tuple(right),
                                    [lambda xs: psi(xs[:nl]) * chi(xs[nl:])], [])
    (up,), (lo,) = sl.window_columns(model, right, [chi], [chi])
    (composed,), _ = sl.window_columns(
        model, left, [lambda xs: psi(xs) * up if psi(xs) >= 0 else psi(xs) * lo], [])
    return abs(joint - composed) <= tol


def test_blocks_beyond_m_are_independent():
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 1.0), 6)
    # gap of m+1 = 2 between the windows
    assert _product_factorizes(model, (1, 2), (5, 6), 1e-12)
    assert _product_factorizes(model, (1,), (3,), 1e-12)


def test_blocks_beyond_m_factorize_for_catalog_functionals():
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 0.5), 6)
    for f in eng.catalog():
        for g in (eng.cosine(), eng.ramp(0.0)):
            assert _product_factorizes(
                model, (1, 2), (5, 6), 1e-12,
                psi=lambda xs, _f=f.phi: _f(math.fsum(xs)),
                chi=lambda xs, _g=g.phi: _g(math.fsum(xs)),
            ), (f.name, g.name)


def test_adjacent_blocks_are_dependent():
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 1.0), 4)
    (joint,), _ = sl.window_columns(model, (1, 2), [lambda xs: xs[0] * xs[1]], [])
    (up,), (lo,) = sl.window_columns(model, (2,), [lambda xs: xs[0]], [lambda xs: xs[0]])
    (composed,), _ = sl.window_columns(
        model, (1,), [lambda xs: xs[0] * up if xs[0] >= 0 else xs[0] * lo], [])
    # overlapping windows share an innovation; the factorization must fail
    assert abs(joint - composed) > 0.5


def test_window_shift_invariance():
    model = stationary_1dep(9)
    psis = [lambda xs, _f=f.phi: _f(math.fsum(xs)) for f in (eng.square(), eng.cosine())]
    base, _ = sl.window_columns(model, (1, 2), psis, [])
    moved, _ = sl.window_columns(model, (5, 6), psis, [])
    assert base == pytest.approx(moved, abs=1e-12)


# ---------------------------------------------------------------------------
# Functional algebra invariants of the upper expectation of a sum
# ---------------------------------------------------------------------------


def test_eval_sum_monotone_and_homogeneous_in_f(rng):
    fs = (
        eng.cosine(),
        eng.Functional("cos+1", lambda s: math.cos(s) + 1.0),
        eng.Functional("2cos", lambda s: 2.0 * math.cos(s)),
        eng.Functional("cos+sq", lambda s: math.cos(s) + s * s),
    )
    for _ in range(10):
        model = random_model(rng, max_n=3)
        (base, shifted, doubled, dominating), _ = eng.sweep_columns(
            sl.compile_sum(model), [(f, model.n) for f in fs], [])
        assert shifted == pytest.approx(base + 1.0, abs=TOL)
        assert doubled == pytest.approx(2.0 * base, abs=TOL)
        assert dominating >= base - TOL


def test_eval_sum_subadditive_in_f(rng):
    for _ in range(10):
        model = random_model(rng, max_n=3)
        f = eng.cosine()
        g = eng.ramp(0.0)
        both = eng.Functional("cos+ramp", lambda s: f.phi(s) + g.phi(s))
        (up_both, up_f, up_g), _ = eng.sweep_columns(
            sl.compile_sum(model), [(both, model.n), (f, model.n), (g, model.n)], [])
        assert up_both <= up_f + up_g + TOL


# ---------------------------------------------------------------------------
# Masked sums, clipping, path maximum
# ---------------------------------------------------------------------------


def test_masked_sum_restricts_indices():
    model = certain_pm1_iid(4)
    full, half = sl.eval_sums(model, eng.square(), [None, (1, 3)])
    assert full.upper == pytest.approx(4.0, abs=TOL)
    assert half.upper == pytest.approx(2.0, abs=TOL)


def test_clip_matches_truncated_sets():
    set_ = sl.singleton(sl.DiscreteLaw((-3.0, 1.0, 2.0), (0.25, 0.5, 0.25)))
    model = sl.SequenceModel.iid(set_, 3)
    (clipped,) = sl.eval_sums(model, eng.square(), [None], x_clip=1.5)
    (direct,) = sl.eval_sums(sl.SequenceModel.iid(sl.truncate(set_, 1.5), 3), eng.square(), [None])
    assert clipped.upper == pytest.approx(direct.upper, abs=TOL)
    assert clipped.lower == pytest.approx(direct.lower, abs=TOL)


def test_running_max_dominates_final_sum():
    model = sl.SequenceModel.iid(pm1_uncertain(), 4)
    f = eng.Functional("abs2", lambda x: x * x)
    (with_max,) = sl.eval_sums(model, f, [None], track_max=True)
    (plain,) = sl.eval_sums(model, f, [None])
    assert with_max.upper >= plain.upper - TOL


def test_running_max_brute_force_small():
    # exhaustive check of E[max_k |S_k|] on a two-step singleton model
    law = sl.DiscreteLaw((-1.0, 2.0), (0.5, 0.5))
    model = sl.SequenceModel.iid(sl.singleton(law), 2)
    expected = 0.0
    for v1, p1 in zip(law.values, law.probs):
        for v2, p2 in zip(law.values, law.probs):
            expected += p1 * p2 * max(abs(v1), abs(v1 + v2))
    (got,) = sl.eval_sums(model, eng.Functional("m", lambda x: x), [None],
                          track_max=True)
    assert got.upper == pytest.approx(expected, abs=TOL)


# ---------------------------------------------------------------------------
# Model plumbing
# ---------------------------------------------------------------------------


def test_prefix_restricts_horizon():
    model = stationary_1dep(8)
    pre = model.prefix(3)
    assert pre.n == 3 and pre.m == 1
    with pytest.raises(ValidationError):
        model.prefix(9)


def test_model_validation():
    with pytest.raises(ValidationError):
        sl.SequenceModel.iid(pm1_uncertain(), 0)
    with pytest.raises(ValidationError):
        sl.SequenceModel.moving_window(pm1_uncertain(), (), 3)
    with pytest.raises(ValidationError):
        sl.SequenceModel.iid(pm1_uncertain(), 2, scale=0.0)
    a = pm1_uncertain()
    for bad in (
        {"sets": (a, a), "weights": ()},
        {"sets": (a, a), "weights": (1.0, math.nan)},
        {"sets": (a, a), "weights": (math.inf,)},
        {"sets": (a, a), "weights": (1.0, 1.0, 1.0)},  # fewer sets than weights: n < 1
        {"sets": (), "weights": (1.0,)},
        {"sets": (a, a), "scale": -1.0},
        {"sets": (a, a), "scale": math.inf},
        {"sets": (a, a), "scale": math.nan},
    ):
        with pytest.raises(ValidationError):
            sl.SequenceModel(**bad)
    model = sl.SequenceModel([a, a, a], [1, 0.5])
    assert (model.sets, model.weights, model.n, model.m) == ((a, a, a), (1.0, 0.5), 2, 1)
    assert sl.SequenceModel.moving_window(a, (1.0,), 3) == sl.SequenceModel.iid(a, 3)


def test_catalog_names_round_trip():
    for f in eng.catalog():
        assert eng.catalog_by_name(f.name).name == f.name
    assert eng.catalog_by_name("ramp@0.25").phi(1.5) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        eng.catalog_by_name("nope")


@pytest.mark.parametrize("name", ["ramp@abc", "ramp@", "ramp@inf", "ramp@-inf", "ramp@nan",
                                  "abspow@1e999", "abspow@x2"])
def test_a_malformed_or_non_finite_suffix_is_a_validation_error(name):
    with pytest.raises(ValidationError, match=re.escape(f"functional {name!r} needs a finite")):
        eng.catalog_by_name(name)
