"""m-dependence machinery: residue classes, moment inequality, reductions."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import pytest

import sublexp as sl
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.mdep as mdep
from sublexp.errors import ValidationError

from conftest import certain_pm1_iid, pm1_uncertain, stationary_1dep, variance_uncertain

TOL = 1e-10


# ---------------------------------------------------------------------------
# Residue classes
# ---------------------------------------------------------------------------


def test_residue_classes_m1_k5():
    dec = mdep.ResidueDecomposition(1, 5)
    assert dec.classes == ((2, 4), (1, 3, 5))


def test_residue_classes_m0_single_class():
    dec = mdep.ResidueDecomposition(0, 4)
    assert dec.classes == ((1, 2, 3, 4),)


def test_residue_classes_m2_k7():
    dec = mdep.ResidueDecomposition(2, 7)
    assert dec.classes == ((3, 6), (1, 4, 7), (2, 5))


def test_residue_classes_validation():
    with pytest.raises(ValidationError):
        mdep.ResidueDecomposition(-1, 5)
    with pytest.raises(ValidationError):
        mdep.ResidueDecomposition(1, 0)


@pytest.mark.parametrize("m", range(5))
def test_residue_classes_follow_the_stored_rule(m):
    for k in range(1, 31):
        want = tuple(tuple(i for i in range(1, k + 1) if i % (m + 1) == j) for j in range(m + 1))
        assert mdep.ResidueDecomposition(m, k).classes == want
        flat = sorted(i for cls in want for i in cls)
        assert flat == list(range(1, k + 1))
        assert all(b - a == m + 1 for cls in want for a, b in zip(cls, cls[1:]))


def test_residue_class_of_window_model_is_independent():
    # indices m+1 apart share no innovations, so products factorize
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 1.0), 5)
    cls = mdep.ResidueDecomposition(1, 5).classes[1][:2]  # (1, 3)
    (joint,), _ = sl.window_columns(model, cls, [lambda xs: xs[0] * xs[1]], [])
    (up,), (lo,) = sl.window_columns(model, cls[1:], [lambda xs: xs[0]], [lambda xs: xs[0]])
    (composed,), _ = sl.window_columns(
        model, cls[:1], [lambda xs: xs[0] * up if xs[0] >= 0 else xs[0] * lo], [])
    assert joint == pytest.approx(composed, abs=1e-12)


# ---------------------------------------------------------------------------
# Moment-inequality verifier
# ---------------------------------------------------------------------------


def test_rosenthal_iid_certain_terms():
    (rep,) = mdep.rosenthal_checks([(certain_pm1_iid(3), 3, 2.0)])
    assert rep.term_variance == pytest.approx(3.0, abs=TOL)
    assert rep.term_moments == pytest.approx(3.0, abs=TOL)
    assert rep.term_means == pytest.approx(0.0, abs=TOL)
    # exhaustive over the 8 sign paths: E[max_k S_k^2] = 30/8
    assert rep.lhs == pytest.approx(3.75, abs=TOL)
    assert rep.fitted_C == pytest.approx(3.75 / 6.0, abs=TOL)


def test_rosenthal_lhs_dominates_variance_term():
    model = sl.SequenceModel.iid(variance_uncertain(), 4)
    reports = mdep.rosenthal_checks([(model, 2, 2.0), (model, 4, 2.0)])
    for rep in reports:
        assert rep.lhs >= rep.term_variance - TOL


def test_rosenthal_lhs_matches_history_recursion():
    # the path-max DP against the full-history route, on a mean-uncertain
    # 1-dependent model where the adaptive law choice matters
    # (horizons below the model's n read its prefix off the one graph)
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 0.5), 3)
    cases = [(3, 2.0), (2, 3.0), (3, 3.0)]
    reports = mdep.rosenthal_checks([(model, n, p) for n, p in cases])
    for (n, p), rep in zip(cases, reports):
        def path_max(xs, _p=p):
            s, m = 0.0, 0.0
            for x in xs:
                s += x
                m = max(m, abs(s))
            return m ** _p

        (brute,), _ = sl.window_columns(model, range(1, n + 1), [path_max], [])
        assert rep.lhs == pytest.approx(brute, abs=TOL)


def test_rosenthal_rejects_small_p():
    with pytest.raises(ValidationError):
        mdep.rosenthal_checks([(certain_pm1_iid(2), 2, 2.0), (certain_pm1_iid(2), 2, 1.0)])


def test_rosenthal_checks_of_no_case_is_empty():
    assert mdep.rosenthal_checks([]) == ()


def test_rosenthal_checks_sweep_upper_values_only(monkeypatch):
    sweeps = []
    sweep_columns = eng.sweep_columns

    def counting(graph, upper, lower):
        sweeps.append((len(upper), len(lower)))
        return sweep_columns(graph, upper, lower)

    monkeypatch.setattr(eng, "sweep_columns", counting)
    model = certain_pm1_iid(4)
    reports = mdep.rosenthal_checks([(model, 2, 2.0), (model, 4, 3.0), (model, 4, 2.0)])
    assert len(reports) == 3
    assert sweeps == [(3, 0)]


def test_rosenthal_battery_is_deterministic():
    a = mdep.rosenthal_battery(7)
    b = mdep.rosenthal_battery(7)
    assert [i.ident for i in a] == [i.ident for i in b]
    assert len(mdep.rosenthal_battery()) >= 200


def test_rosenthal_battery_slice_bounded():
    insts = [i for i in mdep.rosenthal_battery() if i.n <= 5][:20]
    assert insts
    found = mdep.rosenthal_checks([(inst.model, inst.n, inst.p) for inst in insts])
    for inst, rep in zip(insts, found):
        assert (rep.n, rep.p, rep.m) == (inst.n, inst.p, inst.model.m)
        assert math.isfinite(rep.lhs)
        assert rep.lhs <= rep.fitted_C * rep.rhs_sum + 1e-9


def test_rosenthal_battery_holds_one_graph_at_a_time():
    battery = mdep.rosenthal_battery()
    cases = [(inst.model, inst.n, inst.p) for inst in battery]
    # the model of the largest running-max graph: m = 2, weights (1, 1, 1), 33,474 states
    models = {model for model, _, _ in cases if model.weights == (1.0,) * 3}
    largest = max(models, key=lambda model: sum(map(len, eng.compile_sum(
        model, track_max=True).args)))
    alone = [case for case in cases if case[0] == largest]

    def peak(cases):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mdep.rosenthal_checks(cases)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # 1.05 here; keeping the battery's 21 graphs alive to the end reads 1.29
    assert peak(cases) < 1.25 * peak(alone)


def test_rosenthal_battery_builds_one_model_per_family():
    battery = mdep.rosenthal_battery()
    families = [list(g) for _, g in itertools.groupby(battery, key=lambda i: i.model)]
    assert len(families) == 27
    for family in families:
        assert all(inst.model is family[0].model for inst in family)
        assert family[0].model.n == max(inst.n for inst in family)
        assert len({(inst.n, inst.p) for inst in family}) == len(family) == 9


# ---------------------------------------------------------------------------
# Z reduction to 1-dependence
# ---------------------------------------------------------------------------


def test_z_reduce_m1_blocks_are_singletons():
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 1.0), 5)
    red = mdep.z_reduce(model)
    assert red.blocks == ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))
    assert red.k_n_prime == 6  # empty tail block dropped from the ranges


def test_z_reduce_m2_k7_trace():
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 0.5, 0.25), 7)
    red = mdep.z_reduce(model)
    assert red.k_n_prime == 4
    assert red.blocks == ((1, 2), (3, 4), (5, 6), (7, 7))


def test_z_reduce_validates_m():
    with pytest.raises(ValidationError, match="m >= 1"):
        mdep.z_reduce(sl.SequenceModel.iid(pm1_uncertain(), 5))


@pytest.mark.parametrize("m", range(1, 5))
def test_z_reduction_follows_the_stored_rule(m):
    for k_n in range(1, 31):
        k_prime = k_n // m + 1
        want = [(m * (k - 1) + 1, m * k) for k in range(1, k_prime)]
        if m * (k_prime - 1) + 1 <= k_n:
            want.append((m * (k_prime - 1) + 1, k_n))
        red = mdep.ZReduction(m, k_n)
        assert (red.k_n_prime, red.blocks) == (k_prime, tuple(want))
        assert [i for a, b in red.blocks for i in range(a, b + 1)] == list(range(1, k_n + 1))


def test_z_reduce_preserves_eval_sum():
    model = sl.SequenceModel.moving_window(variance_uncertain(), (1.0, 0.5, 1.0), 5)
    red = mdep.z_reduce(model)
    union = [k for a, b in red.blocks for k in range(a, b + 1)]
    for f in eng.catalog():
        direct, via_blocks = sl.evaluate_columns(sl.compile_sum(model, masks=[None, union]),
                                                 [(f, model.n)])
        assert direct.upper == pytest.approx(via_blocks.upper, abs=TOL)
        assert direct.lower == pytest.approx(via_blocks.lower, abs=TOL)


def test_z_blocks_are_one_dependent():
    # non-adjacent Z blocks share no innovations: products factorize
    model = sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, 1.0, 0.5), 6)
    red = mdep.z_reduce(model)
    b1, b3 = red.blocks[0], red.blocks[2]
    i1 = tuple(range(b1[0], b1[1] + 1))
    i3 = tuple(range(b3[0], b3[1] + 1))
    (joint,), _ = sl.window_columns(
        model, i1 + i3,
        [lambda xs: math.fsum(xs[: len(i1)]) * math.fsum(xs[len(i1):])], [])
    (up,), (lo,) = sl.window_columns(model, i3, [math.fsum], [math.fsum])
    (composed,), _ = sl.window_columns(
        model, i1,
        [lambda xs: math.fsum(xs) * up if math.fsum(xs) >= 0 else math.fsum(xs) * lo], [])
    assert joint == pytest.approx(composed, abs=1e-12)


def test_z_block_second_moments_shape():
    model = stationary_1dep(4)
    red = mdep.z_reduce(model)
    ms = mdep.z_block_second_moments(model, red)
    assert len(ms) == len(red.blocks)
    assert all(lo <= up + TOL for up, lo in ms)


# ---------------------------------------------------------------------------
# Three-part split
# ---------------------------------------------------------------------------


def test_split_boundary_single_block():
    model = stationary_1dep(4)
    sp = mdep.three_part_split(model, 4, 3)
    assert sp.blocks_mask == (1, 2, 3)
    assert sp.gaps_mask == (4,)
    assert sp.tail_mask == ()
    assert sp.a3_m2_over_n == 0.0


def test_split_masks_partition():
    model = stationary_1dep(48)
    sp = mdep.three_part_split(model, 48, 6)
    merged = sorted(sp.blocks_mask + sp.gaps_mask + sp.tail_mask)
    assert merged == list(range(1, 49))


def test_split_rejects_masks_that_do_not_partition():
    sp = mdep.three_part_split(stationary_1dep(20), 20, 4)
    shifted = tuple(i + 1 for i in sp.gaps_mask)  # each gap overlaps the next block
    with pytest.raises(ValidationError):
        dataclasses.replace(sp, gaps_mask=shifted)


def test_split_gap_second_moment_value():
    # m-gaps sit m+1 apart: independent, certain-zero-mean, E[X^2] = 2 each
    model = stationary_1dep(48)
    sp = mdep.three_part_split(model, 48, 6)
    q = 48 // 7
    assert sp.a2_m2_over_n == pytest.approx(q * 2.0 / 48.0, abs=TOL)


def test_split_tail_second_moment_value():
    # tail of r = 48 - 6*7 = 6 indices: e_a + 2 e_{a+1} + ... + 2 e_{a+r-1} + e_{a+r},
    # independent certain-zero-mean innovations, E = 1 + 4 (r - 1) + 1 = 4r - 2
    model = stationary_1dep(48)
    sp = mdep.three_part_split(model, 48, 6)
    assert len(sp.tail_mask) == 6
    assert sp.a3_m2_over_n == pytest.approx((4 * 6 - 2) / 48.0, abs=TOL)


def test_split_triangle_inequality():
    model = stationary_1dep(20)
    sp = mdep.three_part_split(model, 20, 4)
    B, _ = cond.row_context(model, 20).Bn
    a1 = math.sqrt(sp.a1_m2_over_n * 20)
    a2 = math.sqrt(sp.a2_m2_over_n * 20)
    a3 = math.sqrt(sp.a3_m2_over_n * 20)
    assert abs(B - a1) <= a2 + a3 + 1e-9


@pytest.mark.parametrize("model, n, p_n", [
    (stationary_1dep(4), 4, 3),  # one block and its gap: the tail is empty
    (stationary_1dep(14), 14, 6),  # two blocks and gaps: the tail is empty
    (stationary_1dep(20), 20, 4),
    (sl.SequenceModel.moving_window(pm1_uncertain(), (1.0, -0.5, 0.5), 11), 11, 2),
], ids=["one-block", "two-blocks", "tail", "m-2"])
def test_split_reads_an_empty_tail_as_a_root_of_sum_0(model, n, p_n):
    sp = mdep.three_part_split(model, n, p_n)
    parts = (sp.blocks_mask, sp.gaps_mask, sp.tail_mask)
    # the reference: one root per non-empty part, and 0.0 in place of an empty one
    found = iter(sl.evaluate_columns(sl.compile_sum(model.prefix(n),
                                                    masks=[mask for mask in parts if mask]),
                                     [(eng.square(), n)]))
    want = [(next(found).upper if mask else 0.0) / n for mask in parts]
    got = (sp.a1_m2_over_n, sp.a2_m2_over_n, sp.a3_m2_over_n)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_split_validation():
    model = stationary_1dep(6)
    with pytest.raises(ValidationError):
        mdep.three_part_split(model, 6, 6)  # p_n + m > n
    with pytest.raises(ValidationError):
        mdep.three_part_split(sl.SequenceModel.iid(pm1_uncertain(), 6), 6, 2)


# ---------------------------------------------------------------------------
# Stationarity
# ---------------------------------------------------------------------------


def test_stationarity_of_window_models():
    model = stationary_1dep(9)
    assert mdep.stationarity_test(model, 3, 2) <= 1e-12


def test_stationarity_zero_shift_is_exact():
    model = stationary_1dep(6)
    assert mdep.stationarity_test(model, 0, 3) == 0.0


def test_two_regime_model_is_not_stationary():
    sets = [sl.singleton(sl.two_point_law(1.0))] * 2 + [
        sl.singleton(sl.two_point_law(2.0))
    ] * 2
    model = sl.SequenceModel(sets)
    assert mdep.stationarity_test(model, 2, 2) > 0.5


def test_stationarity_validation():
    with pytest.raises(ValidationError):
        mdep.stationarity_test(stationary_1dep(4), 3, 2)
