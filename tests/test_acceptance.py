"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values next to each PASS line.  Everything is deterministic; tolerances are
pinned here and nowhere else.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import sublexp as sl
import sublexp.blocking as blk
import sublexp.cli as cli
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.mdep as mdep
from sublexp.experiments import reference_experiments

SEED = 20250811

#: Roundoff floor for grid-refinement comparisons: the explicit scheme is
#: exact on quadratic data, so refinement differences for phi = x^2 sit at
#: machine precision and are treated as converged below this level.
REFINEMENT_FLOOR = 1e-9

STATIONARY_NS = (8, 16, 32, 48)
STATIONARY_PNS = (2, 4, 6, 8)


def _bl_catalog() -> tuple[eng.Functional, ...]:
    """The bounded Lipschitz entries of the catalog."""
    return tuple(eng.catalog_by_name(name) for name in ("cos", "ramp@0"))


def _stationary_model(n: int) -> sl.SequenceModel:
    return reference_experiments()["stationary-1dep"].model_for(n)


def _pde_bounds(fs, gp: sl.GParams, grid: sl.PDEGrid) -> list[tuple[float, float]]:
    """Upper and lower G-normal value of each of ``fs``, from one batched solve."""
    values = sl.solve_gheats([g for f in fs for g in (f, eng.negated(f))], gp, grid)
    return [(up, -neg_up) for up, neg_up in zip(values[::2], values[1::2])]


def _nonincreasing(vals, slack=1e-15) -> bool:
    return all(b <= a + slack for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# 1. Engine vs brute-force policy oracle
# ---------------------------------------------------------------------------


def test_criterion_01_engine_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    values_pool = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
    fs = (eng.square(), eng.cosine(), eng.ramp(0.0))

    def rand_set():
        laws = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            vals = sorted(rng.sample(values_pool, k))
            w = [rng.randint(1, 4) for _ in range(k)]
            laws.append(sl.DiscreteLaw(tuple(vals), tuple(x / sum(w) for x in w)))
        return sl.ambiguity(laws)

    worst = 0.0
    count = 0
    for i in range(110):
        n = rng.randint(1, 4)
        scale = rng.choice((1.0, 0.5, 1.0 / math.sqrt(n)))
        if rng.random() < 0.5:
            model = sl.SequenceModel([rand_set() for _ in range(n)], scale=scale)
        else:
            m = rng.randint(0, 2)
            weights = tuple(rng.choice((-1.0, 0.5, 1.0)) for _ in range(m + 1))
            model = sl.SequenceModel.moving_window(rand_set(), weights, n, scale)
        f = fs[i % len(fs)]
        (got,) = sl.eval_sums(model, f, [None])
        want = sl.oracle_policy_enum(model, f)
        worst = max(worst, abs(got.upper - want.upper), abs(got.lower - want.lower))
        count += 1
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 1: {count} instances, worst |DP - oracle| = {worst:.3e}, "
          f"{elapsed:.1f}s")
    assert count >= 100
    assert worst <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Sub-linear axiom suite
# ---------------------------------------------------------------------------


def test_criterion_02_axiom_suite():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    values_pool = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    worst = 0.0
    triples = 0
    for _ in range(220):
        k = rng.randint(1, 4)
        support = tuple(sorted(rng.sample(values_pool, k)))
        laws = []
        for _ in range(rng.randint(1, 3)):
            w = [rng.randint(1, 5) for _ in range(k)]
            laws.append(sl.DiscreteLaw(support, tuple(x / sum(w) for x in w)))
        set_ = sl.ambiguity(laws)
        phi_t = {v: rng.uniform(-3, 3) for v in support}
        psi_t = {v: rng.uniform(-3, 3) for v in support}
        phi, psi = phi_t.__getitem__, psi_t.__getitem__
        up_phi, up_psi = sl.upper_expect(set_, phi), sl.upper_expect(set_, psi)

        dom = sl.upper_expect(set_, lambda v: phi(v) + abs(psi(v)))
        worst = max(worst, up_phi - dom)                          # monotonicity
        c = rng.uniform(-2, 2)
        worst = max(worst, abs(sl.upper_expect(set_, lambda v: c) - c))
        both = sl.upper_expect(set_, lambda v: phi(v) + psi(v))
        worst = max(worst, both - (up_phi + up_psi))              # sub-additivity
        lam = rng.uniform(0, 3)
        worst = max(worst, abs(sl.upper_expect(set_, lambda v: lam * phi(v)) - lam * up_phi))
        worst = max(worst, abs(sl.upper_expect(set_, lambda v: phi(v) + c) - (up_phi + c)))
        lo = sl.lower_expect(set_, phi)
        worst = max(worst, lo - up_phi)                           # conjugacy order
        worst = max(worst, abs(lo + sl.upper_expect(set_, lambda v: -phi(v))))
        triples += 1

    # the same axioms, lifted to sums on small sequence models
    for _ in range(20):
        n = rng.randint(1, 3)
        sets = []
        for _ in range(n):
            sigma = rng.choice((0.5, 1.0))
            sets.append(sl.ambiguity([sl.two_point_law(sigma), sl.two_point_law(1.5)]))
        model = sl.SequenceModel(sets)
        lam = rng.uniform(0, 2)
        scaled_f = eng.Functional("lc", lambda s, _l=lam: _l * math.cos(s))
        shifted = eng.Functional("c+", lambda s: math.cos(s) + 0.7)
        base, scaled_res, shifted_res = sl.evaluate_columns(
            sl.compile_sum(model), [(eng.cosine(), n), (scaled_f, n), (shifted, n)])
        worst = max(worst, abs(scaled_res.upper - lam * base.upper))
        worst = max(worst, abs(shifted_res.upper - (base.upper + 0.7)))

    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 2: {triples} triples, worst axiom violation = {worst:.3e}, "
          f"{elapsed:.1f}s")
    assert triples >= 200
    assert worst <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Classical reduction
# ---------------------------------------------------------------------------


def test_criterion_03_classical_reduction():
    t0 = time.monotonic()
    rng = random.Random(SEED + 2)
    worst = 0.0
    for _ in range(25):
        n = rng.randint(1, 5)
        laws = []
        for _ in range(n):
            k = rng.randint(1, 3)
            vals = sorted(rng.sample((-2.0, -1.0, 0.0, 0.5, 1.0, 2.0), k))
            w = [rng.randint(1, 4) for _ in range(k)]
            laws.append(sl.DiscreteLaw(tuple(vals), tuple(x / sum(w) for x in w)))
        model = sl.SequenceModel([sl.singleton(law) for law in laws])
        phi = lambda s: math.cos(s) + 0.1 * s * s
        expected = 0.0
        for combo in itertools.product(*[
            list(zip(law.values, law.probs)) for law in laws
        ]):
            p = math.prod(pr for _, pr in combo)
            expected += p * phi(sum(v for v, _ in combo))
        (res,) = sl.eval_sums(model, eng.Functional("mix", phi), [None])
        worst = max(worst, abs(res.upper - expected), abs(res.lower - expected))

    gp = sl.GParams(1.0, 1.0)
    grid = sl.default_grid(gp)
    errors = []
    for _ in range(3):
        (u,) = sl.solve_gheats((eng.square(),), gp, grid, 1.0)
        errors.append(abs(u - 1.0))
        grid = grid.refined()
    refinement_ok = all(
        b < a or b < REFINEMENT_FLOOR for a, b in zip(errors, errors[1:])
    )
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 3: convolution worst = {worst:.3e}; "
          f"pde errors = {['%.2e' % e for e in errors]} "
          f"(scheme exact on quadratics; floor {REFINEMENT_FLOOR:g}), {elapsed:.1f}s")
    assert worst <= 1e-12
    assert errors[0] <= 2e-3
    assert refinement_ok
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. G-normal moments
# ---------------------------------------------------------------------------


def test_criterion_04_gnormal_moments():
    t0 = time.monotonic()
    gp = sl.GParams(0.5, 1.0)
    grid = sl.default_grid(gp)
    fs = (eng.square(), eng.negated(eng.square()))
    up, lo = sl.solve_gheats(fs, gp, grid)
    quad_up, quad_lo = sl.gnormal_references(fs, gp)
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 4: E[x^2] = {up:.6f} (1.0), E[-x^2] = {lo:.6f} (-0.5); "
          f"quad = {quad_up:.6f}/{quad_lo:.6f}, {elapsed:.1f}s")
    assert abs(up - 1.0) <= 5e-3
    assert abs(lo - (-0.5)) <= 5e-3
    assert abs(up - quad_up) <= 5e-3
    assert abs(lo - quad_lo) <= 5e-3
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. Peng-oracle convergence to the PDE value
# ---------------------------------------------------------------------------


def test_criterion_05_peng_convergence():
    t0 = time.monotonic()
    gp = sl.GParams(0.5, 1.0)
    grid = sl.default_grid(gp)
    fs = _bl_catalog()
    refs = sl.solve_gheats(fs, gp, grid)
    pengs = sl.peng_oracles(fs, gp, (8, 16, 32, 64))
    report = [(f.name, [abs(row[c] - ref) for row in pengs])
              for c, (f, ref) in enumerate(zip(fs, refs))]
    elapsed = time.monotonic() - t0
    for name, gaps in report:
        print(f"\nCRITERION 5 [{name}]: gaps = {['%.4f' % g for g in gaps]}")
    print(f"CRITERION 5: {elapsed:.1f}s")
    for name, gaps in report:
        assert _nonincreasing(gaps), name
        assert gaps[-1] <= 5e-2, name
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. m-dependent CLT on the flagship experiment
# ---------------------------------------------------------------------------


def test_criterion_06_mdependent_clt():
    t0 = time.monotonic()
    n_max = STATIONARY_NS[-1]
    largest = cond.row_context(_stationary_model(n_max), n_max,
                               M_grid=(n_max // 4, n_max // 2))
    plateau = [cond.variance_ratio(largest, M)
               for M in (n_max // 4, n_max // 2, n_max)]
    assert max(plateau) - min(plateau) <= 1e-2
    r = plateau[-1]
    gp = sl.GParams(r, 1.0)
    grid = sl.default_grid(gp)

    fs = _bl_catalog()
    refs = _pde_bounds(fs, gp, grid)
    results = [(f.name, [], []) for f in fs]
    for n in STATIONARY_NS:
        ctx = cond.row_context(_stationary_model(n), n)
        B, _ = ctx.Bn
        found = sl.evaluate_columns(ctx.graph, [(eng.scaled(f, 1.0 / B), n) for f in fs])
        for (_, ups, los), res, (ref_up, ref_lo) in zip(results, found, refs):
            ups.append(abs(res.upper - ref_up))
            los.append(abs(res.lower - ref_lo))
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 6: r = {r:.4f}")
    for name, ups, los in results:
        print(f"CRITERION 6 [{name}]: upper {['%.5f' % u for u in ups]} "
              f"lower {['%.5f' % v for v in los]}")
    print(f"CRITERION 6: {elapsed:.1f}s")
    for name, ups, los in results:
        assert _nonincreasing(ups), name
        assert _nonincreasing(los), name
        assert ups[-1] <= 8e-2 and los[-1] <= 8e-2, name
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. Moment-inequality battery
# ---------------------------------------------------------------------------


def test_criterion_07_rosenthal_battery():
    t0 = time.monotonic()
    reports = []
    for model, family in itertools.groupby(mdep.rosenthal_battery(), key=lambda i: i.model):
        family = list(family)
        reports += zip(family, mdep.rosenthal_checks(model, [(i.n, i.p) for i in family]))
    c_max = max(rep.fitted_C for _, rep in reports)
    doob = [rep.lhs / rep.term_variance for inst, rep in reports
            if inst.m == 0 and inst.p == 2.0 and inst.zero_mean]
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 7: {len(reports)} instances, C_max = {c_max:.4f}, "
          f"zero-mean independent p=2 sub-battery max lhs/var = {max(doob):.4f}, "
          f"{elapsed:.1f}s")
    assert len(reports) >= 200
    assert math.isfinite(c_max) and c_max > 0.0
    for _, rep in reports:
        assert rep.rhs_sum > 0.0
        assert rep.lhs <= c_max * rep.rhs_sum * (1.0 + 1e-12)
    assert len(doob) >= 9
    assert max(doob) <= 4.0
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. Blocking invariants on every plan built during the sweeps
# ---------------------------------------------------------------------------


def test_criterion_08_blocking_invariants():
    t0 = time.monotonic()
    plans = []
    for n, p_n in zip(STATIONARY_NS, STATIONARY_PNS):
        ctx = cond.row_context(_stationary_model(n), n)
        plans.append((ctx, blk.build_plan(ctx, p_n)))
    rng = random.Random(SEED + 3)
    for _ in range(10):
        n = rng.randint(4, 20)
        model = sl.SequenceModel.moving_window(
            sl.ambiguity([sl.centered_three_point_law(0.49),
                          sl.centered_three_point_law(1.0)]),
            (1.0, rng.choice((0.5, 1.0))), n,
        )
        ctx = cond.row_context(model, n)
        plans.append((ctx, blk.build_plan(ctx, rng.choice((2, 4)))))

    gaps = []
    for ctx, plan in plans:
        g = (0,) + plan.cuts
        for a, b in zip(g, g[1:]):
            assert a + plan.p_n // 2 < b <= a + plan.p_n
        flat = sorted(set(plan.cuts) | {k for x in plan.blocks for k in x})
        assert flat == list(range(1, plan.k_n + 1))
        cut_mass = sum(plan.beta[c - 1] for c in plan.cuts)
        assert cut_mass <= (2.0 / plan.p_n) * sum(plan.beta) + 1e-12
        diag = blk.diagnostics(ctx, plan)
        assert diag.removed_mass <= diag.sum_beta_cuts * (1 + 1e-9) + 1e-15
        if plan.k_n in STATIONARY_NS and ctx.model.n == plan.k_n:
            gaps.append(abs(diag.Btilde2_over_B2 - 1.0))
    flagship_gaps = gaps[: len(STATIONARY_NS)]
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 8: {len(plans)} plans checked; "
          f"|Btilde2/B2 - 1| along n = {['%.4f' % g for g in flagship_gaps]}, "
          f"{elapsed:.1f}s")
    assert all(b < a for a, b in zip(flagship_gaps, flagship_gaps[1:]))


# ---------------------------------------------------------------------------
# 9. Stationary three-part-split diagnostics
# ---------------------------------------------------------------------------


def _window_m2(model: sl.SequenceModel, r: int) -> float:
    """Upper ``E[S_r^2]`` of the first r coordinates (0 for the empty sum)."""
    if r == 0:
        return 0.0
    return sl.eval_sums(model.prefix(r), eng.square(), [None])[0].upper


def _same_dp_value(a: float, b: float) -> bool:
    # Both sides are exact DP values that differ only in summation order.
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_criterion_09_three_part_split():
    t0 = time.monotonic()
    a2s, a3s, qs, rs, envelopes = [], [], [], [], []
    layout_ok, gaps_ok, tail_ok, tail_enveloped = [], [], [], []
    for n in STATIONARY_NS:
        model = _stationary_model(n)
        p_n = int(math.isqrt(n))
        sp = mdep.three_part_split(model, n, p_n)
        a2s.append(sp.a2_m2_over_n)
        a3s.append(sp.a3_m2_over_n)
        m = sp.m
        q = n // (p_n + m)
        r = n - q * (p_n + m)
        qs.append(q)
        rs.append(r)
        # The split's definition: q runs of p_n block indices, each followed
        # by m gap indices, then the r remaining indices as the tail, with
        # every index of 1..n in exactly one mask ("" marks a hole, two
        # letters an overlap).
        labels = [
            "B" * (k in sp.blocks_mask) + "G" * (k in sp.gaps_mask) + "T" * (k in sp.tail_mask)
            for k in range(1, n + 1)
        ]
        layout_ok.append(
            labels == list(("B" * p_n + "G" * m) * q + "T" * r)
            and len(sp.blocks_mask) + len(sp.gaps_mask) + len(sp.tail_mask) == n
        )
        # Consecutive gaps are p_n >= m indices apart, so under m-dependence
        # they are independent; every innovation law has mean 0, so cross
        # terms vanish and E[A2^2] = q E[S_m^2] (each gap is an m-window,
        # which by stationarity has the law of S_m).  As q (p_n + m) <= n,
        # E[A2^2]/n <= E[S_m^2]/(p_n + m), which tends to 0 as p_n grows.
        s_m2 = _window_m2(model, m)
        gaps_ok.append(
            _same_dp_value(sp.a2_m2_over_n, q * s_m2 / n)
            and sp.a2_m2_over_n <= s_m2 / (p_n + m) * (1.0 + 1e-12)
        )
        # The tail is a run of r < p_n + m consecutive indices, so by
        # stationarity it has the law of S_r.
        tail_ok.append(
            0 <= r < p_n + m and _same_dp_value(sp.a3_m2_over_n, _window_m2(model, r) / n)
        )
        # Hence E[A3^2]/n <= max_{r' < p_n+m} E[S_r'^2]/n.  For this model
        # E[S_r^2] = 4r - 2 grows with r, so the envelope is (4 p_n - 2)/n,
        # about 4/sqrt(n).
        envelope = max(_window_m2(model, k) for k in range(p_n + m)) / n
        envelopes.append(envelope)
        tail_enveloped.append(sp.a3_m2_over_n <= envelope * (1.0 + 1e-12))
    b_ratios = {}
    for n in (24, 32, 40, 48):
        B, _ = cond.row_context(_stationary_model(n), n).Bn
        b_ratios[n] = B * B / n
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 9: E[A2^2]/n = {['%.4f' % v for v in a2s]}, "
          f"E[A3^2]/n = {['%.4f' % v for v in a3s]}, q = {qs}, r = {rs}, "
          f"tail envelope = {['%.4f' % v for v in envelopes]}, "
          f"B^2/n = { {k: round(v, 4) for k, v in b_ratios.items()} }, {elapsed:.1f}s")

    ref = b_ratios[48]
    # The envelope decreases only where p_n tracks sqrt(n): at n = 8, isqrt
    # rounds sqrt(8) ~ 2.83 down to p_n = 2, which makes the envelope (0.75)
    # smaller than at n = 16 (0.875), so its decrease is asserted from n = 16.
    from_16 = envelopes[STATIONARY_NS.index(16):]
    clauses = {
        "B^2/n within 10% from n=24": all(abs(v / ref - 1.0) <= 0.10 for v in b_ratios.values()),
        "E[A2^2]/n decreasing": all(b < a + 1e-12 for a, b in zip(a2s, a2s[1:])),
        "masks = (p_n block, m gap)^q then r tail": all(layout_ok),
        "E[A2^2] = q E[S_m^2], E[A2^2]/n <= E[S_m^2]/(p_n+m)": all(gaps_ok),
        "0 <= r < p_n+m, E[A3^2] = E[S_r^2]": all(tail_ok),
        "E[A3^2]/n <= max_{r<p_n+m} E[S_r^2]/n, decreasing from n=16": all(tail_enveloped)
        and all(b < a for a, b in zip(from_16, from_16[1:])),
    }
    for clause, ok in clauses.items():
        print(f"CRITERION 9 clause [{clause}]: {'PASS' if ok else 'FAIL'}")
    assert elapsed < 120.0
    assert all(clauses.values()), [c for c, ok in clauses.items() if not ok]


# ---------------------------------------------------------------------------
# 10. Truncated-condition experiment
# ---------------------------------------------------------------------------


def test_criterion_10_truncated_conditions():
    t0 = time.monotonic()
    cfg = reference_experiments()["truncated-heavy"]
    tau = cfg.conditions.tau
    assert tau == 1.0

    tail_48 = cond.capacity_tail(cond.row_context(cfg.model_for(48), 48), 0.25)

    n_max = 48
    largest = cfg.model_for(n_max)
    (res,) = sl.eval_sums(largest, eng.square(), [None], x_clip=tau)
    r = res.lower / res.upper
    gp = sl.GParams(r, 1.0)
    grid = sl.default_grid(gp)

    fs = _bl_catalog()
    refs = _pde_bounds(fs, gp, grid)
    results = [(f.name, [], []) for f in fs]
    for n in STATIONARY_NS:
        ctx = cond.row_context(cfg.model_for(n), n)
        B = math.sqrt(cond.truncated_bounds(ctx, tau)[0])
        found = sl.evaluate_columns(ctx.graph, [(eng.scaled(f, 1.0 / B), n) for f in fs])
        for (_, ups, los), out, (ref_up, ref_lo) in zip(results, found, refs):
            ups.append(abs(out.upper - ref_up))
            los.append(abs(out.lower - ref_lo))
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 10: cap_tail(48, 0.25) = {tail_48:.5f}, r_tau = {r:.4f}")
    for name, ups, los in results:
        print(f"CRITERION 10 [{name}]: upper {['%.5f' % u for u in ups]} "
              f"lower {['%.5f' % v for v in los]}")
    print(f"CRITERION 10: {elapsed:.1f}s")
    assert tail_48 <= 0.02
    for name, ups, los in results:
        assert _nonincreasing(ups), name
        assert _nonincreasing(los), name
        assert ups[-1] <= 0.1 and los[-1] <= 0.1, name
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 11. Negative control
# ---------------------------------------------------------------------------


def test_criterion_11_negative_control(tmp_path):
    t0 = time.monotonic()
    cfg = reference_experiments()["mean-uncertain-fail"]
    value = cond.build_report(cond.row_context(cfg.model_for(32), 32), (), ()).mean_unc
    paths = cli.run(cfg, tmp_path)
    import csv as _csv
    with open(paths[0]) as fh:
        rows = [row for row in _csv.DictReader(fh) if row["n"] == "32"]
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 11: mean_unc(32) = {value:.4f}, "
          f"flagged rows = {len(rows)}, {elapsed:.1f}s")
    assert value > 0.5
    assert rows and all(row["mean_unc_flag"] == "1" for row in rows)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = reference_experiments()["mean-uncertain-fail"]
    blocking_cfg = reference_experiments()["stationary-1dep"]
    pairs = []
    for tag, config, mode in (
        ("sweep", cfg, "clt_sweep"),
        ("blocking", blocking_cfg, "blocking_inspect"),
    ):
        a = cli.run(config, tmp_path / f"{tag}_a", mode=mode)
        b = cli.run(config, tmp_path / f"{tag}_b", mode=mode)
        for pa, pb in zip(a, b):
            pairs.append((pa, pb, pa.read_bytes() == pb.read_bytes()))
    elapsed = time.monotonic() - t0
    print(f"\nCRITERION 12: {len(pairs)} file pairs byte-compared, {elapsed:.1f}s")
    assert all(ok for _, _, ok in pairs)
