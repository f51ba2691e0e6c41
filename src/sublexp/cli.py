"""Experiment orchestration and deterministic CSV reports.

Subcommands mirror the run modes:

    sublexp eval             --experiment iid-peng --out reports/
    sublexp clt-sweep        --experiment stationary-1dep --out reports/
    sublexp gnormal          --config cfg.yaml --out reports/
    sublexp rosenthal        --experiment stationary-1dep --out reports/
    sublexp blocking-inspect --experiment stationary-1dep --out reports/
    sublexp conditions       --experiment truncated-heavy --out reports/

All computation is exact and deterministic; reports are written only after
a run completes, with fixed column order and 12-significant-digit decimals,
so repeated runs produce byte-identical files.  Exit codes: 0 success,
1 configuration/validation error, 2 computation error (state cap exceeded,
non-finite values in the PDE solve, a payoff, normalizer or reported value
that overflows a float, a divisor that underflows to 0).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path
from typing import Iterator, Sequence

# The calculator's only BLAS work is a 96-point hermgauss and one 96-term dot,
# so a CLI process loads numpy with single-threaded OpenBLAS: a worker pool
# would only add start-up and CPU time.  Set before numpy's first import; a
# value the user set wins, and library users keep OpenBLAS's own default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import blocking as blk
from . import conditions as cond
from . import engine, gnormal, mdep
from .errors import PDENumericsError, StateCapError, ValidationError
from .experiments import (
    ExperimentConfig,
    reference_experiments,
    resolve_config,
    with_overrides,
)

Row = list[object]
Table = tuple[tuple[str, ...], list[Row]]


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v + 0.0:.12g}"  # -0.0 prints as 0
    return str(v)


def _write_csv(path: Path, table: Table) -> None:
    header, rows = table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _functionals(cfg: ExperimentConfig) -> list[engine.Functional]:
    return [engine.catalog_by_name(name) for name in cfg.functionals]


def _grid(cfg: ExperimentConfig) -> gnormal.PDEGrid:
    """The config's PDE grid, checked before any DP work.

    The half-width bound depends only on ``sigma_hi2``, not on ``sigma_lo2``.
    """
    grid = gnormal.PDEGrid(cfg.gnormal.half_width, cfg.gnormal.nx)
    grid.check(cfg.gnormal.sigma_hi2)
    return grid


def _pde_bounds(fs: list[engine.Functional], gp: gnormal.GParams,
                grid: gnormal.PDEGrid) -> list[tuple[float, float]]:
    """Upper and lower G-normal expectation of each of ``fs`` at t = 1, from one batched solve.

    The rows are ``f1, -f1, f2, -f2, ...``; the lower value is ``0.0 -``
    the upper value of the negated functional, the engine's conjugate rule.
    A config without functionals still runs, with no rows.
    """
    if not fs:
        return []
    rows = [g for f in fs for g in (f, engine.negated(f))]
    values = gnormal.solve_gheats(rows, gp, grid)
    return [(up, 0.0 - neg_up) for up, neg_up in zip(values[::2], values[1::2])]


def _sweep_r(cfg: ExperimentConfig, last: cond.RowContext) -> float:
    """Variance-ratio plateau: full-prefix ratio at the largest n.

    ``last`` is the row of the largest n.  Its second moments are the
    ratio's; under truncation, those of its sum clipped at the config's
    tau are, from one ``engine.row_sums`` graph of that root alone.
    ``last.B2`` rejects a degenerate model first, clipped or not.
    """
    if cfg.gnormal.sigma_lo2 is not None:
        return cfg.gnormal.sigma_lo2
    B2 = last.B2
    tau = cfg.conditions.tau
    if tau is None:
        return last.m2.lower / B2
    clipped = engine.row_sums(last.model, [tau], state_cap=cfg.state_cap)
    (res,) = engine.evaluate_columns(clipped, [(engine.square(), last.model.n)])
    return res.lower / res.upper


def _normalizers(cfg: ExperimentConfig, ctx: cond.RowContext) -> tuple[float, float]:
    """(B_n, b_n) under the configured normalization convention."""
    tau = cfg.conditions.tau
    if tau is None:
        return ctx.Bn
    up, lo = cond.truncated_bounds(ctx, tau)
    return math.sqrt(up), math.sqrt(max(lo, 0.0))


def _M_grid(cfg: ExperimentConfig, n: int) -> tuple[int, ...]:
    """The prefix horizons of row n's variance ratios."""
    return cfg.conditions.M if cfg.conditions.M is not None else cond.default_M_grid(n)


def _rows(cfg: ExperimentConfig, *, conditions: bool = False) -> Iterator[cond.RowContext]:
    """The context of every row of the config, in order, one handle of sums at a time.

    The sums of each model of ``cond.row_graphs`` (``engine.row_sums``) are
    built and swept once for its rows, and freed once their moments are
    read, before the next model's are built; for ``conditions`` they also
    have the config's tau as a clipped root, and each row records its
    ``_M_grid``, every M of which the sweep reads at both roots.
    """
    tau = cfg.conditions.tau if conditions else None
    for model, ns in cond.row_graphs(cfg.model_for, cfg.n_list):
        grids = [_M_grid(cfg, n) for n in ns] if conditions else None
        yield from cond.row_contexts(model, ns, tau=tau, M_grids=grids, state_cap=cfg.state_cap)[1]


# ---------------------------------------------------------------------------
# Runners: each returns {file suffix: table}
# ---------------------------------------------------------------------------

EVAL_HEADER = ("n", "functional", "B_n", "b_n", "upper", "lower", "state_count")


def run_eval(cfg: ExperimentConfig) -> dict[str, Table]:
    """Per n, E[S_n^2] (for B_n, b_n) and every functional, off one sweep of each row's sums.

    Rows that share their sums (``cond.row_graphs``, ``engine.row_sums``)
    share its one sweep: dense layers on the lattice, the graph otherwise.
    """
    rows: list[Row] = []
    fs = (engine.square(), *_functionals(cfg))
    for model, ns in cond.row_graphs(cfg.model_for, cfg.n_list):
        sums = engine.row_sums(model, state_cap=cfg.state_cap)
        found = iter(engine.evaluate_columns(sums, [(f, n) for n in ns for f in fs]))
        del sums  # one handle alive at a time
        for n in ns:
            m2, *results = (next(found) for _ in fs)
            B, b = math.sqrt(m2.upper), math.sqrt(m2.lower)
            for f, res in zip(fs[1:], results):
                rows.append([n, f.name, B, b, res.upper, res.lower, res.state_count])
    return {"eval": (EVAL_HEADER, rows)}


SWEEP_HEADER = (
    "n", "functional", "B_n", "b_n", "upper", "lower",
    "gnormal_upper", "gnormal_lower", "abs_err_upper", "abs_err_lower",
    "r", "mean_unc", "m2_ratio", "var_ratio_full",
    "lindeberg_q", "cap_tail_q", "mean_unc_flag",
)

#: The eps used for the per-row Lindeberg/capacity summary columns.
SWEEP_SUMMARY_EPS = 0.25


def _sweep_rows(cfg: ExperimentConfig, fs: list[engine.Functional],
                sums: engine.Graph | engine.DenseSum,
                ctxs: list[cond.RowContext]) -> dict[int, tuple]:
    """Everything of the sweep rows of every n of ``ctxs`` but the G-normal references.

    ``sums`` and ``ctxs`` are what ``cond.row_contexts`` returns, with no
    clipped root and no M grid.
    Per n, the marginal summaries come from one history recursion
    (``cond.build_report`` with no p), the truncated normalizers from one
    more, clipped; every functional of every n, scaled by that n's 1/B_n,
    is a column of one sweep of the sums: dense layers on the lattice, the
    graph otherwise.
    """
    found, columns = {}, []
    for ctx in ctxs:
        n = ctx.model.n
        B, b = _normalizers(cfg, ctx)
        rep = cond.build_report(ctx, eps_grid=(SWEEP_SUMMARY_EPS,), p_grid=())
        summary = (
            rep.m2_ratio,
            cond.variance_ratio(ctx, n),
            rep.lindeberg[SWEEP_SUMMARY_EPS],
            rep.cap_tail[SWEEP_SUMMARY_EPS],
        )
        found[n] = B, b, rep.mean_unc, summary
        columns += [(engine.scaled(f, 1.0 / B), n) for f in fs]
    results = iter(engine.evaluate_columns(sums, columns))
    return {n: (*row, [next(results) for _ in fs]) for n, row in found.items()}


def run_clt_sweep(cfg: ExperimentConfig) -> dict[str, Table]:
    """Sweep rows per n, off one handle of sums per group of rows (``cond.row_graphs``).

    The PDE grid is built and checked before any compile.  The groups go in
    the order of ``n_list``, and each handle is dropped before the next is
    built.  The last row, of the largest n, then gives the plateau r
    (``_sweep_r``), so its clipped compile never coexists with a row's
    handle.  The G-normal references are solved last, once every graph is
    freed, so the PDE arrays never add to a graph's memory.
    """
    fs = _functionals(cfg)
    grid = _grid(cfg)
    found = {}
    for model, ns in cond.row_graphs(cfg.model_for, cfg.n_list):
        sums, ctxs = cond.row_contexts(model, ns, state_cap=cfg.state_cap)
        found.update(_sweep_rows(cfg, fs, sums, ctxs))
        del sums  # one handle of sums alive at a time
    r = _sweep_r(cfg, ctxs[-1])
    refs = _pde_bounds(fs, gnormal.GParams(r, cfg.gnormal.sigma_hi2), grid)

    rows: list[Row] = []
    for n in cfg.n_list:
        B, b, mean_unc, summary, results = found[n]
        for f, res, (up_ref, lo_ref) in zip(fs, results, refs):
            rows.append([
                n, f.name, B, b, res.upper, res.lower,
                up_ref, lo_ref, abs(res.upper - up_ref), abs(res.lower - lo_ref),
                r, mean_unc, *summary, mean_unc > cfg.mean_unc_flag,
            ])
    return {"clt_sweep": (SWEEP_HEADER, rows)}


def run_gnormal_eval(cfg: ExperimentConfig) -> dict[str, Table]:
    """One batched PDE solve for all functionals, then one ``peng_oracles`` graph for every n."""
    if cfg.gnormal.sigma_lo2 is None:
        raise ValidationError("gnormal_eval needs an explicit gnormal.sigma_lo2")
    gp = gnormal.GParams(cfg.gnormal.sigma_lo2, cfg.gnormal.sigma_hi2)
    grid = _grid(cfg)
    header = (
        "functional", "sigma_lo2", "sigma_hi2", "pde_upper", "pde_lower",
        "quad_ref", *[f"peng@{n}" for n in cfg.peng_n],
    )
    fs = _functionals(cfg)
    rows: list[Row] = []
    bounds = _pde_bounds(fs, gp, grid)
    quads = gnormal.gnormal_references(fs, gp, half_width=cfg.gnormal.half_width)
    for f, (up, lo), quad in zip(fs, bounds, quads):
        rows.append([f.name, gp.sigma_lo2, gp.sigma_hi2, up, lo, quad])
    for pengs in gnormal.peng_oracles(fs, gp, cfg.peng_n, state_cap=cfg.state_cap):
        for row, value in zip(rows, pengs):
            row.append(value)
    return {"gnormal": (header, rows)}


ROSENTHAL_HEADER = (
    "ident", "m", "p", "n", "zero_mean", "lhs",
    "term_moments", "term_variance", "term_means", "fitted_C",
)


def run_rosenthal(cfg: ExperimentConfig) -> dict[str, Table]:
    """The battery's checks from one ``rosenthal_checks`` call, rows in battery order.

    The call checks equal models together and compiles one running-max
    graph per support key.
    """
    battery = mdep.rosenthal_battery(cfg.rosenthal_seed)
    found = mdep.rosenthal_checks([(inst.model, inst.n, inst.p) for inst in battery],
                                  state_cap=cfg.state_cap)
    rows: list[Row] = [
        [inst.ident, inst.model.m, inst.p, inst.n, inst.zero_mean, rep.lhs,
         rep.term_moments, rep.term_variance, rep.term_means, rep.fitted_C]
        for inst, rep in zip(battery, found)]
    return {"rosenthal": (ROSENTHAL_HEADER, rows)}


BLOCKING_HEADER = (
    "n", "p_n", "h", "num_cuts", "sum_beta_cuts", "sum_delta_lo", "sum_delta_hi",
    "Btilde2_over_B2", "btilde2_over_B2", "removed_mass",
)
PLAN_HEADER = ("n", "kind", "ordinal", "start", "end")


def run_blocking_inspect(cfg: ExperimentConfig) -> dict[str, Table]:
    """Per n, the plan and its diagnostics; rows that share a graph share its one sweep."""
    diag_rows: list[Row] = []
    plan_rows: list[Row] = []
    pn_list = dict(zip(cfg.n_list, cfg.blocking.pn_list or ()))
    for n in cfg.n_list:  # before any row compiles
        blk.check_one_dependent(cfg.model_for(n))
    for ctx in _rows(cfg):
        n = ctx.model.n
        p_n = pn_list[n] if pn_list else blk.choose_pn(ctx, tol=cfg.blocking.tol)
        plan = blk.build_plan(ctx, p_n)
        diag = blk.diagnostics(ctx, plan)
        diag_rows.append([
            n, p_n, plan.h, len(plan.cuts), diag.sum_beta_cuts,
            diag.sum_delta_lo, diag.sum_delta_hi,
            diag.Btilde2_over_B2, diag.btilde2_over_B2, diag.removed_mass,
        ])
        for ordinal, c in enumerate(plan.cuts, start=1):
            plan_rows.append([n, "cut", ordinal, c, c])
        for ordinal, blk_indices in enumerate(plan.blocks, start=1):
            if blk_indices:
                plan_rows.append([n, "block", ordinal, blk_indices[0], blk_indices[-1]])
            else:
                plan_rows.append([n, "block", ordinal, 0, 0])
    return {
        "blocking": (BLOCKING_HEADER, diag_rows),
        "blocking_plan": (PLAN_HEADER, plan_rows),
    }


CONDITIONS_HEADER = ("n", "quantity", "key", "value")
TRENDS_HEADER = ("quantity", "key", "slope_logn")


def run_conditions(cfg: ExperimentConfig) -> dict[str, Table]:
    rows: list[Row] = []
    series: dict[tuple[str, str], list[float]] = {}

    def emit(n: int, quantity: str, key: str, value: float, *, trend: bool = True) -> None:
        rows.append([n, quantity, key, value])
        if trend:
            series.setdefault((quantity, key), []).append(value)

    for ctx in _rows(cfg, conditions=True):
        n = ctx.model.n
        rep = cond.build_report(ctx, eps_grid=cfg.conditions.eps, p_grid=cfg.conditions.p)
        full = cond.variance_ratio(ctx, n)
        for eps, v in rep.lindeberg.items():
            emit(n, "lindeberg", f"{eps:g}", v)
        emit(n, "mean_unc", "", rep.mean_unc)
        emit(n, "m2_ratio", "", rep.m2_ratio)
        for M, v in rep.var_ratio.items():
            emit(n, "var_ratio", f"{M}", v, trend=False)
        emit(n, "var_ratio", "full", full, trend=False)
        for p, v in rep.pth.items():
            emit(n, "pth", f"{p:g}", v)
        for eps, v in rep.cap_tail.items():
            emit(n, "cap_tail", f"{eps:g}", v)
        if rep.trunc is not None:
            emit(n, "trunc_B2", "", rep.trunc.B_n2, trend=False)
            emit(n, "trunc_mean_unc", "", rep.trunc.mean_unc)
            emit(n, "trunc_m2_ratio", "", rep.trunc.m2_ratio, trend=False)
            for M, v in rep.trunc.var_ratio.items():
                emit(n, "trunc_var_ratio", f"{M}", v, trend=False)

    trend_rows: list[Row] = [
        [quantity, key, cond.trend_slope(cfg.n_list, vals)]
        for (quantity, key), vals in series.items()
        if len(vals) == len(cfg.n_list)
    ]
    return {
        "conditions": (CONDITIONS_HEADER, rows),
        "condition_trends": (TRENDS_HEADER, trend_rows),
    }


RUNNERS = {
    "eval": run_eval,
    "clt_sweep": run_clt_sweep,
    "gnormal_eval": run_gnormal_eval,
    "rosenthal": run_rosenthal,
    "blocking_inspect": run_blocking_inspect,
    "conditions": run_conditions,
}


def run(cfg: ExperimentConfig, out_dir: str | Path, mode: str | None = None) -> list[Path]:
    """Execute one mode and write its CSV files; returns the written paths.

    Nothing is written until the whole computation has finished, so a
    failing run leaves no partial output behind.
    """
    mode = mode or cfg.mode
    if mode not in RUNNERS:
        raise ValidationError(f"unknown mode {mode!r}")
    tables = RUNNERS[mode](cfg)
    if any(v in (math.inf, -math.inf) for _, rows in tables.values() for row in rows for v in row):
        raise OverflowError("a value overflows a float")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, table in sorted(tables.items()):
        path = out / f"{cfg.name}_{suffix}.csv"
        _write_csv(path, table)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_SUBCOMMANDS = {
    "eval": "eval",
    "gnormal": "gnormal_eval",
    "clt-sweep": "clt_sweep",
    "rosenthal": "rosenthal",
    "blocking-inspect": "blocking_inspect",
    "conditions": "conditions",
}


def _parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: the subcommand is the first positional argument."""
    parser = argparse.ArgumentParser(
        prog="sublexp",
        description="Sub-linear expectation experiments with deterministic CSV reports.",
    )
    parser.add_argument("command", choices=_SUBCOMMANDS, metavar="COMMAND",
                        help=f"run mode: {', '.join(_SUBCOMMANDS)}")
    parser.add_argument("--config", default=None, help="YAML experiment config")
    parser.add_argument(
        "--experiment", default=None,
        help=f"built-in experiment name ({', '.join(sorted(reference_experiments()))})",
    )
    parser.add_argument("--out", required=True, help="output directory for CSV reports")
    parser.add_argument("--grid-nx", type=int, default=None, help="PDE spatial points")
    parser.add_argument("--grid-L", type=float, default=None, help="PDE half width")
    parser.add_argument("--state-cap", type=int, default=None, help=(
        "DP state cap; a dense sum counts its lattice offsets, which for m = 0 and a gapped "
        "support exceed its graph states, so a cap between the two refuses it"))
    parser.add_argument("--tol", type=float, default=None, help="block-size search tolerance")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.experiment)
        cfg = with_overrides(
            cfg, grid_nx=args.grid_nx, grid_L=args.grid_L,
            state_cap=args.state_cap, tol=args.tol,
        )
        written = run(cfg, args.out, mode=_SUBCOMMANDS[args.command])
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StateCapError, PDENumericsError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # Python's float ** raises where numpy would give inf
        print("computation error: a value overflows a float", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        # a divisor such as B_n ** p underflows to 0
        print("computation error: a divisor underflows to 0", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
