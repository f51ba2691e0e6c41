"""Finite-n diagnostics for every hypothesis of the limit theorems.

Each asymptotic hypothesis ("-> 0", "= O(1)", "-> r") is reported as the
exact value of the displayed expression at one n; sweeps over n and fitted
log-n trend slopes live in the CLI layer.  Nothing here claims a limit,
only numbers.

Normalization: ``B_n^2`` is the upper second moment of the full sum (the
array-theorem convention).  The truncated sub-report switches to
``B_n^2 = sum_k E[(X_k^(tau))^2]`` as the truncated theorems require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import engine
from .engine import SequenceModel
from .errors import ValidationError

DEFAULT_EPS_GRID = (0.05, 0.1, 0.25, 0.5)
DEFAULT_P_GRID = (2.0, 3.0, 4.0)


def default_M_grid(n: int) -> tuple[int, ...]:
    grid = sorted({max(1, n // 4), max(1, n // 2), n})
    return tuple(grid)


@dataclass(frozen=True)
class TruncatedProfile:
    """Hypotheses recomputed on clamped coordinates at level tau.

    ``m2_ratio`` is 1 by construction: under the truncated normalizer
    ``B_n^2 = sum_k E[(X_k^(tau))^2]`` the ratio's numerator and denominator
    are the same sum.  It is kept so the report keeps its column.
    """

    tau: float
    B_n2: float
    mean_unc: float
    m2_ratio: float
    var_ratio: Mapping[int, float]


@dataclass(frozen=True)
class ConditionReport:
    n: int
    lindeberg: Mapping[float, float]
    mean_unc: float
    m2_ratio: float
    var_ratio: Mapping[int, float]
    pth: Mapping[float, float]
    cap_tail: Mapping[float, float]
    trunc: TruncatedProfile | None = None

    def __post_init__(self) -> None:
        negatives = [v for v in self.lindeberg.values() if v < -1e-12]
        negatives += [v for v in self.cap_tail.values() if v < -1e-12]
        if self.mean_unc < -1e-12 or negatives:
            raise ValidationError("condition values must be non-negative")
        for v in self.var_ratio.values():
            if not math.isnan(v) and not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValidationError("variance ratios must lie in [0, 1]")


@dataclass(frozen=True)
class RowContext:
    """Row n of the array: its length-n prefix, the full-sum graph, the state cap.

    The graph is compiled once and ``m2``, the upper and lower second moment
    of ``S_n``, is evaluated on it once; ``Bn`` is ``(B_n, b_n)``, their
    square roots.  Every quantity of the row reads these, prefix sums are
    read off the graph as columns of one sweep (``engine.evaluate_columns``),
    and every further compile for the row (clipped sums, block and cut sums)
    runs under ``state_cap``.  Build one context per n and drop it before
    the next, so only one row's graph is alive at a time.
    """

    model: SequenceModel
    graph: engine.Graph
    m2: engine.EvalResult
    Bn: tuple[float, float]
    state_cap: int

    @property
    def B2(self) -> float:
        """``B_n^2``, the divisor of every normalized hypothesis; raises when it is 0."""
        if not self.m2.upper > 0.0:
            raise ValidationError("degenerate model: zero upper second moment")
        return self.m2.upper


def row_context(model: SequenceModel, n: int, *,
                state_cap: int = engine.DEFAULT_STATE_CAP) -> RowContext:
    """Row n of ``model``: its full sum compiled once, E[S_n^2] evaluated on it."""
    sub = model.prefix(n)
    graph = engine.compile_sum(sub, state_cap=state_cap)
    m2 = engine.evaluate(graph, engine.square())
    return RowContext(sub, graph, m2, (math.sqrt(m2.upper), math.sqrt(m2.lower)), state_cap)


def lindeberg(ctx: RowContext, eps: float) -> float:
    """``(1/B_n^2) sum_k E[(X_k^2 - eps B_n^2)^+]``."""
    if eps <= 0.0:
        raise ValidationError("eps must be > 0")
    B2 = ctx.B2
    cut = eps * B2
    return engine.ordered_sum(engine.marginals(ctx.model, lambda x: max(x * x - cut, 0.0))) / B2


def mean_uncertainty(ctx: RowContext) -> float:
    """``(1/B_n) sum_k (|E[X_k]| + |e[X_k]|)``, on the un-centered coordinates."""
    return engine.mean_spread(ctx.model) / math.sqrt(ctx.B2)


def m2_ratio(ctx: RowContext) -> float:
    """``(1/B_n^2) sum_k E[X_k^2]`` (the O(1) hypothesis)."""
    return engine.ordered_sum(engine.marginals(ctx.model, lambda x: x * x)) / ctx.B2


def _ratio(res: engine.EvalResult) -> float:
    """Lower-to-upper value of ``res``; NaN when the upper one is zero (no ratio)."""
    return res.lower / res.upper if res.upper > 0.0 else math.nan


def _prefix_ratios(graph: engine.Graph, Ms: Sequence[int]) -> dict[int, float]:
    """``_ratio`` of E[S_M^2] for every M of ``Ms``, from one sweep over ``graph``."""
    results = engine.evaluate_columns(graph, [(engine.square(), M) for M in Ms])
    return {M: _ratio(res) for M, res in zip(Ms, results)}


def variance_ratio(ctx: RowContext, M: int) -> float:
    """Lower-to-upper second-moment ratio of ``S_M``; ``S_n``'s is the row's own ``m2``."""
    return _ratio(ctx.m2) if M == ctx.model.n else _prefix_ratios(ctx.graph, (M,))[M]


def pth_moment(ctx: RowContext, p: float) -> float:
    """``(1/B_n^p) sum_k E[|X_k|^p]`` (the p-growth replacement hypothesis)."""
    if p < 2.0:
        raise ValidationError("need p >= 2")
    B = math.sqrt(ctx.B2)
    return engine.ordered_sum(engine.marginals(ctx.model, lambda x: abs(x) ** p)) / B**p


def capacity_tail(ctx: RowContext, eps: float) -> float:
    """``sum_k V(|X_k| > eps)`` via the exact policy supremum per index."""
    if eps <= 0.0:
        raise ValidationError("eps must be > 0")
    over = engine.marginals(ctx.model, lambda x: 1.0 if abs(x) > eps else 0.0)
    return engine.ordered_sum(over)


def truncated_B2(ctx: RowContext, tau: float) -> float:
    """``sum_k E[(X_k^(tau))^2]``, the truncated-theorem normalizer."""
    if tau <= 0.0:
        raise ValidationError("tau must be > 0")
    return engine.ordered_sum(engine.marginals(ctx.model, lambda x: x * x, x_clip=tau))


def truncated_profile(ctx: RowContext, tau: float,
                      M_grid: Sequence[int] | None = None) -> TruncatedProfile:
    """The row's hypotheses at tau; every ``S_M`` is read off one sweep of a clipped graph."""
    B2 = truncated_B2(ctx, tau)
    graph = engine.compile_sum(ctx.model, x_clip=tau, state_cap=ctx.state_cap)
    Ms = M_grid if M_grid is not None else default_M_grid(ctx.model.n)
    return TruncatedProfile(
        tau=tau, B_n2=B2, mean_unc=engine.mean_spread(ctx.model, x_clip=tau) / math.sqrt(B2),
        m2_ratio=1.0, var_ratio=_prefix_ratios(graph, Ms),
    )


def build_report(
    ctx: RowContext,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    M_grid: Sequence[int] | None = None,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    tau: float | None = None,
) -> ConditionReport:
    Ms = tuple(M_grid) if M_grid is not None else default_M_grid(ctx.model.n)
    return ConditionReport(
        n=ctx.model.n,
        lindeberg={eps: lindeberg(ctx, eps) for eps in eps_grid},
        mean_unc=mean_uncertainty(ctx),
        m2_ratio=m2_ratio(ctx),
        var_ratio=_prefix_ratios(ctx.graph, Ms),
        pth={p: pth_moment(ctx, p) for p in p_grid},
        cap_tail={eps: capacity_tail(ctx, eps) for eps in eps_grid},
        trunc=truncated_profile(ctx, tau, Ms) if tau is not None else None,
    )


def trend_slope(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(n); NaN if not positive."""
    pairs = [(n, v) for n, v in zip(ns, values) if v > 0.0]
    if len(pairs) < 2:
        return math.nan
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(v) for _, v in pairs]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return math.nan
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
