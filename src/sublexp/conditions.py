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
from typing import Callable, Mapping, Sequence

from . import engine
from ._frozen import frozen
from .engine import SequenceModel
from .errors import ValidationError

DEFAULT_EPS_GRID = (0.05, 0.1, 0.25, 0.5)
DEFAULT_P_GRID = (2.0, 3.0, 4.0)


def default_M_grid(n: int) -> tuple[int, ...]:
    grid = sorted({max(1, n // 4), max(1, n // 2), n})
    return tuple(grid)


@frozen
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


@frozen
class ConditionReport:
    """The hypotheses of row n, each keyed by its grid point (eps, M or p).

    ``lindeberg[eps]`` is ``(1/B_n^2) sum_k E[(X_k^2 - eps B_n^2)^+]``,
    ``mean_unc`` is ``(1/B_n) sum_k (|E[X_k]| + |e[X_k]|)`` on the
    un-centered coordinates, ``m2_ratio`` is ``(1/B_n^2) sum_k E[X_k^2]``
    (the O(1) hypothesis), ``var_ratio[M]`` is ``variance_ratio``,
    ``pth[p]`` is ``(1/B_n^p) sum_k E[|X_k|^p]`` (the p-growth replacement
    hypothesis) and ``cap_tail[eps]`` is ``capacity_tail``.  ``trunc`` holds
    the same quantities at the truncation level tau, when the row has one.
    """

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


@frozen(identity=True)
class RowContext:
    """Row n of the array: its length-n model, its second moments, the state cap.

    ``moments[M]`` holds E[S_M^2] per root of the handle of sums the row was
    read off (``row_contexts``): the full sum as root 0 and, when ``tau``
    (the truncation level of the conditions) is set, the full sum clipped
    at tau as root 1, for n and every M of ``M_grid``, the prefix horizons
    of the row's variance ratios.  ``m2`` is root 0's E[S_n^2], and ``Bn``
    is ``(B_n, b_n)``, the square roots of its upper and lower value.
    Every quantity of the row reads these, and every further compile for
    the row (block and cut sums) runs under ``state_cap``.  A context holds
    no handle, and, as its moments are a dict, equals itself alone.
    """

    model: SequenceModel
    moments: Mapping[int, tuple[engine.EvalResult, ...]]
    state_cap: int
    tau: float | None = None
    M_grid: tuple[int, ...] = ()

    @property
    def m2(self) -> engine.EvalResult:
        """Upper and lower E[S_n^2] of the row's full sum."""
        return self.moments[self.model.n][0]

    @property
    def Bn(self) -> tuple[float, float]:
        return math.sqrt(self.m2.upper), math.sqrt(self.m2.lower)

    @property
    def B2(self) -> float:
        """``B_n^2``, the divisor of every normalized hypothesis; raises when it is 0."""
        if not self.m2.upper > 0.0:
            raise ValidationError("degenerate model: zero upper second moment")
        return self.m2.upper


def row_graphs(model_for: Callable[[int], SequenceModel],
               ns: Sequence[int]) -> list[tuple[SequenceModel, tuple[int, ...]]]:
    """The models whose sums serve rows ``ns``, each with the rows read off them.

    When ``model_for(n).prefix(n) == model_for(n_max).prefix(n)`` for every n
    (a scale-1 model, say), the largest row's model serves every row;
    otherwise (a 1/sqrt(n) scale, laws that vary with n) each row's own model
    serves it alone.  The rows keep the order of ``ns``.
    """
    top = model_for(max(ns))
    if all(model_for(n).prefix(n) == top.prefix(n) for n in ns):
        return [(top, tuple(ns))]
    return [(model_for(n).prefix(n), (n,)) for n in ns]


def row_contexts(model: SequenceModel, ns: Sequence[int], *, tau: float | None = None,
                 M_grids: Sequence[Sequence[int]] | None = None,
                 state_cap: int = engine.DEFAULT_STATE_CAP,
                 ) -> tuple[engine.Graph | engine.DenseSum, list[RowContext]]:
    """Rows ``ns`` of ``model`` (each n at most ``model.n``), from one handle and one sweep.

    The handle's roots (``engine.row_sums``) are the full sum and, with
    ``tau``, the full sum clipped at tau: the dense layers of the full sum
    when it is the only root and sits on the lattice, the compiled graph
    otherwise.  The sweep reads E[S_M^2] at every root for each row's n and
    every M of its grid (``M_grids``, one grid per row, none by default).
    Returns the handle and the rows.  Row n reads its columns at horizon n,
    which are those of row n's own model (``engine.sweep_columns``), so a
    caller sweeps the handle for more columns of its rows, or drops it.
    ``state_cap`` bounds what the handle builds for both roots together.
    """
    if tau is not None and not tau > 0.0:
        raise ValidationError("tau must be > 0")
    grids = [tuple(grid) for grid in M_grids] if M_grids is not None else [()] * len(ns)
    if len(grids) != len(ns):
        raise ValidationError("M_grids must give one grid per row")
    for n, grid in zip(ns, grids):
        if any(not 1 <= M <= n for M in grid):
            raise ValidationError(f"horizons must lie in 1..{n}")
    clips = [None] if tau is None else [None, tau]
    sums = engine.row_sums(model, clips, state_cap=state_cap)
    Ms = sorted({M for n, grid in zip(ns, grids) for M in (n, *grid)})
    found = iter(engine.evaluate_columns(sums, [(engine.square(), M) for M in Ms]))
    moments = {M: tuple(next(found) for _ in clips) for M in Ms}
    return sums, [RowContext(model.prefix(n), {M: moments[M] for M in (n, *grid)},
                             state_cap, tau, grid)
                  for n, grid in zip(ns, grids)]


def row_context(model: SequenceModel, n: int, *, tau: float | None = None,
                M_grid: Sequence[int] = (),
                state_cap: int = engine.DEFAULT_STATE_CAP) -> RowContext:
    """Row n of ``model``: ``row_contexts`` of its own length-n model alone."""
    return row_contexts(model.prefix(n), (n,), tau=tau, M_grids=(M_grid,),
                        state_cap=state_cap)[1][0]


def _square(x: float) -> float:
    return x * x


def _over(eps: float) -> Callable[[float], float]:
    """The indicator of ``|x| > eps``, the payoff of ``capacity_tail``."""
    return lambda x: 1.0 if abs(x) > eps else 0.0


def _marginal_sums(model: SequenceModel, phis: Sequence[Callable[[float], float]], *,
                   x_clip: float | None = None) -> tuple[list[float], float]:
    """``sum_k E[phi(X_k)]`` for every ``phi`` of ``phis``, and ``sum_k (|E[X_k]| + |e[X_k]|)``.

    One ``engine.spread_columns`` call, each sum added in k order; each
    value is what a call with its column alone gives, bit for bit.
    """
    columns, spreads = engine.spread_columns(model, phis, x_clip=x_clip)
    return [engine.ordered_sum(col) for col in columns], engine.ordered_sum(spreads)


def _ratio(res: engine.EvalResult) -> float:
    """Lower-to-upper value of ``res``; NaN when the upper one is zero (no ratio)."""
    return res.lower / res.upper if res.upper > 0.0 else math.nan


def _prefix_ratios(ctx: RowContext, root: int) -> dict[int, float]:
    """``_ratio`` of E[S_M^2] at ``root`` of the row's sums, for every M of the row's grid."""
    return {M: _ratio(ctx.moments[M][root]) for M in ctx.M_grid}


def variance_ratio(ctx: RowContext, M: int) -> float:
    """Lower-to-upper second-moment ratio of ``S_M``, for n or an M of the row's grid."""
    if M not in ctx.moments:
        raise ValidationError(f"the row of n={ctx.model.n} holds no S_{M}: "
                              f"its horizons are n and {list(ctx.M_grid)}")
    return _ratio(ctx.moments[M][0])


def capacity_tail(ctx: RowContext, eps: float) -> float:
    """``sum_k V(|X_k| > eps)`` via the exact policy supremum per index.

    Not normalized, so unlike the report it needs no ``B_n`` and takes a
    zero-variance model.
    """
    if eps <= 0.0:
        raise ValidationError("eps must be > 0")
    (tails,), _ = engine.marginal_columns(ctx.model, [_over(eps)], [])
    return engine.ordered_sum(tails)


def truncated_bounds(ctx: RowContext, tau: float) -> tuple[float, float]:
    """Upper and lower ``sum_k E[(X_k^(tau))^2]``, from one history recursion."""
    if tau <= 0.0:
        raise ValidationError("tau must be > 0")
    (ups,), (los,) = engine.marginal_columns(ctx.model, [_square], [_square], x_clip=tau)
    return engine.ordered_sum(ups), engine.ordered_sum(los)


def truncated_profile(ctx: RowContext) -> TruncatedProfile:
    """The row's hypotheses at its tau, every marginal from one clipped history recursion.

    Every ``S_M`` of the row's grid is read at the clipped root of the row's
    sums, from the moments the context was built with.
    """
    if ctx.tau is None:
        raise ValidationError("the row was built without tau")
    (B2,), spread = _marginal_sums(ctx.model, [_square], x_clip=ctx.tau)
    return TruncatedProfile(
        tau=ctx.tau, B_n2=B2, mean_unc=spread / math.sqrt(B2),
        m2_ratio=1.0, var_ratio=_prefix_ratios(ctx, root=1),
    )


def build_report(
    ctx: RowContext,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
) -> ConditionReport:
    """Every hypothesis of row n, each at every point of its grid.

    The marginal quantities (E[X_k^2], the Lindeberg excesses and the
    capacity tails per eps, E[|X_k|^p] per p, E[X_k] and e[X_k]) are the
    columns of one history recursion, and with the row's tau those at tau
    of one more, clipped (``truncated_profile``).  The variance ratios of
    the row's grid, clipped ones included, are read from the moments the
    context was built with, so a report compiles and sweeps nothing.  For
    one quantity, pass a grid of one point and leave the other empty;
    ``capacity_tail``, which divides by no ``B_n``, makes its own recursion.
    """
    if any(eps <= 0.0 for eps in eps_grid):
        raise ValidationError("eps must be > 0")
    if any(p < 2.0 for p in p_grid):
        raise ValidationError("need p >= 2")
    B2 = ctx.B2
    sums, spread = _marginal_sums(ctx.model, [
        _square,
        *(lambda x, _c=eps * B2: max(x * x - _c, 0.0) for eps in eps_grid),
        *(lambda x, _p=p: abs(x) ** _p for p in p_grid),
        *(_over(eps) for eps in eps_grid)])
    totals, B = iter(sums), math.sqrt(B2)
    m2 = next(totals)
    lind = {eps: next(totals) / B2 for eps in eps_grid}
    pth = {p: next(totals) / B**p for p in p_grid}
    cap = {eps: next(totals) for eps in eps_grid}
    return ConditionReport(
        n=ctx.model.n,
        lindeberg=lind,
        mean_unc=spread / math.sqrt(B2),
        m2_ratio=m2 / B2,
        var_ratio=_prefix_ratios(ctx, root=0),
        pth=pth,
        cap_tail=cap,
        trunc=truncated_profile(ctx) if ctx.tau is not None else None,
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
