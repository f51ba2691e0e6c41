"""The blocking construction: sparse cuts turn 1-dependence into independence.

Given a 1-dependent row ``X_1..X_{k_n}``, an even block parameter ``p_n``
and the neighborhood weights

    beta_k = (E[X_{k-1}^2] + E[X_k^2] + E[X_{k+1}^2]) / B_n^2

(zero-extended at the boundary), cut indices are picked recursively: each
search window is the upper half of the next ``p_n`` indices and the cut is
the window's beta-minimizer (smallest index on ties).  The open intervals
between consecutive cuts are the big blocks ``H_i``; removing the cut
singletons leaves block sums ``Y_i`` that are independent, because
consecutive blocks are separated by at least one removed index (this needs
m <= 1, which ``build_plan`` checks).  A block sum is an ``engine.eval_sums``
mask, and a pair of blocks one ``engine.window_columns`` window.

The diagnostics are the quantities the limit argument drives to zero: the
beta mass on the cuts, the aggregated one-sided covariance corrections at
the cuts, the block second-moment totals against ``B_n^2``, and the mass of
the removed singleton sum.
"""

from __future__ import annotations

import functools
import math

from . import engine
from ._frozen import frozen
from .conditions import RowContext
from .engine import SequenceModel
from .errors import ValidationError

_REL_SLACK = 1e-9


def compute_beta(ctx: RowContext) -> tuple[float, ...]:
    """Neighborhood second-moment weights ``beta_1..beta_{k_n}``."""
    n, B2 = ctx.model.n, ctx.B2
    # upper E[X_k^2], zero-extended at k = 0 and k = n + 1
    (squares,), _ = engine.marginal_columns(ctx.model, [lambda x: x * x], [])
    m2 = [0.0, *squares, 0.0]
    return tuple((m2[k - 1] + m2[k] + m2[k + 1]) / B2 for k in range(1, n + 1))


def choose_pn(ctx: RowContext, tol: float = 0.1, p_max: int | None = None) -> int:
    """Largest even p with ``(p^4/B_n^2) sum_k E[(X_k^2 - B_n^2/p^4)^+] <= tol``.

    Searched over even p up to ``p_max`` (default: the even floor of
    sqrt(k_n)); falls back to 2 when no candidate qualifies.  Every
    candidate's excess is a column of one ``engine.marginal_columns`` call,
    the same floats as a call with that column alone.
    """
    if not tol > 0.0:
        raise ValidationError("tol must be > 0")
    if p_max is None:
        p_max = max(2, (math.isqrt(ctx.model.n) // 2) * 2)
    if p_max < 2 or p_max % 2 != 0:
        raise ValidationError("p_max must be an even integer >= 2")
    B2 = ctx.B2
    ps = range(p_max, 1, -2)
    excess, _ = engine.marginal_columns(
        ctx.model, [lambda x, _c=B2 / p**4: max(x * x - _c, 0.0) for p in ps], [])
    for p, col in zip(ps, excess):
        if p**4 / B2 * engine.ordered_sum(col) <= tol:
            return p
    return 2


@frozen
class BlockingPlan:
    """Cut indices, search windows, and blocks for one row of the array."""

    k_n: int
    p_n: int
    beta: tuple[float, ...]
    cuts: tuple[int, ...]          # g(1) .. g(h-1)
    windows: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]  # H_1 .. H_h; the last may be empty

    def __post_init__(self) -> None:
        if self.p_n < 2 or self.p_n % 2 != 0:
            raise ValidationError("p_n must be an even integer >= 2")
        if len(self.beta) != self.k_n:
            raise ValidationError("beta must have one entry per index")
        g = (0,) + self.cuts
        for a, b in zip(g, g[1:]):
            if not (a + self.p_n // 2 < b <= a + self.p_n):
                raise ValidationError(f"cut spacing violated at {b}")
        if self.cuts and self.cuts[-1] + self.p_n <= self.k_n:
            raise ValidationError("recursion stopped too early")
        if len(self.windows) != len(self.cuts):
            raise ValidationError("one search window per cut")
        for a, window in zip(g, self.windows):
            expected = tuple(range(a + self.p_n // 2 + 1, a + self.p_n + 1))
            if window != expected:
                raise ValidationError(f"window after cut {a} is not the upper half-step")
        seen = sorted(set(self.cuts) | {k for blk in self.blocks for k in blk})
        if seen != list(range(1, self.k_n + 1)) or len(self.blocks) != len(self.cuts) + 1:
            raise ValidationError("cuts and blocks must partition 1..k_n")

    @property
    def h(self) -> int:
        return len(self.blocks)

    @property
    def sentinel(self) -> int:
        """g(h) = k_n + 1."""
        return self.k_n + 1


def build_plan(ctx: RowContext, p_n: int) -> BlockingPlan:
    """Run the cut recursion; degenerates to a single block when k_n < p_n.

    Only for a row with m <= 1 does one removed index between blocks make
    the block sums independent, so any other row is refused.
    """
    if p_n < 2 or p_n % 2 != 0:
        raise ValidationError("p_n must be an even integer >= 2")
    if ctx.model.m > 1:
        raise ValidationError(f"blocking needs a 1-dependent row (m <= 1), got m = {ctx.model.m}: "
                              "mdep.z_reduce groups it into 1-dependent block sums")
    n = ctx.model.n
    beta = compute_beta(ctx)
    g = [0]
    windows: list[tuple[int, ...]] = []
    while g[-1] + p_n <= n:
        window = tuple(range(g[-1] + p_n // 2 + 1, g[-1] + p_n + 1))
        best = min(beta[k - 1] for k in window)
        g.append(min(k for k in window if beta[k - 1] == best))
        windows.append(window)
    cuts = tuple(g[1:])
    bounds = cuts + (n + 1,)
    blocks = []
    prev = 0
    for b in bounds:
        blocks.append(tuple(range(prev + 1, b)))
        prev = b
    return BlockingPlan(
        k_n=n, p_n=p_n, beta=beta, cuts=cuts,
        windows=tuple(windows), blocks=tuple(blocks),
    )


@frozen
class BlockDiagnostics:
    """The vanishing quantities of the blocking argument, at one n."""

    sum_beta_cuts: float
    sum_delta_lo: float
    sum_delta_hi: float
    Btilde2_over_B2: float
    btilde2_over_B2: float
    removed_mass: float

    def __post_init__(self) -> None:
        fields = (
            self.sum_beta_cuts, self.sum_delta_lo, self.sum_delta_hi,
            self.Btilde2_over_B2, self.btilde2_over_B2, self.removed_mass,
        )
        if any(v < -1e-12 for v in fields):
            raise ValidationError("diagnostics must be non-negative")
        if self.removed_mass > self.sum_beta_cuts * (1.0 + _REL_SLACK) + 1e-15:
            raise ValidationError("removed mass exceeds the beta bound on the cuts")


def _delta_sums(model: SequenceModel, cuts: tuple[int, ...], B2: float) -> tuple[float, float]:
    """Lower and upper ``|sum_k (E[X_k^2] + 2 sum_nb E[X_k X_nb]) / B_n^2|``.

    The sum runs over the cuts k and their neighbors nb in 1..n.  One
    ``window_columns`` call per moment gives its lower and upper value;
    under ``engine.one_law`` a moment does not depend on where its window
    starts, so one per offset nb - k.
    """
    same_law = engine.one_law(model)

    def product(xs: tuple[float, ...]) -> float:
        return xs[0] * xs[-1]  # xs[-1] is xs[0] in the one-index window of the square

    @functools.cache
    def moment(k: int, nb: int) -> tuple[float, float]:
        shift = min(k, nb) - 1
        if shift and same_law:
            return moment(k - shift, nb - shift)
        (up,), (lo,) = engine.window_columns(model, (k,) if nb == k else (k, nb),
                                             [product], [product])
        return lo, up

    def delta(k: int, side: int) -> float:
        # E[X_k^2] + 2 E[X_k X_{k-1}] + 2 E[X_k X_{k+1}], left to right, in 1..n
        return engine.ordered_sum((1.0 if nb == k else 2.0) * moment(k, nb)[side]
                                  for nb in (k, k - 1, k + 1) if 1 <= nb <= model.n) / B2

    return (abs(engine.ordered_sum(delta(c, 0) for c in cuts)),
            abs(engine.ordered_sum(delta(c, 1) for c in cuts)))


def diagnostics(ctx: RowContext, plan: BlockingPlan) -> BlockDiagnostics:
    sub, B2, cap = ctx.model, ctx.B2, ctx.state_cap
    if plan.k_n != sub.n:
        raise ValidationError(f"plan is for k_n={plan.k_n}, the row for n={sub.n}")
    # one graph and one sweep: a root per non-empty block (empty blocks add
    # 0), which gives both of its second moments, and one for the cuts
    blocks = [blk for blk in plan.blocks if blk]
    found = engine.eval_sums(sub, engine.square(), blocks + ([plan.cuts] if plan.cuts else []),
                             state_cap=cap)
    m2 = found[:len(blocks)]
    removed = found[-1].upper / B2 if plan.cuts else 0.0
    delta_lo, delta_hi = _delta_sums(sub, plan.cuts, B2)
    Bt2 = engine.ordered_sum(res.upper for res in m2)
    bt2 = engine.ordered_sum(res.lower for res in m2)
    return BlockDiagnostics(
        sum_beta_cuts=engine.ordered_sum(plan.beta[c - 1] for c in plan.cuts),
        sum_delta_lo=delta_lo,
        sum_delta_hi=delta_hi,
        Btilde2_over_B2=Bt2 / B2,
        btilde2_over_B2=bt2 / B2,
        removed_mass=removed,
    )
