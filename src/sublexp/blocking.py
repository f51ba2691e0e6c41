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
m <= 1, which ``check_one_dependent`` checks).  A block sum is a mask of
``engine.compile_sum``, and a pair of blocks one ``engine.window_columns``
window.

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


def choose_pn(ctx: RowContext, tol: float = 0.1) -> int:
    """Largest even p with ``(p^4/B_n^2) sum_k E[(X_k^2 - B_n^2/p^4)^+] <= tol``.

    Searched over even p up to the even floor of sqrt(k_n), at least 2;
    falls back to 2 when no candidate qualifies.  Every candidate's excess
    is a column of one ``engine.marginal_columns`` call, the same floats as
    a call with that column alone.
    """
    if not tol > 0.0:
        raise ValidationError("tol must be > 0")
    B2 = ctx.B2
    ps = range(max(2, (math.isqrt(ctx.model.n) // 2) * 2), 1, -2)
    excess, _ = engine.marginal_columns(
        ctx.model, [lambda x, _c=B2 / p**4: max(x * x - _c, 0.0) for p in ps], [])
    for p, col in zip(ps, excess):
        if p**4 / B2 * engine.ordered_sum(col) <= tol:
            return p
    return 2


@frozen
class BlockingPlan:
    """Cut indices for one row of the array, and the search windows and blocks they give."""

    k_n: int
    p_n: int
    beta: tuple[float, ...]
    cuts: tuple[int, ...]          # g(1) .. g(h-1)

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
        if self.cuts and self.cuts[-1] > self.k_n:
            raise ValidationError("cuts must lie in 1..k_n")

    @property
    def windows(self) -> tuple[tuple[int, ...], ...]:
        """Each cut's search window: the upper half of the p_n indices after the cut before."""
        half, p_n = self.p_n // 2, self.p_n
        return tuple(tuple(range(a + half + 1, a + p_n + 1)) for a in ((0,) + self.cuts)[:-1])

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """H_1 .. H_h, the indices between consecutive cuts; the last may be empty."""
        g = (0,) + self.cuts + (self.k_n + 1,)
        return tuple(tuple(range(a + 1, b)) for a, b in zip(g, g[1:]))

    @property
    def h(self) -> int:
        return len(self.cuts) + 1

    @property
    def sentinel(self) -> int:
        """g(h) = k_n + 1."""
        return self.k_n + 1


def check_one_dependent(model: SequenceModel) -> None:
    """Refuse a row with m > 1.

    Only for a row with m <= 1 does one removed index between blocks make
    the block sums independent; blocking does not support m > 1 yet.
    """
    if model.m > 1:
        raise ValidationError(f"blocking needs a 1-dependent row (m <= 1), got m = {model.m}: "
                              "m > 1 is not supported yet")


def build_plan(ctx: RowContext, p_n: int) -> BlockingPlan:
    """Run the cut recursion; degenerates to a single block when k_n < p_n.

    The row must pass ``check_one_dependent``.
    """
    if p_n < 2 or p_n % 2 != 0:
        raise ValidationError("p_n must be an even integer >= 2")
    check_one_dependent(ctx.model)
    n = ctx.model.n
    beta = compute_beta(ctx)
    g = [0]
    while g[-1] + p_n <= n:
        window = range(g[-1] + p_n // 2 + 1, g[-1] + p_n + 1)
        best = min(beta[k - 1] for k in window)
        g.append(min(k for k in window if beta[k - 1] == best))
    return BlockingPlan(k_n=n, p_n=p_n, beta=beta, cuts=tuple(g[1:]))


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
    ``window_columns`` call per moment gives its lower and upper value.  A
    moment is looked up by its ordered pair of indices, as ``X_k * X_nb`` is
    ``X_nb * X_k`` bit for bit; under ``engine.one_law`` it does not depend
    on where its window starts, so there is one call per distance |nb - k|.
    """
    same_law = engine.one_law(model)

    def product(xs: tuple[float, ...]) -> float:
        return xs[0] * xs[-1]  # xs[-1] is xs[0] in the one-index window of the square

    @functools.cache
    def moment(a: int, b: int) -> tuple[float, float]:
        """Lower and upper ``E[X_a X_b]``, a <= b."""
        if a > 1 and same_law:
            return moment(1, b - a + 1)
        (up,), (lo,) = engine.window_columns(model, (a,) if a == b else (a, b),
                                             [product], [product])
        return lo, up

    def delta(k: int, side: int) -> float:
        # E[X_k^2] + 2 E[X_k X_{k-1}] + 2 E[X_k X_{k+1}], left to right, in 1..n
        return engine.ordered_sum((1.0 if nb == k else 2.0) * moment(*sorted((k, nb)))[side]
                                  for nb in (k, k - 1, k + 1) if 1 <= nb <= model.n) / B2

    return (abs(engine.ordered_sum(delta(c, 0) for c in cuts)),
            abs(engine.ordered_sum(delta(c, 1) for c in cuts)))


def diagnostics(ctx: RowContext, plan: BlockingPlan) -> BlockDiagnostics:
    sub, B2, cap = ctx.model, ctx.B2, ctx.state_cap
    if plan.k_n != sub.n:
        raise ValidationError(f"plan is for k_n={plan.k_n}, the row for n={sub.n}")
    # one graph and one sweep: a root per block, which gives both of its
    # second moments, and one for the cuts; an empty mask is a root whose
    # sum is 0, as the last block and the cuts of a plan with none are
    graph = engine.compile_sum(sub, masks=[*plan.blocks, plan.cuts], state_cap=cap)
    *m2, cuts = engine.evaluate_columns(graph, [(engine.square(), sub.n)])
    delta_lo, delta_hi = _delta_sums(sub, plan.cuts, B2)
    Bt2 = engine.ordered_sum(res.upper for res in m2)
    bt2 = engine.ordered_sum(res.lower for res in m2)
    return BlockDiagnostics(
        sum_beta_cuts=engine.ordered_sum(plan.beta[c - 1] for c in plan.cuts),
        sum_delta_lo=delta_lo,
        sum_delta_hi=delta_hi,
        Btilde2_over_B2=Bt2 / B2,
        btilde2_over_B2=bt2 / B2,
        removed_mass=cuts.upper / B2,
    )
