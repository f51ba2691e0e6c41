"""Constructions specific to m-dependent sequences.

* residue classes: indices with equal residue mod (m+1) form independent
  subsequences, the device behind the moment inequality for m-dependent
  sums;
* the moment-inequality verifier itself (``rosenthal_checks``), which
  evaluates the exact left side ``E[max_{k<=n} |S_k|^p]`` by a dynamic
  program whose state carries the running maximum, and reports the fitted
  constant against the three right-side terms, for several horizons n and
  exponents p of one model;
* the reduction of an m-dependent sequence to a 1-dependent one by summing
  consecutive blocks of m coordinates;
* the three-part split of a stationary sum into full blocks, the m-wide
  gaps between them, and a tail;
* a stationarity check comparing shifted windows through a catalog of test
  functionals.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from . import engine
from ._frozen import frozen
from .engine import Functional, SequenceModel
from .errors import ValidationError
from .laws import DiscreteLaw, ambiguity

# ---------------------------------------------------------------------------
# Residue classes
# ---------------------------------------------------------------------------


@frozen
class ResidueDecomposition:
    """Partition of {1..k} into classes with equal index residue mod (m+1)."""

    m: int
    k: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = sorted(i for cls in self.classes for i in cls)
        if flat != list(range(1, self.k + 1)):
            raise ValidationError("residue classes must partition 1..k")
        for cls in self.classes:
            if any(b - a != self.m + 1 for a, b in zip(cls, cls[1:])):
                raise ValidationError("class indices must be m+1 apart")


def residue_classes(m: int, k: int) -> ResidueDecomposition:
    if m < 0 or k < 1:
        raise ValidationError("need m >= 0 and k >= 1")
    classes = tuple(
        tuple(i for i in range(1, k + 1) if i % (m + 1) == j) for j in range(m + 1)
    )
    return ResidueDecomposition(m, k, classes)


# ---------------------------------------------------------------------------
# Moment-inequality verifier
# ---------------------------------------------------------------------------


@frozen
class RosenthalReport:
    """Left side and the three right-side terms of the maximal inequality.

    ``term_variance`` and ``term_means`` already carry their outer powers
    (p/2 and p); ``fitted_C`` is reported, never asserted against a theory
    value, because the constant in the inequality is non-constructive.
    """

    p: float
    n: int
    m: int
    lhs: float
    term_moments: float
    term_variance: float
    term_means: float
    fitted_C: float

    def __post_init__(self) -> None:
        for name in ("lhs", "term_moments", "term_variance", "term_means"):
            if getattr(self, name) < -1e-12:
                raise ValidationError(f"{name} must be non-negative")

    @property
    def rhs_sum(self) -> float:
        return self.term_moments + self.term_variance + self.term_means


def rosenthal_checks(
    model: SequenceModel,
    cases: Sequence[tuple[int, float]],
    *,
    state_cap: int = engine.DEFAULT_STATE_CAP,
) -> tuple[RosenthalReport, ...]:
    """Exact ``E[max_{k<=n}|S_k|^p]`` against the three right-side terms, per ``(n, p)``.

    Horizon n reads coordinates 1..n of ``model``.  One running-max graph is
    compiled at the largest n, and every case is an upper column of one
    backward sweep over it (``engine.sweep_columns``, with no lower column).
    The marginals E[X_k^2], E[X_k], e[X_k] and E[|X_k|^p] (once per
    distinct p) are the columns of one history recursion
    (``engine.spread_columns``), and each horizon adds its first n values
    left to right.  No case, no report.
    """
    if any(p < 2.0 for _, p in cases):
        raise ValidationError("rosenthal_checks needs p >= 2")
    if not cases:
        return ()
    top = model.prefix(max(n for n, _ in cases))
    graph = engine.compile_sum(top, track_max=True, state_cap=state_cap)
    ps = tuple(dict.fromkeys(p for _, p in cases))
    (squares, *abs_p_columns), spreads = engine.spread_columns(
        top, [lambda x: x * x, *(lambda x, _p=p: abs(x) ** _p for p in ps)])
    abs_ps = dict(zip(ps, abs_p_columns))
    lhs, _ = engine.sweep_columns(graph, [
        (Functional("abs_max_p", lambda x, _p=p: abs(x) ** _p), n)
        for n, p in cases], ())
    reports = []
    for (n, p), upper in zip(cases, lhs):
        abs_p = engine.ordered_sum(abs_ps[p][:n])
        term_variance = engine.ordered_sum(squares[:n]) ** (p / 2.0)
        term_means = engine.ordered_sum(spreads[:n]) ** p
        rhs = abs_p + term_variance + term_means
        if rhs <= 0.0:
            raise ValidationError("degenerate model: all right-side terms vanish")
        reports.append(RosenthalReport(p, n, top.m, upper, abs_p, term_variance,
                                       term_means, upper / rhs))
    return tuple(reports)


# Deterministic battery -----------------------------------------------------

_LAW_MENU_CERTAIN = (
    DiscreteLaw((-1.0, 1.0), (0.5, 0.5)),
    DiscreteLaw((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
    DiscreteLaw((-2.0, 0.0, 2.0), (0.125, 0.75, 0.125)),
    DiscreteLaw((-0.5, 0.5), (0.5, 0.5)),
)
_LAW_MENU_UNCERTAIN = (
    (DiscreteLaw((-1.0, 1.0), (0.5, 0.5)), DiscreteLaw((-1.0, 1.0), (0.25, 0.75))),
    (DiscreteLaw((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
     DiscreteLaw((-1.0, 0.0, 1.0), (0.5, 0.25, 0.25))),
    (DiscreteLaw((-1.0, 1.0), (0.625, 0.375)), DiscreteLaw((-1.0, 1.0), (0.375, 0.625))),
)
_WEIGHT_MENU = {
    1: ((1.0, 1.0), (1.0, -1.0), (1.0, 0.5)),
    2: ((1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.5, 1.0, 0.5)),
}


@frozen
class BatteryInstance:
    """One (n, p) check of a battery family.

    ``model`` is the family's model, built at its largest n; the check reads coordinates 1..n.
    """

    ident: str
    model: SequenceModel
    m: int
    p: float
    n: int
    zero_mean: bool


def rosenthal_battery(seed: int = 20240901) -> tuple[BatteryInstance, ...]:
    """Deterministic battery of verifier instances (m <= 2, p in {2,3,4}).

    Composition is fixed by the seed so reports are byte-reproducible.
    Horizons shrink with m to keep the path-max dynamic programs at desk
    scale.
    """
    rng = random.Random(seed)
    instances: list[BatteryInstance] = []
    n_by_m = {0: (4, 6, 8), 1: (4, 6, 8), 2: (4, 5, 6)}
    for m, ns in n_by_m.items():
        for variant in range(9):
            zero_mean = variant % 3 != 2
            if zero_mean:
                laws = rng.sample(_LAW_MENU_CERTAIN, k=rng.choice((1, 2)))
                set_ = ambiguity(laws)
            else:
                set_ = ambiguity(rng.choice(_LAW_MENU_UNCERTAIN))
            model = (SequenceModel.iid(set_, ns[-1]) if m == 0 else
                     SequenceModel.moving_window(set_, rng.choice(_WEIGHT_MENU[m]), ns[-1]))
            instances += [
                BatteryInstance(f"m{m}-v{variant}-n{n}-p{p:g}", model, m, p, n, zero_mean)
                for n in ns for p in (2.0, 3.0, 4.0)
            ]
    return tuple(instances)


# ---------------------------------------------------------------------------
# Reduction to 1-dependence
# ---------------------------------------------------------------------------


@frozen
class ZReduction:
    """Consecutive blocks of m coordinates; the block sums are 1-dependent.

    ``blocks`` are 1-based inclusive index ranges; the final (tail) block
    may be shorter than m, and ``k_n_prime`` counts blocks including an
    empty tail when m divides the horizon.
    """

    m: int
    k_n: int
    k_n_prime: int
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        covered: list[int] = []
        for a, b in self.blocks:
            covered.extend(range(a, b + 1))
        if covered != list(range(1, self.k_n + 1)):
            raise ValidationError("Z blocks must partition 1..k_n in order")


def z_reduce(model: SequenceModel, m: int) -> ZReduction:
    if m != model.m:
        raise ValidationError(f"z_reduce needs the model's m = {model.m}, got {m}")
    if m < 1:
        raise ValidationError("z_reduce needs m >= 1")
    k_n = model.n
    k_prime = k_n // m + 1
    blocks = [(m * (k - 1) + 1, m * k) for k in range(1, k_prime)]
    tail_start = m * (k_prime - 1) + 1
    if tail_start <= k_n:
        blocks.append((tail_start, k_n))
    return ZReduction(m=m, k_n=k_n, k_n_prime=k_prime, blocks=tuple(blocks))


def z_block_second_moments(model: SequenceModel, red: ZReduction) -> list[tuple[float, float]]:
    """Upper/lower second moment of every Z block sum, each a root of one graph."""
    found = engine.eval_sums(model, engine.square(), [range(a, b + 1) for a, b in red.blocks])
    return [(res.upper, res.lower) for res in found]


# ---------------------------------------------------------------------------
# Three-part split of a stationary sum
# ---------------------------------------------------------------------------


@frozen
class ThreePartSplit:
    """Index masks and normalized upper second moments of the three parts."""

    n: int
    p_n: int
    m: int
    blocks_mask: tuple[int, ...]
    gaps_mask: tuple[int, ...]
    tail_mask: tuple[int, ...]
    a1_m2_over_n: float
    a2_m2_over_n: float
    a3_m2_over_n: float

    def __post_init__(self) -> None:
        parts = (self.blocks_mask, self.gaps_mask, self.tail_mask)
        flat = sorted(i for mask in parts for i in mask)
        if flat != list(range(1, self.n + 1)):
            raise ValidationError("block, gap and tail masks must partition 1..n")


def three_part_split(model: SequenceModel, n: int, p_n: int) -> ThreePartSplit:
    """Split ``S_n`` into q full blocks of length p_n, the m-gaps, and a tail.

    The q-th block ends at ``q (p_n + m)``; the tail starts right after it,
    which makes the three masks a partition of 1..n.  The non-empty parts
    are the roots of one graph, read by one sweep; an empty one gives 0.
    """
    if model.m < 1 or not engine.one_law(model):
        raise ValidationError("three_part_split needs a stationary model with m >= 1")
    if p_n < 1 or p_n + model.m > n:
        raise ValidationError("need 1 <= p_n and p_n + m <= n")
    m = model.m
    sub = model.prefix(n)
    q = n // (p_n + m)
    blocks = tuple(
        i * (p_n + m) + j for i in range(q) for j in range(1, p_n + 1)
    )
    gaps = tuple(
        i * (p_n + m) + j for i in range(q) for j in range(p_n + 1, p_n + m + 1)
    )
    tail = tuple(range(q * (p_n + m) + 1, n + 1))

    parts = (blocks, gaps, tail)
    found = iter(engine.eval_sums(sub, engine.square(), [mask for mask in parts if mask]))
    a1, a2, a3 = (next(found).upper if mask else 0.0 for mask in parts)
    return ThreePartSplit(
        n=n, p_n=p_n, m=m,
        blocks_mask=blocks, gaps_mask=gaps, tail_mask=tail,
        a1_m2_over_n=a1 / n,
        a2_m2_over_n=a2 / n,
        a3_m2_over_n=a3 / n,
    )


# ---------------------------------------------------------------------------
# Stationarity check
# ---------------------------------------------------------------------------


def _window_psis() -> tuple[tuple[str, "object"], ...]:
    fs = (engine.square(), engine.cosine(), engine.ramp(0.0), engine.identity())
    psis: list[tuple[str, object]] = [
        (f"sum->{f.name}", (lambda xs, _f=f.phi: _f(math.fsum(xs)))) for f in fs
    ]
    psis.append(("product", lambda xs: math.prod(xs)))
    return tuple(psis)


def stationarity_test(model: SequenceModel, shift: int, j: int) -> float:
    """Max catalog discrepancy between the windows (X_1..X_j) and its shift.

    Each window is one ``engine.window_columns`` recursion carrying every
    payoff of the catalog as an upper column.
    """
    if shift < 0 or j < 1 or j + shift > model.n:
        raise ValidationError("need shift >= 0, j >= 1, j + shift <= n")
    psis = [psi for _, psi in _window_psis()]
    base, _ = engine.window_columns(model, range(1, j + 1), psis, [])
    moved, _ = engine.window_columns(model, range(1 + shift, j + shift + 1), psis, [])
    return max(0.0, *(abs(a - b) for a, b in zip(base, moved)))
