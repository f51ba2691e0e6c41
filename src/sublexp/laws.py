"""Discrete laws, ambiguity sets, and single-variable sub-linear calculus.

An ambiguity set is a finite family of finitely supported probability laws
for one coordinate.  The upper expectation of a test function is the maximum
of its classical expectations over the family; the lower (conjugate)
expectation is ``-upper(-phi)``.  On finite supports this realization
satisfies the four defining axioms of a sub-linear expectation exactly
(monotonicity, constant preserving, sub-additivity, positive homogeneity),
and every sub-linear expectation on a finite space arises this way.

Capacities are evaluated the same way: the upper capacity of an event is the
maximal probability the family assigns to it, the lower capacity is one minus
the upper capacity of the complement.  Only threshold events (``X >= x``,
``X > x``, ``|X| > x``) are supported; for these the indicator is attainable
by Lipschitz envelopes, so the value does not depend on which capacity
extension one picks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from ._frozen import frozen
from .errors import ValidationError

#: Probability vectors whose total differs from 1 by more than this are
#: rejected as construction errors; smaller deviations are renormalized.
PROB_SUM_TOL = 1e-12


@frozen
class DiscreteLaw:
    """A finitely supported probability law with strictly increasing support."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probs)
        if not values:
            raise ValidationError("law needs a non-empty support")
        if len(values) != len(probs):
            raise ValidationError("values and probs must have equal length")
        if any(not math.isfinite(v) for v in values):
            raise ValidationError("support points must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("support must be strictly increasing")
        if any(p < 0.0 or not math.isfinite(p) for p in probs):
            raise ValidationError("probabilities must be finite and >= 0")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def expect(self, phi: Callable[[float], float]) -> float:
        return math.fsum(p * phi(v) for v, p in zip(self.values, self.probs))

    def prob(self, event: "Event") -> float:
        return math.fsum(p for v, p in zip(self.values, self.probs) if event.holds(v))


@frozen
class AmbiguitySet:
    """A non-empty finite family of candidate laws for one coordinate."""

    laws: tuple[DiscreteLaw, ...]

    def __post_init__(self) -> None:
        laws = tuple(self.laws)
        if not laws:
            raise ValidationError("ambiguity set needs at least one law")
        if any(not isinstance(law, DiscreteLaw) for law in laws):
            raise ValidationError("ambiguity set entries must be DiscreteLaw")
        object.__setattr__(self, "laws", laws)

    @property
    def support(self) -> tuple[float, ...]:
        """Union of the member supports, sorted increasingly."""
        return tuple(sorted({v for law in self.laws for v in law.values}))


@frozen
class MomentSummary:
    """Upper/lower means and second moments plus one upper absolute p-th moment."""

    upper_mean: float
    lower_mean: float
    upper_m2: float
    lower_m2: float
    upper_abs_p: float
    p: float

    def __post_init__(self) -> None:
        if self.lower_mean > self.upper_mean + 1e-12:
            raise ValidationError("lower mean exceeds upper mean")
        if self.lower_m2 > self.upper_m2 + 1e-12:
            raise ValidationError("lower second moment exceeds upper")
        if min(self.lower_m2, self.upper_m2) < -1e-12:
            raise ValidationError("second moments must be non-negative")


@frozen
class Event:
    """Threshold event: one of ``X >= x``, ``X > x``, ``|X| > x``."""

    op: str
    threshold: float

    _OPS = ("ge", "gt", "abs_gt")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValidationError(f"unsupported event form {self.op!r}")
        if not math.isfinite(self.threshold):
            raise ValidationError("event threshold must be finite")

    def holds(self, v: float) -> bool:
        if self.op == "ge":
            return v >= self.threshold
        if self.op == "gt":
            return v > self.threshold
        return abs(v) > self.threshold


def upper_expect(set_: AmbiguitySet, phi: Callable[[float], float]) -> float:
    """Max over member laws of the classical expectation of ``phi``."""
    return max(law.expect(phi) for law in set_.laws)


def lower_expect(set_: AmbiguitySet, phi: Callable[[float], float]) -> float:
    """Conjugate expectation ``0.0 - upper_expect(-phi)``: a lower value of 0 is +0.0."""
    return 0.0 - upper_expect(set_, lambda v: -phi(v))


def truncate(set_: AmbiguitySet, c: float) -> AmbiguitySet:
    """Clamp every support point to ``[-c, c]`` and merge coinciding images.

    The clamp maps points outside the window exactly onto ``+-c``, so merging
    uses exact equality; no epsilon matching is needed.
    """
    if not (c > 0.0):
        raise ValidationError("truncation level must be > 0")
    truncated = []
    for law in set_.laws:
        mass: dict[float, float] = {}
        for v, p in zip(law.values, law.probs):
            w = min(max(v, -c), c)
            mass[w] = mass.get(w, 0.0) + p
        items = sorted(mass.items())
        truncated.append(
            DiscreteLaw(tuple(v for v, _ in items), tuple(p for _, p in items))
        )
    return AmbiguitySet(tuple(truncated))


def upper_capacity(set_: AmbiguitySet, event: Event) -> float:
    """Upper capacity of a threshold event: max member probability."""
    return max(law.prob(event) for law in set_.laws)


def lower_capacity(set_: AmbiguitySet, event: Event) -> float:
    """Lower capacity ``1 - V(complement)``, evaluated per member law."""
    return 1.0 - max(1.0 - law.prob(event) for law in set_.laws)


def moments(set_: AmbiguitySet, p: float = 2.0) -> MomentSummary:
    if p < 2.0:
        raise ValidationError("moment exponent must be >= 2")
    return MomentSummary(
        upper_mean=upper_expect(set_, lambda x: x),
        lower_mean=lower_expect(set_, lambda x: x),
        upper_m2=upper_expect(set_, lambda x: x * x),
        lower_m2=lower_expect(set_, lambda x: x * x),
        upper_abs_p=upper_expect(set_, lambda x: abs(x) ** p),
        p=p,
    )


# ---------------------------------------------------------------------------
# Common law constructors used by experiments and tests.
# ---------------------------------------------------------------------------


def point_mass(v: float = 0.0) -> DiscreteLaw:
    return DiscreteLaw((v,), (1.0,))


def two_point_law(sigma: float) -> DiscreteLaw:
    """Symmetric ``+-sigma`` law with mass 1/2 each; degenerates at sigma=0."""
    if sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    if sigma == 0.0:
        return point_mass(0.0)
    return DiscreteLaw((-sigma, sigma), (0.5, 0.5))


def centered_three_point_law(q: float) -> DiscreteLaw:
    """Law on {-1, 0, 1} with masses {q/2, 1-q, q/2}; mean 0, variance q."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    return DiscreteLaw((-1.0, 0.0, 1.0), (q / 2.0, 1.0 - q, q / 2.0))


def bernoulli_pm1(p_plus: float) -> DiscreteLaw:
    """Law on {-1, 1} putting mass ``p_plus`` on +1."""
    if not 0.0 <= p_plus <= 1.0:
        raise ValidationError("p_plus must lie in [0, 1]")
    return DiscreteLaw((-1.0, 1.0), (1.0 - p_plus, p_plus))


def singleton(law: DiscreteLaw) -> AmbiguitySet:
    return AmbiguitySet((law,))


def ambiguity(laws: Iterable[DiscreteLaw]) -> AmbiguitySet:
    return AmbiguitySet(tuple(laws))
