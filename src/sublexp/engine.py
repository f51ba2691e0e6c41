"""Exact evaluation of sub-linear expectations of functionals of sums.

Two sequence models are supported:

* ``independent`` -- one ambiguity set per index; the coordinates form an
  independent sequence in the sequential sense (each new coordinate is
  independent of everything drawn before it).
* ``moving_window`` -- ``X_k = sum_j w_j * eps_{k+j}`` over i.i.d.-ambiguous
  innovations ``eps_1 .. eps_{n+m}``; the sequence is m-dependent by
  construction, with ``m = len(weights) - 1``.

The upper expectation of ``phi(sum_k X_k)`` is a supremum over *adaptive*
policies: the law governing each draw may be chosen as a function of all
previously realized values.  That supremum is computed exactly by backward
induction over reachable states ``(window, accumulated sum)``.  Reachable
sums are merged on a hashed grid (values rounded to 1e-12), which keeps the
recursion exact on designed lattice inputs while tolerating generic ones.

``eval_sum`` runs in two passes.  ``compile_sum`` walks forward once and
records, per draw, the index of every state's child under each distinct
support value.  ``evaluate`` then sweeps that graph backwards with numpy
gathers, upper and lower values together.  Its accumulation order is fixed:
each law's expectation starts at 0.0 and adds ``p * value`` over the law's
support in increasing order, and the best law replaces the running best
only when strictly better.  That is the order of a per-state scalar
recursion, so the vectorized values are the same floats bit for bit.
Compiling is nearly all of the cost, so a caller that needs several
functionals of one sum compiles once and evaluates each on the same graph.
Sharing is scoped by the caller: the graph is a local of the caller's frame,
one row (one horizon n) at a time, and there is no process-wide cache.

``marginals`` gives ``E[phi(X_k)]`` for every k; it evaluates one index
when all coordinates share one sub-linear law.  ``ordered_sum`` adds such
values left to right, the same way on every Python version.

``oracle_policy_enum`` evaluates the same supremum by direct recursion over
full histories, with no state merging and payoffs recomputed from scratch;
it is the independent cross-check for the layered DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GuardError, StateCapError, ValidationError
from .laws import AmbiguitySet

KIND_INDEPENDENT = "independent"
KIND_MOVING_WINDOW = "moving_window"

GROWTH_BOUNDED_LIPSCHITZ = "bounded_lipschitz"
GROWTH_QUADRATIC = "quadratic"
GROWTH_P = "p_growth"

#: Default cap on the total number of reachable DP states.
DEFAULT_STATE_CAP = 50_000_000

#: Default cap on the number of leaf paths in full-history recursions.
DEFAULT_PATH_CAP = 2_000_000

_KEY_DECIMALS = 12


def _canon(x: float) -> float:
    """Round onto the 1e-12 merge grid and normalize -0.0.

    Integral floats are already on the grid (``round`` returns them
    unchanged), so they skip the decimal conversion ``round`` costs.
    """
    if x.is_integer():
        return x + 0.0
    return round(x, _KEY_DECIMALS) + 0.0


@dataclass(frozen=True)
class Functional:
    """A scalar test function with its growth class.

    The growth tag drives which acceptance comparisons a functional takes
    part in (only bounded Lipschitz entries enter the PDE convergence
    sweeps); it has no effect on the exact finite evaluations.
    """

    name: str
    phi: Callable[[float], float]
    growth: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.growth not in (GROWTH_BOUNDED_LIPSCHITZ, GROWTH_QUADRATIC, GROWTH_P):
            raise ValidationError(f"unknown growth class {self.growth!r}")
        if self.growth == GROWTH_P and (self.p is None or self.p < 2.0):
            raise ValidationError("p_growth requires an exponent p >= 2")


def square() -> Functional:
    return Functional("square", lambda x: x * x, GROWTH_QUADRATIC)


def neg_square() -> Functional:
    return Functional("neg_square", lambda x: -(x * x), GROWTH_QUADRATIC)


def identity() -> Functional:
    return Functional("identity", lambda x: x, GROWTH_QUADRATIC)


def cosine() -> Functional:
    return Functional("cos", math.cos, GROWTH_BOUNDED_LIPSCHITZ)


def ramp(a: float) -> Functional:
    """Capped ramp ``min(1, (x - a)^+)``: bounded, 1-Lipschitz."""
    return Functional(
        f"ramp@{a:g}", lambda x, _a=a: min(1.0, max(x - _a, 0.0)),
        GROWTH_BOUNDED_LIPSCHITZ,
    )


def abs_power(p: float) -> Functional:
    if p < 2.0:
        raise ValidationError("abs_power requires p >= 2")
    return Functional(f"abspow@{p:g}", lambda x, _p=p: abs(x) ** _p, GROWTH_P, p=p)


def scaled(f: Functional, multiplier: float) -> Functional:
    """``phi(multiplier * s)`` with the original growth tag and name."""
    return Functional(f.name, lambda s, _f=f.phi, _c=multiplier: _f(_c * s), f.growth, f.p)


def negated(f: Functional) -> Functional:
    return Functional(f"-{f.name}", lambda s, _f=f.phi: -_f(s), f.growth, f.p)


def catalog() -> tuple[Functional, ...]:
    """The default test-function catalog used by experiments and sweeps.

    The shipped ramp sits at the origin: off-center ramps see the kink move
    against the lattice of reachable sums as n grows, which makes their CLT
    error oscillate at the 1e-4 scale instead of decreasing.  Other offsets
    stay available through ``ramp``/``catalog_by_name``.
    """
    return (
        square(),
        identity(),
        cosine(),
        ramp(0.0),
        abs_power(3.0),
    )


def bounded_lipschitz_catalog() -> tuple[Functional, ...]:
    return tuple(f for f in catalog() if f.growth == GROWTH_BOUNDED_LIPSCHITZ)


def catalog_by_name(name: str) -> Functional:
    for f in catalog():
        if f.name == name:
            return f
    if name.startswith("ramp@"):
        return ramp(float(name.split("@", 1)[1]))
    if name.startswith("abspow@"):
        return abs_power(float(name.split("@", 1)[1]))
    raise ValidationError(f"unknown functional {name!r}")


# ---------------------------------------------------------------------------
# Sequence models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceModel:
    """Triangular-array row: n coordinates, each scaled by ``scale``."""

    kind: str
    n: int
    scale: float = 1.0
    sets: tuple[AmbiguitySet, ...] = ()
    innovation: AmbiguitySet | None = None
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (KIND_INDEPENDENT, KIND_MOVING_WINDOW):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("horizon n must be >= 1")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError("scale must be positive and finite")
        if self.kind == KIND_INDEPENDENT:
            if len(self.sets) != self.n:
                raise ValidationError("independent model needs one set per index")
            object.__setattr__(self, "sets", tuple(self.sets))
        else:
            if self.innovation is None:
                raise ValidationError("moving-window model needs an innovation set")
            weights = tuple(float(w) for w in self.weights)
            if not weights:
                raise ValidationError("moving-window weights must be non-empty")
            if any(not math.isfinite(w) for w in weights):
                raise ValidationError("weights must be finite")
            object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        """Dependence width: 0 for independent models."""
        if self.kind == KIND_INDEPENDENT:
            return 0
        return len(self.weights) - 1

    @property
    def steps(self) -> int:
        """Number of primitive draws (innovations for moving windows)."""
        return self.n if self.kind == KIND_INDEPENDENT else self.n + self.m

    def set_at(self, step: int) -> AmbiguitySet:
        """Ambiguity set of the 1-based primitive draw ``step``."""
        if self.kind == KIND_INDEPENDENT:
            return self.sets[step - 1]
        assert self.innovation is not None
        return self.innovation

    def prefix(self, M: int) -> "SequenceModel":
        """The model restricted to coordinates ``1..M``."""
        if not 1 <= M <= self.n:
            raise ValidationError(f"prefix length {M} outside 1..{self.n}")
        if self.kind == KIND_INDEPENDENT:
            return SequenceModel(self.kind, M, self.scale, self.sets[:M])
        return SequenceModel(
            self.kind, M, self.scale, innovation=self.innovation, weights=self.weights
        )

    @staticmethod
    def iid(set_: AmbiguitySet, n: int, scale: float = 1.0) -> "SequenceModel":
        return SequenceModel(KIND_INDEPENDENT, n, scale, sets=(set_,) * n)

    @staticmethod
    def independent(sets: Sequence[AmbiguitySet], scale: float = 1.0) -> "SequenceModel":
        return SequenceModel(KIND_INDEPENDENT, len(sets), scale, sets=tuple(sets))

    @staticmethod
    def moving_window(
        innovation: AmbiguitySet,
        weights: Sequence[float],
        n: int,
        scale: float = 1.0,
    ) -> "SequenceModel":
        return SequenceModel(
            KIND_MOVING_WINDOW, n, scale, innovation=innovation, weights=tuple(weights)
        )


@dataclass(frozen=True)
class EvalResult:
    upper: float
    lower: float
    state_count: int

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValidationError("lower expectation exceeds upper")


# ---------------------------------------------------------------------------
# Layered dynamic program
# ---------------------------------------------------------------------------
#
# A state after t primitive draws is a flat tuple
#     window (last m innovation values) + (acc,) [+ (maxabs,)]
# where acc is the accumulated sum of completed, scaled (and optionally
# clipped) coordinate values.  Coordinate k of a moving-window model
# completes when innovation k+m has been drawn.


def _completes(model: SequenceModel, step: int) -> int | None:
    if model.kind == KIND_INDEPENDENT:
        return step
    k = step - model.m
    return k if k >= 1 else None


def _term(model: SequenceModel, window: tuple[float, ...], v: float,
          x_clip: float | None) -> float:
    if model.kind == KIND_INDEPENDENT:
        raw = v
    else:
        vals = window + (v,)
        raw = math.fsum(w * e for w, e in zip(model.weights, vals))
    x = model.scale * raw
    if x_clip is not None:
        x = min(max(x, -x_clip), x_clip)
    return x


@dataclass(frozen=True)
class _Step:
    """One primitive draw of a compiled graph.

    ``child[i, j]`` is the index, in the next layer, of the state reached from
    state ``i`` when the draw takes the ``j``-th distinct support value.
    ``laws`` holds, per law, its ``(column, p)`` pairs with ``p != 0`` in
    support order: the order the backward pass accumulates them in.
    """

    child: np.ndarray
    laws: tuple[tuple[tuple[int, float], ...], ...]


@dataclass(frozen=True)
class Graph:
    """The reachable-state graph of one ``(model, mask, x_clip, track_max)``."""

    steps: tuple[_Step, ...]
    #: per layer, the payoff argument of every state: acc, or maxabs when tracked
    args: tuple[np.ndarray, ...]
    #: draws before coordinate 1 completes: m for a moving window, else 0
    lead: int

    def prefix(self, M: int) -> "Graph":
        """The graph of ``model.prefix(M)`` (mask cut to 1..M): the first M + lead draws.

        Later draws complete only coordinates after M, so these layers are
        the prefix compile's, with the same keys in the same order.
        """
        n = len(self.steps) - self.lead
        if not 1 <= M <= n:
            raise ValidationError(f"prefix length {M} outside 1..{n}")
        return Graph(self.steps[:M + self.lead], self.args[:M + self.lead + 1], self.lead)


def compile_sum(
    model: SequenceModel,
    *,
    indices: Iterable[int] | None = None,
    x_clip: float | None = None,
    track_max: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Graph:
    """Forward pass: enumerate the reachable states layer by layer.

    The options mean what they mean for ``eval_sum``.  Each state is
    expanded once per distinct support value with positive probability in
    some law, and its children are recorded by index; only the current
    layer's state tuples are kept.  The graph serves any number of
    ``evaluate`` calls; callers keep it only as long as they need it.
    """
    mask = None if indices is None else frozenset(indices)
    if mask is not None and any(not 1 <= k <= model.n for k in mask):
        raise ValidationError("indices outside 1..n")
    if x_clip is not None and not x_clip > 0.0:
        raise ValidationError("x_clip must be > 0")
    m = model.m
    slides = model.kind == KIND_MOVING_WINDOW and m > 0
    # a state is window + (acc,), or window + (acc, maxabs) under track_max
    split = -2 if track_max else -1
    terms: dict[tuple[tuple[float, ...], float], float] = {}
    layer: list[tuple[float, ...]] = [(0.0, 0.0) if track_max else (0.0,)]
    args = [np.zeros(1)]
    total = 1
    steps: list[_Step] = []
    for step in range(1, model.steps + 1):
        set_ = model.set_at(step)
        values = sorted({v for law in set_.laws for v, p in zip(law.values, law.probs)
                         if p != 0.0})
        column = {v: j for j, v in enumerate(values)}
        laws = tuple(
            tuple((column[v], p) for v, p in zip(law.values, law.probs) if p != 0.0)
            for law in set_.laws
        )
        k = _completes(model, step)
        adds = k is not None and (mask is None or k in mask)
        # per window: (next window, term added to acc) for each support value
        moves: dict[tuple[float, ...], list[tuple[tuple[float, ...], float | None]]] = {}
        nxt: dict[tuple[float, ...], int] = {}
        child: list[int] = []
        index, record = nxt.setdefault, child.append
        for state in layer:
            window, tail = state[:split], state[split:]
            out = moves.get(window)
            if out is None:
                out = moves[window] = []
                for v in values:
                    term = None
                    if adds:
                        term = terms.get((window, v))
                        if term is None:
                            term = terms[(window, v)] = _term(model, window, v, x_clip)
                    out.append(((window + (v,))[-m:] if slides else (), term))
            acc, mx = tail[0], tail[-1]
            for nwin, term in out:
                if term is None:
                    key = nwin + tail
                else:
                    a = _canon(acc + term)
                    if track_max:
                        b = abs(a)
                        key = nwin + (a, b if b > mx else mx)  # max(mx, b)
                    else:
                        key = nwin + (a,)
                record(index(key, len(nxt)))
        total += len(nxt)
        if total > state_cap:
            raise StateCapError(total, state_cap, step=step, steps=model.steps,
                                layer_sizes=(*map(len, args), len(nxt)))
        steps.append(_Step(
            np.array(child, dtype=np.int32).reshape(len(layer), len(values)), laws))
        layer = list(nxt)
        args.append(np.array([state[-1] for state in layer], dtype=float))
    return Graph(tuple(steps), tuple(args), model.steps - model.n)


def evaluate(graph: Graph, f: Functional) -> EvalResult:
    """Backward pass: upper and lower value of the root, in one sweep.

    Bit-identical to a per-state dict recursion: each law's expectation is
    accumulated from 0.0 over its columns in support order, and the best law
    is kept with ``where(acc > best)``, which is ``max(best, acc)`` exactly.
    The graph is only read, so one graph serves many functionals.
    """
    up = lo = np.array([f.phi(x) for x in graph.args[-1].tolist()], dtype=float)
    for st in reversed(graph.steps):
        gu, gl = up[st.child], lo[st.child]
        up = np.full(len(st.child), -math.inf)
        lo = np.full(len(st.child), math.inf)
        for law in st.laws:
            acc_u = acc_l = 0.0
            for j, p in law:
                acc_u = acc_u + p * gu[:, j]
                acc_l = acc_l + p * gl[:, j]
            up = np.where(acc_u > up, acc_u, up)
            lo = np.where(acc_l < lo, acc_l, lo)
    return EvalResult(float(up[0]), float(lo[0]), sum(map(len, graph.args)))


def eval_sum(
    model: SequenceModel,
    f: Functional,
    *,
    indices: Iterable[int] | None = None,
    x_clip: float | None = None,
    track_max: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
) -> EvalResult:
    """Upper and lower expectation of ``phi`` applied to the coordinate sum.

    ``indices`` restricts the sum to a subset of coordinates (default: all),
    ``x_clip`` clamps each coordinate to ``[-x_clip, x_clip]`` before
    accumulation, and ``track_max`` applies ``phi`` to the running maximum of
    ``|S_k|`` along completed prefixes instead of to the final sum.  A caller
    that evaluates several functionals on one sum compiles the graph once
    with ``compile_sum`` and calls ``evaluate`` on it for each.
    """
    return evaluate(compile_sum(model, indices=indices, x_clip=x_clip,
                                track_max=track_max, state_cap=state_cap), f)


# ---------------------------------------------------------------------------
# Full-history recursion: window functionals and the policy-enumeration oracle
# ---------------------------------------------------------------------------


def _history_value(
    sets: Sequence[AmbiguitySet],
    payoff: Callable[[tuple[float, ...]], float],
    maximize: bool,
) -> float:
    n_steps = len(sets)

    def rec(t: int, hist: tuple[float, ...]) -> float:
        if t == n_steps:
            return payoff(hist)
        best = -math.inf if maximize else math.inf
        for law in sets[t].laws:
            acc = 0.0
            for v, p in zip(law.values, law.probs):
                if p == 0.0:
                    continue
                acc += p * rec(t + 1, hist + (v,))
            if maximize:
                best = max(best, acc)
            else:
                best = min(best, acc)
        return best

    return rec(0, ())


def _guard_paths(sets: Sequence[AmbiguitySet], path_cap: int) -> None:
    paths = 1
    for s in sets:
        paths *= len(s.support)
        if paths > path_cap:
            raise GuardError(f"history recursion would exceed {path_cap} paths")


def eval_window(
    model: SequenceModel,
    indices: Sequence[int],
    psi: Callable[[tuple[float, ...]], float],
    *,
    lower: bool = False,
    x_clip: float | None = None,
    path_cap: int = DEFAULT_PATH_CAP,
) -> float:
    """Exact expectation of ``psi(X_{i1}, ..., X_{ij})`` for a few indices.

    Evaluated by recursion over the full history of the involved primitive
    draws (draws outside the span integrate out).  Intended for small index
    windows: cross moments, stationarity and independence checks.
    """
    idx = tuple(indices)
    if not idx or any(not 1 <= k <= model.n for k in idx):
        raise ValidationError("window indices must lie in 1..n")
    lo, hi = min(idx), max(idx)
    if model.kind == KIND_INDEPENDENT:
        involved = tuple(sorted(set(idx)))
        sets = [model.sets[k - 1] for k in involved]

        def payoff(hist: tuple[float, ...]) -> float:
            by_index = dict(zip(involved, hist))
            xs = []
            for k in idx:
                x = model.scale * by_index[k]
                if x_clip is not None:
                    x = min(max(x, -x_clip), x_clip)
                xs.append(x)
            return psi(tuple(xs))

    else:
        first, last = lo, hi + model.m
        assert model.innovation is not None
        sets = [model.innovation] * (last - first + 1)
        weights = model.weights

        def payoff(hist: tuple[float, ...]) -> float:
            xs = []
            for k in idx:
                raw = math.fsum(
                    w * hist[k + j - first] for j, w in enumerate(weights)
                )
                x = model.scale * raw
                if x_clip is not None:
                    x = min(max(x, -x_clip), x_clip)
                xs.append(x)
            return psi(tuple(xs))

    _guard_paths(sets, path_cap)
    return _history_value(sets, payoff, maximize=not lower)


def marginals(
    model: SequenceModel,
    phi: Callable[[float], float],
    *,
    lower: bool = False,
    x_clip: float | None = None,
) -> tuple[float, ...]:
    """Upper (or, with ``lower``, lower) ``E[phi(X_k)]`` for k = 1..n.

    Every X_k of a moving-window model, and of an independent model whose
    sets are all equal, has the same sub-linear law, and ``eval_window``
    computes the same floats for every k; one call then gives all n values.
    Other models take one call per k.
    """
    def psi(xs: tuple[float, ...]) -> float:
        return phi(xs[0])

    if model.kind == KIND_MOVING_WINDOW or all(s == model.sets[0] for s in model.sets):
        return (eval_window(model, (1,), psi, lower=lower, x_clip=x_clip),) * model.n
    return tuple(eval_window(model, (k,), psi, lower=lower, x_clip=x_clip)
                 for k in range(1, model.n + 1))


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0 (builtin ``sum`` compensates from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def mean_spread(model: SequenceModel, *, x_clip: float | None = None) -> float:
    """``sum_k (|E[X_k]| + |e[X_k]|)``, added in k order."""
    ups = marginals(model, lambda x: x, x_clip=x_clip)
    los = marginals(model, lambda x: x, lower=True, x_clip=x_clip)
    return ordered_sum(abs(up) + abs(lo) for up, lo in zip(ups, los))


def oracle_policy_enum(
    model: SequenceModel,
    f: Functional,
    *,
    max_n: int = 6,
    path_cap: int = DEFAULT_PATH_CAP,
) -> EvalResult:
    """Brute-force supremum over history-dependent law choices.

    Recurses over full histories of the primitive draws; at every history
    node the value is maximized (minimized for the lower bound) over the
    member laws, which enumerates all adaptive policies.  Payoffs are
    recomputed from the raw history, independently of the layered DP.
    """
    if model.n > max_n:
        raise GuardError(f"oracle guard: n={model.n} exceeds {max_n}")
    sets = [model.set_at(t) for t in range(1, model.steps + 1)]
    for s in sets:
        if len(s.laws) > 3:
            raise GuardError("oracle guard: more than 3 laws at one index")
        if any(len(law.values) > 4 for law in s.laws):
            raise GuardError("oracle guard: law support larger than 4 points")
    _guard_paths(sets, path_cap)

    if model.kind == KIND_INDEPENDENT:
        def payoff(hist: tuple[float, ...]) -> float:
            return f.phi(model.scale * math.fsum(hist))
    else:
        weights = model.weights

        def payoff(hist: tuple[float, ...]) -> float:
            total = 0.0
            for k in range(1, model.n + 1):
                total += math.fsum(
                    w * hist[k + j - 1] for j, w in enumerate(weights)
                )
            return f.phi(model.scale * total)

    upper = _history_value(sets, payoff, maximize=True)
    lower = _history_value(sets, payoff, maximize=False)
    return EvalResult(upper, lower, 0)
