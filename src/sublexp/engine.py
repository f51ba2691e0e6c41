"""Exact evaluation of sub-linear expectations of functionals of sums.

A sequence model is one moving window: ``X_k = scale * sum_j w_j *
eps_{k+j}`` for k = 1..n, with one ambiguity set per draw ``eps_1 ..
eps_{n+m}`` and ``m = len(weights) - 1``.  Each draw is independent of
everything drawn before it in the sequential sense, so the sequence is
m-dependent by construction.  An independent sequence is the case m = 0
with weight 1 (``SequenceModel(sets)``, ``iid``); a stationary one
draws every ``eps`` from one set (``moving_window``).

The upper expectation of ``phi(sum_k X_k)`` is a supremum over *adaptive*
policies: the law governing each draw may be chosen as a function of all
previously realized values.  That supremum is computed exactly by backward
induction over reachable states ``(window, accumulated sum)``.  Reachable
sums are merged on a grid: each is rounded to 12 decimals exactly as
``round(x, 12)`` rounds it (``_canon_array`` computes that rounding in
numpy), which keeps the recursion exact on designed lattice inputs while
tolerating generic ones.  When every term is a multiple of 2⁻¹² and the
sums stay below 2⁴¹, every sum is an exact float that this rounding leaves
unchanged, so the compile keeps the sums as int64 counts of g·2⁻¹², g the
gcd of the terms' counts of 2⁻¹², and merges on those integers instead; the
graph is the same, array for array.  A layer merges its equal states in
linear time, through a direct-address table of first occurrences.

A sum is evaluated in two passes.  ``compile_sum`` walks forward once,
one whole layer at a time as numpy arrays (window codes, sums, running
maxima), and records, per draw, the index of every state's child under
each distinct support value.  ``sweep_columns`` then sweeps that graph
backwards once with numpy gathers for every column ``(f, M)`` asked of
it, ``f`` of the sum of coordinates 1..M.  It takes upper and lower
columns as separate lists, so a caller that reads one side does not carry
the other; ``evaluate_columns`` passes each column to both sides.  Every
backward pass maximizes only: a lower value is the conjugate
``e[phi] = -E[-phi]``, swept as the upper value of ``-phi`` and read back
as ``0.0 - v``.  That is the direct minimum bit for bit, because IEEE
rounding is symmetric under negation, a strict ``>`` on negated values
picks the law a strict ``<`` picks, and no swept value is -0.0, so
``0.0 - v`` gives +0.0 where the minimum is 0.  The accumulation order is
fixed: each law's expectation starts at 0.0 and adds ``p * value`` over
the law's support in increasing order, and the best law replaces the
running best only when strictly greater.  That is the order of a
per-state scalar recursion, so the vectorized values are the same floats
bit for bit.  A caller compiles a sum once and asks for all its
functionals and horizons in one sweep.  The graph is a local of
the caller's frame, one row (one horizon n) at a time, and there is no
process-wide cache.  A graph depends on each draw's support columns, the
weights and the scale (``support_key``), not on the probabilities, so
models that differ only in their laws share one compile: ``with_laws``
puts another model's laws on the same arrays.

Sums of several index sets (masks) of one model share one graph: layer 0
holds one root per mask, every state carries the component id of its root,
a component adds a draw's term at its own clip level when its mask holds
the coordinate the draw completes and a zero term otherwise, so every
layer is one gather for every root, and states merge only within a
component.  The states reachable from root r are the graph of mask r
alone, so one sweep reads every root.

An unclipped full sum on the lattice needs no state graph (``row_sums``).
Draw t enters the coordinates t - j for the weights j with 1 <= t - j <= n,
so the sum is ``scale * sum_t c_t eps_t`` with the per-draw coefficient
``c_t = sum_j w_j`` over those j: an independent sum, whose state after t
draws is its partial sum alone.  On the lattice every partial sum is
exact, and one draw's terms differ by multiples of a step, so layer t is
one contiguous range of offsets in steps and a state's child under
support column j sits at a fixed shift: the backward pass over a
``DenseSum`` reads each child column as one slice, with no child arrays
and no merge.  It is exact: a graph state ``(window, acc)`` and the sum
``acc`` plus the window's terms still to come reach children of equal
values under every column, and the last
layers take ``phi`` of the same exact float, so by induction every value
is the graph's bit for bit.  A draw whose coefficient is 0 keeps its
support columns at shift 0, so each still adds ``0.0 + p * value``, as in
the graph.  A prefix column M < n has its own coefficients on its last m
draws; it is swept through them alone and joins the one pass at layer M.
Every layer size follows from the terms, so the state cap is checked
before any work.  A clipped root, a sum off the lattice, masks and the
running max (``track_max``) compile the graph.

A dense sum still counts the graph's states, without building them: layer
t of the graph holds each window of draws t-m+1..t with each sum reached
after draw t-m (no window draw has entered it yet, and a window fixes what
it adds), so it is the product of those draws' support sizes times the
offsets of the dense layer t-m that some path reaches.  Those come from one
boolean pass: layer t is layer t-1 or-ed at each distinct shift.  So every
``EvalResult.state_count`` is a count of graph states, on either handle.
Both handles hold per draw its ``laws`` and per layer its ``states``, one
count per root (a dense sum has one root), so the sweep reads the laws
and the counts are summed the same way on either.

Functionals of a few coordinates are evaluated by recursion over the full
history of the draws they involve, on the support columns the graph
expands, and each coordinate is formed by the ``_coordinate`` that forms
the graph's terms.  ``window_columns`` carries many payoff
columns through one such recursion, upper and lower columns as separate
lists, as ``sweep_columns`` takes them, and a lower column as the upper
column of its negated payoff; each column keeps its own running value per
law and its own best, so it is the same floats as a recursion that carries
it alone.  ``marginal_columns`` gives ``E[phi(X_k)]`` for every
k and every column; it evaluates one index when all coordinates share one
sub-linear law, and one per k otherwise.  ``spread_columns`` adds the
``E[X_k]`` and ``e[X_k]`` columns to a caller's own and returns
``|E[X_k]| + |e[X_k]|`` per k.  ``ordered_sum`` adds per-index values left
to right, the same way on every Python version.

``oracle_policy_enum`` evaluates the same supremum by direct recursion over
full histories, with no state merging and payoffs recomputed from scratch,
``phi`` and ``-phi`` as two columns of one recursion; it is the
independent cross-check for the layered DP.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ._frozen import frozen
from .errors import GuardError, StateCapError, ValidationError
from .laws import AmbiguitySet

#: Default cap on the total number of reachable DP states.
DEFAULT_STATE_CAP = 50_000_000

#: Cap on the number of leaf paths in full-history recursions.
PATH_CAP = 2_000_000

#: Largest horizon n that ``oracle_policy_enum`` evaluates.
ORACLE_MAX_N = 6

_KEY_DECIMALS = 12

#: Slots per merged row of a merge's first-occurrence table.
_TABLE_FACTOR = 8

#: Lattice compiles take terms that are multiples of 2⁻¹², and keep sums below 2⁴¹.
_QUANTUM = 2**12
_LATTICE_LIMIT = 2**41


@frozen
class Functional:
    """A named scalar test function ``phi``."""

    name: str
    phi: Callable[[float], float]


def square() -> Functional:
    return Functional("square", lambda x: x * x)


def identity() -> Functional:
    return Functional("identity", lambda x: x)


def cosine() -> Functional:
    return Functional("cos", math.cos)


def ramp(a: float) -> Functional:
    """Capped ramp ``min(1, (x - a)^+)``: bounded, 1-Lipschitz."""
    return Functional(f"ramp@{a:g}", lambda x, _a=a: min(1.0, max(x - _a, 0.0)))


def abs_power(p: float) -> Functional:
    if p < 2.0:
        raise ValidationError("abs_power requires p >= 2")
    return Functional(f"abspow@{p:g}", lambda x, _p=p: abs(x) ** _p)


def scaled(f: Functional, multiplier: float) -> Functional:
    """``phi(multiplier * s)`` under the original name."""
    return Functional(f.name, lambda s, _f=f.phi, _c=multiplier: _f(_c * s))


def negated(f: Functional) -> Functional:
    return Functional(f"-{f.name}", lambda s, _f=f.phi: -_f(s))


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


def catalog_by_name(name: str) -> Functional:
    """A catalog entry, or ``ramp@a`` / ``abspow@p`` for a finite number after the ``@``."""
    for f in catalog():
        if f.name == name:
            return f
    family, at, arg = name.partition("@")
    make = {"ramp": ramp, "abspow": abs_power}.get(family)
    if make is None or not at:
        raise ValidationError(f"unknown functional {name!r}")
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"functional {name!r} needs a finite number after '@'")
    return make(value)


# ---------------------------------------------------------------------------
# Sequence models
# ---------------------------------------------------------------------------


@frozen
class SequenceModel:
    """Triangular-array row ``X_k = scale * sum_j w_j * eps_{k+j}``, k = 1..n.

    ``sets`` holds the ambiguity set of every draw ``eps_1 .. eps_{n+m}``
    and ``weights`` the window ``w_0 .. w_m``, so ``m = len(weights) - 1``
    and ``n = len(sets) - m``.  An independent sequence is the window
    ``(1.0,)``: ``X_k = scale * eps_k``.  A model whose sums can overflow a
    float raises ``ValidationError``: that is when the sum of ``|w_j|``, times
    the largest ``|v|`` of any law's support, times ``max(scale, 1)``, times
    n is not finite.  ``max(scale, 1)`` bounds the unscaled products and sums
    too, which ``_coordinate`` and ``oracle_policy_enum`` form before they scale.
    """

    sets: tuple[AmbiguitySet, ...]
    weights: tuple[float, ...] = (1.0,)
    scale: float = 1.0

    def __post_init__(self) -> None:
        sets, weights = tuple(self.sets), tuple(float(w) for w in self.weights)
        if not weights:
            raise ValidationError("weights must be non-empty")
        if any(not math.isfinite(w) for w in weights):
            raise ValidationError("weights must be finite")
        if len(sets) < len(weights):
            raise ValidationError("horizon n must be >= 1: give at least one set per weight")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError("scale must be positive and finite")
        if not math.isfinite(sum(map(abs, weights)) * max(
                abs(v) for s in set(sets) for law in s.laws for v in law.values)
                * max(self.scale, 1.0) * (len(sets) - len(weights) + 1)):
            raise ValidationError(
                "a sum can overflow a float: sum|w_j| * max|v| * max(scale, 1) * n")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        """Dependence width: the draws a coordinate shares with the next."""
        return len(self.weights) - 1

    @property
    def n(self) -> int:
        """Horizon: the number of coordinates."""
        return len(self.sets) - len(self.weights) + 1

    def prefix(self, M: int) -> "SequenceModel":
        """The model restricted to coordinates ``1..M``."""
        if not 1 <= M <= self.n:
            raise ValidationError(f"prefix length {M} outside 1..{self.n}")
        return SequenceModel(self.sets[:M + self.m], self.weights, self.scale)

    @staticmethod
    def iid(set_: AmbiguitySet, n: int, scale: float = 1.0) -> "SequenceModel":
        return SequenceModel((set_,) * n, scale=scale)

    @staticmethod
    def moving_window(
        innovation: AmbiguitySet,
        weights: Sequence[float],
        n: int,
        scale: float = 1.0,
    ) -> "SequenceModel":
        """``X_k = scale * sum_j w_j * eps_{k+j}`` over i.i.d.-ambiguous draws of ``innovation``."""
        return SequenceModel((innovation,) * (n + len(weights) - 1), weights, scale)


@frozen
class EvalResult:
    """Upper and lower expectation of one functional, and the DP states behind them.

    ``state_count`` is the states of the sum's graph (``compile_sum``, at the
    column's root) in layers 0..M + m, for a column at horizon M.  A
    ``DenseSum`` counts them without building them, so there it can exceed
    the state cap.
    """

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
# A state after t draws is a window (the last min(t, m) drawn values), acc
# and, under track_max, maxabs, where acc is the accumulated sum of
# completed, scaled (and optionally clipped) coordinate values.  A layer
# holds each of the three as one array.  Coordinate k completes when draw
# k+m has been drawn.


def _completes(model: SequenceModel, step: int) -> int | None:
    k = step - model.m
    return k if k >= 1 else None


def _coordinate(model: SequenceModel, window: Sequence[float], x_clip: float | None) -> float:
    """``X_k`` of its draws ``window = (eps_k .. eps_{k+m})``, clipped to ``[-x_clip, x_clip]``.

    ``scale * fsum(w_j * eps_{k+j})``: the one place a coordinate is
    formed, for the layered DP (``_term_table``) and for the history
    recursion (``window_columns``) alike.
    """
    x = model.scale * math.fsum(w * e for w, e in zip(model.weights, window))
    if x_clip is not None:
        x = min(max(x, -x_clip), x_clip)
    return x


@frozen(identity=True)
class Graph:
    """The reachable-state graph of one ``(model, masks, x_clip, track_max)``.

    Layer 0 holds one root per mask, and the states reachable from root r
    form the graph of mask r alone, at root r's clip level.  ``children``
    and ``args`` depend on the model's ``support_key`` and not on its
    probabilities, which only ``laws`` holds (``with_laws``).  ``laws``,
    ``lead`` and ``states`` mean on a graph what they mean on a
    ``DenseSum``: the two handles are swept and counted the same way.
    """

    #: per draw t, ``children[t-1][i, j]``: the index, in layer t, of the state
    #: reached from state i of layer t-1 under the draw's j-th support column
    children: tuple[np.ndarray, ...]
    #: per draw, each law's ``(column, p)`` pairs with ``p != 0`` in support order,
    #: the order the backward pass accumulates them in
    laws: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]
    #: per layer, the payoff argument of every state: acc, or maxabs when tracked
    args: tuple[np.ndarray, ...]
    #: draws before coordinate 1 completes: m
    lead: int
    #: per layer, the states reachable from each root
    states: tuple[tuple[int, ...], ...]
    #: the model it was compiled from: its ``support_key`` fixes the arrays,
    #: and its laws fill ``laws``
    model: SequenceModel | None = None


@frozen(identity=True)
class DenseSum:
    """The dense lattice layers of one model's unclipped full sum (``row_sums``).

    Draw t adds ``sum_j parts[t-1][j, col]`` 2⁻¹² over the weights j of
    the coordinates of the sum it enters.  The terms of one draw differ by
    multiples of ``step``, so the sums after t draws all sit on
    ``lows[t] + step * i``: layer t is the offsets i of ``range(sizes[t])``,
    and ``shifts[t-1][col]`` is how far above a state's offset its child
    under support column ``col`` sits in layer t.  These three hold the
    full sum; a prefix sum shares its layers up to its horizon M.
    ``laws``, ``lead`` and ``states`` are a ``Graph``'s, for the one root
    of the full sum; ``states`` counts the window graph's states without
    building them.
    """

    #: per draw, each law's ``(column, p)`` pairs with ``p != 0`` in support order
    laws: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]
    #: per draw, row j the term of weight j per support column, in counts of 2⁻¹²
    parts: tuple[np.ndarray, ...]
    shifts: tuple[np.ndarray, ...]
    #: per layer, its least sum in counts of 2⁻¹²
    lows: tuple[int, ...]
    sizes: tuple[int, ...]
    #: draws before coordinate 1 completes: m
    lead: int
    #: the gcd of the differences between the terms of one weight at one draw
    step: int
    #: per layer, a 1-tuple: the states of the window graph of the same sum,
    #: counted, not built
    states: tuple[tuple[int], ...]


def _canon_array(x: np.ndarray) -> np.ndarray:
    """``round(v, 12) + 0.0`` for every element ``v`` of ``x``, bit for bit.

    ``round`` takes N, the integer nearest the exact product P = v·10¹²
    (ties to even), and returns the double nearest N·10⁻¹².  Let
    ``y = v*1e12`` (rounded once, so |P − y| ≤ ``spacing(|y|)``/2) and
    ``r = rint(y)``.  ``y - r`` is exact, and ``0.5 - |y - r|``, y's distance
    to the nearest half-integer, is rounded once; rounding is monotone, so
    it exceeds the double ``spacing(|y|)`` only if the exact distance does.
    Then P lies strictly inside the same unit interval around r as y, so
    N = r, and the IEEE quotient ``r / 1e12`` is the double nearest
    N·10⁻¹².  An integral ``v`` is its own rounding.  Every other element
    (near a decimal half-tie, non-integral with |v| ≥ 2⁵²·10⁻¹², NaN) takes
    ``round`` itself.  ``spacing`` is signed, hence the ``|y|``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e12
        r = np.rint(y)
        integral = np.rint(x) == x
        out = np.where(integral, x, r / 1e12)
        slow = ~(integral | (0.5 - np.abs(y - r) > np.spacing(np.abs(y))))
    if slow.any():
        out[slow] = [round(v, _KEY_DECIMALS) for v in x[slow].tolist()]
    return out + 0.0


def _term_table(model: SequenceModel, supports: tuple[tuple[float, ...], ...],
                x_clip: float | None) -> np.ndarray:
    """``table[code, j]``: the term added when a state with window ``code`` draws ``values[j]``.

    ``supports`` holds the support columns of the window's m draws, oldest
    first, then ``values``, those of the draw itself.  A window's code is a
    mixed-radix number: each draw's support column is one digit, in the
    radix of that draw's number of columns, oldest draw first.  So row
    ``code`` of the table belongs to the ``code``-th window of
    ``itertools.product(*supports[:-1])``; for m = 0 that is the one empty
    window.
    """
    *window, values = supports
    windows = itertools.product(*window)
    return np.array([[_coordinate(model, w + (v,), x_clip) for v in values] for w in windows],
                    dtype=float)


def _dense_ids(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids 0..d-1 with equal ids exactly for equal elements, and d."""
    distinct, ids = np.unique(col, return_inverse=True)
    return ids, len(distinct)


def _merge(columns: Sequence[tuple[np.ndarray, int]], size: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge equal rows of ``columns`` in order of first occurrence.

    Each column is ``(ids, bound)`` with ``0 <= ids < bound``, over ``size``
    rows.  Returns the position of the first occurrence of every distinct
    row, in order of position, and each row's rank in that order: the index
    a dict would give it on first insertion, scanning the rows in order.

    The ids are packed into one int64 key in place of the first column's
    ids, which the merge overwrites.  A direct-address int32 table of one
    slot per key value takes each key's first position (``minimum.at``);
    the rows whose position is their key's first are the first occurrences,
    already in position order, and the table then holds each key's rank.
    The table has at most ``_TABLE_FACTOR`` slots per row: a column or a
    pack with more values is renumbered densely by ``_dense_ids`` (a sort)
    before it is packed further, which also keeps every pack below 2⁶³.
    At 8 slots of 4 bytes the merge's temporaries stay under 40 bytes per
    row, less than a sort of position-packed int64 keys takes.
    """
    limit = _TABLE_FACTOR * size
    key, bound = None, 1
    for ids, n in columns:
        if n > limit:
            ids, n = _dense_ids(ids)
        if key is None:
            key = ids
        else:
            key *= n
            key += ids
        bound *= n
        if bound > limit:
            key, bound = _dense_ids(key)
    pos = np.arange(size, dtype=np.int32)
    table = np.full(bound, size, dtype=np.int32)
    np.minimum.at(table, key, pos)
    first = np.flatnonzero(table[key] == pos)
    table[key[first]] = pos[:len(first)]
    return first, table[key]


def _support_columns(sets: Sequence[AmbiguitySet]) -> list[tuple[tuple[float, ...], tuple]]:
    """Per draw: its support columns and its laws, built once per distinct ambiguity set.

    The support columns are the distinct values with positive probability in
    some law, in increasing order; a law is its ``(column, p)`` pairs with
    ``p != 0`` in support order.  Draws of one set share both objects.
    """
    prepared: dict[AmbiguitySet, tuple[tuple[float, ...], tuple]] = {}
    for set_ in sets:
        if set_ not in prepared:
            values = tuple(sorted({v for law in set_.laws
                                   for v, p in zip(law.values, law.probs) if p != 0.0}))
            column = {v: j for j, v in enumerate(values)}
            prepared[set_] = values, tuple(
                tuple((column[v], p) for v, p in zip(law.values, law.probs) if p != 0.0)
                for law in set_.laws
            )
    return [prepared[set_] for set_ in sets]


def support_key(model: SequenceModel) -> tuple:
    """What the graphs of ``model`` depend on besides masks, clip levels and ``track_max``.

    Each draw's support columns (``_support_columns``), the weights and the
    scale, every float as ``float.hex``: two keys are equal exactly when
    those floats are equal bit for bit, so -0.0 and 0.0 differ.  The
    probabilities are not part of it (``with_laws``).
    """
    columns = tuple(tuple(map(float.hex, values)) for values, _ in _support_columns(model.sets))
    return columns, tuple(map(float.hex, model.weights)), model.scale.hex()


def with_laws(graph: Graph, model: SequenceModel) -> Graph:
    """The graph ``compile_sum`` builds for ``model`` with ``graph``'s options, from ``graph``.

    ``compile_sum`` expands every state under each support column some law
    gives positive probability, whatever the probability, so the child and
    argument arrays follow from ``support_key`` alone.  A model with the
    graph's key shares them, and its ``states``; only ``laws`` becomes the
    model's, and a sweep takes its per-law accumulation from it, bit for bit
    as over the model's own compile.  Raises ``ValidationError`` when the
    keys differ.
    """
    if graph.model is None or support_key(model) != support_key(graph.model):
        raise ValidationError(
            "with_laws needs the support columns, weights and scale the graph was compiled on")
    laws = tuple(laws for _, laws in _support_columns(model.sets))
    return dataclasses.replace(graph, laws=laws, model=model)


def _draws(model: SequenceModel, masks: Sequence[frozenset[int] | None],
           clips: Sequence[float | None]) -> list[tuple[tuple, np.ndarray]]:
    """Per draw: its laws and its stack of term tables, one table per root.

    The support columns and laws are those of ``_support_columns``.  A draw
    adds in root r when it completes a coordinate of mask r (every
    coordinate, for ``None``).  ``terms[r]`` is then the term table of
    root r's clip level ``clips[r]``, built once per level and supports of
    the window's draws and its own, and otherwise the draw's zero table.
    ``terms[r, code, j]`` is a term of root r (see ``_term_table``), and
    ``terms.shape[-1]`` the draw's number of support columns.  Draws with
    the same supports that add in the same roots share one stack.
    """
    tables: dict[tuple[tuple, float | None], np.ndarray] = {}
    stacks: dict[tuple[tuple, tuple[bool, ...]], np.ndarray] = {}
    draws, supports = [], []
    for step, (values, laws) in enumerate(_support_columns(model.sets), start=1):
        supports.append(values)
        # the supports of the window's draws, then this draw's
        key = tuple(supports[max(step - 1 - model.m, 0):])
        k = _completes(model, step)
        adds = tuple(k is not None and (mask is None or k in mask) for mask in masks)
        terms = stacks.get((key, adds))
        if terms is None:
            for clip, add in zip(clips, adds):
                if add and (key, clip) not in tables:
                    tables[key, clip] = _term_table(model, key, clip)
            zero = np.zeros((math.prod(map(len, key[:-1])), len(values)))
            terms = stacks[key, adds] = np.stack(
                [tables[key, clip] if add else zero for clip, add in zip(clips, adds)])
        draws.append((laws, terms))
    return draws


def _quanta(x: np.ndarray) -> np.ndarray | None:
    """``x`` in int64 counts of 2⁻¹², or None unless each entry is a finite multiple below 2⁴¹.

    It bounds each entry alone: a caller that adds entries bounds their
    sum itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        units = x * _QUANTUM
    # a NaN or infinite entry fails the bound
    if not ((np.rint(units) == units).all() and np.abs(units).max() < _LATTICE_LIMIT * _QUANTUM):
        return None
    return units.astype(np.int64)


def _offset_ids(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids ``col - min(col)`` of an integer column, and their bound."""
    low = int(col.min())
    return col - low, int(col.max()) - low + 1


def compile_sum(
    model: SequenceModel,
    *,
    masks: Sequence[Iterable[int] | None] = (None,),
    x_clip: float | None | Sequence[float | None] = None,
    track_max: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Graph:
    """Forward pass: enumerate the reachable states layer by layer.

    ``masks`` compiles the sum of each of several index sets (``None`` for
    all coordinates, the default's one root) into one graph.  ``x_clip``
    clamps each coordinate to ``[-x_clip, x_clip]`` before accumulation; it
    is one level for every mask or a list or tuple of one level per mask
    (``None`` clips nothing).  ``track_max`` makes each state's payoff
    argument the running maximum of ``|S_k|`` along completed prefixes
    instead of the sum, and ``state_cap`` bounds the states of all layers
    and roots together.

    A layer is three arrays: each state's window code (the last m draws'
    support columns as mixed-radix digits, see ``_term_table``), its ``acc``, and, under
    ``track_max``, its ``maxabs``.  Every state is expanded under each distinct support value
    with positive probability in some law, all at once, in one gather: the
    child's sum is ``acc + terms[root, window, j]`` (one IEEE add, as in
    scalar code), from its root's table of the draw's stack (``_draws``),
    rounded by ``_canon_array`` onto the 1e-12 merge grid,
    and its running max is ``where(b > mx, b, mx)`` with ``b = |sum|``.
    ``_coordinate`` runs once per distinct (window, value) pair.  So the graph
    depends on each draw's support columns, the weights and the scale
    (``support_key``), not on the probabilities: those only fill the
    graph's ``laws``, and ``with_laws`` puts the laws of another model of
    the same key on the same arrays, so the graph records its ``model``.
    Children with equal (window, acc, maxabs) merge (``_merge``), numbered
    in order of first occurrence in row-major (state, column) order: the order a
    per-state dict loop inserts them, so the graph is the one that loop
    builds, array for array (``tests/test_engine_differential.py`` keeps the
    loop as its reference).

    When every term is a multiple of 2⁻¹² (``_quanta``) and the draws'
    largest term magnitudes add up to less than 2⁴¹, every reachable
    sum is an exact float on that lattice, and ``round(x, 12)`` returns it
    unchanged:
    x·10¹² = k·244140625 for the integer k = x·2¹², so there is no tie and
    the nearest double to k·2⁻¹² is x itself.  The merge-grid rounding is
    then the identity (sums start at +0.0, so none is -0.0), and the compile
    keeps ``acc`` and ``maxabs`` as exact int64 counts of g·2⁻¹², where g is
    the gcd of the counts of 2⁻¹² of every term table a root adds (1 when
    no root adds one, or every term is 0), with their offsets from the
    layer minimum as merge ids.  The payoff arguments are
    ``(count * g) / 4096.0``, the same floats.  Counting in units of g keeps
    the offsets dense (half-integer terms have g = 2048), so that ``_merge``
    can address them directly.  Any other input (an irrational scale
    such as 1/√n, an off-lattice ``x_clip``) takes the float merge grid,
    with each float column renumbered by ``_dense_ids``, and the same
    merge.  One ``evaluate_columns`` sweep reads every functional and
    horizon asked of the graph; callers keep it only as long as they need
    it.

    Several masks share one graph.  Layer 0 holds one root per mask, and
    every state carries the component id of its root: a state of component r
    adds the term of its own clip level (each level has its own term table)
    when mask r holds the coordinate the draw completes, and the draw's zero
    table otherwise, and the merge key includes the component id, so
    components never merge.  Adding the zero table leaves a state as it
    was: on the lattice ``acc + 0`` is ``acc``; on the float grid ``acc``
    is already rounded and ``_canon_array`` is idempotent; and a running
    max is already at least ``|acc|``.  The layers stay component-major
    (component r's states before r + 1's), and within a component the order
    of first occurrence is the one its mask's own compile sees, so the
    states reachable from root r are that compile's graph, array for array,
    and one sweep reads every root.  One mask adds no component column.  A
    draw that adds in no root merges too: at m = 0 each state's children
    are that state again.  The lattice test covers every table of a draw's
    stack, so one off-lattice level puts the whole graph on the float grid
    (which builds the same graph), and ``state_cap`` bounds the states of
    all components together.  A state of a mask's compile in which a draw
    does not add still takes ``0.0 + p * value`` per support column in the
    sweep, so masks of equal length at different positions
    can differ in the last bits; each mask keeps its own draws.
    """
    masks = [None if mask is None else frozenset(mask) for mask in masks]
    if not masks:
        raise ValidationError("compile_sum needs at least one mask")
    if any(mask and not 1 <= min(mask) <= max(mask) <= model.n for mask in masks):
        raise ValidationError("indices outside 1..n")
    m, R = model.m, len(masks)
    clips = list(x_clip) if isinstance(x_clip, (list, tuple)) else [x_clip] * R
    if len(clips) != R:
        raise ValidationError(f"x_clip needs one level per mask: {len(clips)} for {R}")
    if any(clip is not None and not clip > 0.0 for clip in clips):
        raise ValidationError("x_clip must be > 0")
    slides = m > 0
    draws = _draws(model, masks, clips)
    radices = [terms.shape[-1] for _, terms in draws]
    # a root adds one entry of each draw's stack, so its sums stay below 2⁴¹
    # when the draws' largest entries do: a draw counts once, however many
    # tables its stack holds; draws of one stack share its counts
    stacks = {id(terms): terms for _, terms in draws}
    counts = {key: _quanta(terms) for key, terms in stacks.items()}
    tops = {key: int(np.abs(c).max()) for key, c in counts.items() if c is not None}
    lattice = (len(tops) == len(counts)
               and sum(tops[id(terms)] for _, terms in draws) < _LATTICE_LIMIT * _QUANTUM)
    if lattice:
        # every count is a multiple of unit, so sums count in units of it
        unit = math.gcd(*(int(np.gcd.reduce(c.ravel())) for c in counts.values())) or 1
        for c in counts.values():
            c //= unit
        draws = [(laws, counts[id(terms)]) for laws, terms in draws]
    ids = _offset_ids if lattice else _dense_ids
    win = np.zeros(R, dtype=np.int64)  # read only when the window slides
    acc = mx = np.zeros(R, dtype=np.int64 if lattice else float)
    comp = np.arange(R)  # read only when there are several roots
    args, children, states = [np.zeros(R)], [], [(1,) * R]
    total = R
    for step, (_, terms) in enumerate(draws, start=1):
        n, V = len(acc), terms.shape[-1]
        a = acc[:, None] + terms[comp if R > 1 else 0, win if slides else 0]
        a = (a if lattice else _canon_array(a)).ravel()
        if track_max:
            b, x = np.abs(a), np.repeat(mx, V)
            x = np.where(b > x, b, x)
        columns = [ids(a)]
        if track_max:
            columns.append(ids(x))
        if slides:
            w = (win[:, None] * V + np.arange(V)).ravel()
            # the last min(step, m) draws; a full window drops its oldest digit
            span = math.prod(radices[max(step - m, 0):step])
            if step > m:
                w %= span
            columns.append((w, span))
        if R > 1:
            c = np.repeat(comp, V)
            columns.append((c, R))
        first, child = _merge(columns, n * V)
        if R > 1:
            comp = c[first]
        total += len(first)
        if total > state_cap:
            raise StateCapError(total, state_cap, step=step, steps=len(model.sets),
                                layer_sizes=(*map(len, args), len(first)))
        children.append(child.reshape(n, V))
        if slides:
            win = w[first]
        acc = a[first]
        if track_max:
            mx = x[first]
        args.append(mx if track_max else acc)
        states.append(tuple(np.bincount(comp, minlength=R).tolist()) if R > 1 else (len(first),))
    if lattice:
        # after the last layer and one layer at a time, so at most one
        # layer's counts and floats are alive at once
        for t, arg in enumerate(args):
            args[t] = arg * unit / float(_QUANTUM)
    return Graph(tuple(children), tuple(laws for laws, _ in draws), tuple(args), m,
                 tuple(states), model)


def _dense_layers(parts: Sequence[np.ndarray], step: int, m: int, M: int, first: int, low: int,
                  size: int) -> tuple[list[np.ndarray], list[int], list[int]]:
    """Draws ``first..M+m`` of the sum ``S_M``, from a layer of ``size`` offsets above ``low``.

    Draw t adds row j of its part for every weight j whose coordinate
    t - j lies in 1..M: the per-draw coefficient ``c_t = sum_j w_j`` over
    those j, times each support value.  Returns each draw's shifts (its
    terms less the least, in steps), and the least sum and size of the
    layer it starts from and of every layer it reaches.  A draw all of
    whose terms are 0 has every shift 0 and keeps its layer's size.
    """
    shifts, lows, sizes = [], [low], [size]
    seen: dict[tuple[int, int, int], tuple[np.ndarray, int, int]] = {}
    for t in range(first, M + m + 1):
        part = parts[t - 1]
        span = (id(part), max(0, t - M), min(m, t - 1))
        got = seen.get(span)
        if got is None:
            terms = part[span[1]:span[2] + 1].sum(axis=0)
            least = int(terms.min())
            shift = (terms - least) // step
            got = seen[span] = shift, least, int(shift.max())
        shift, least, width = got
        shifts.append(shift)
        lows.append(lows[-1] + least)
        sizes.append(sizes[-1] + width)
    return shifts, lows, sizes


def _dense_sum(model: SequenceModel, state_cap: int) -> DenseSum | None:
    """The dense layers of ``model``'s full sum, or None when it is off the lattice.

    The term of weight j at support value v is ``scale * w_j * v``.  The
    sum is dense when every such term is a finite multiple of 2⁻¹²
    (``_quanta``), the largest of them over every (coordinate, weight) pair
    add up to less than 2⁴¹, and every term ``compile_sum`` builds for a
    window (see ``_term_table``) is the sum of its draws' terms of their
    weights.  Then every partial sum, here and in the graph, is an exact
    float, and the graph's terminal arguments are the dense layers' sums,
    bit for bit.
    ``state_cap`` bounds the offsets of all layers, checked before any
    work: the dense layer sizes are known from the terms alone.  The graph's
    layer sizes are counted last (see the module docstring), one boolean
    layer at a time.
    """
    m, n = model.m, model.n
    draws = _support_columns(model.sets)
    supports = {id(values): values for values, _ in draws}  # draws of one set share its columns
    quanta = {key: _quanta(np.outer([model.scale * w for w in model.weights], values))
              for key, values in supports.items()}
    if any(q is None for q in quanta.values()):
        return None
    largest = {key: [int(x) for x in np.abs(q).max(axis=1)] for key, q in quanta.items()}
    total = sum(sum(largest[id(values)][max(0, t - n):min(m, t - 1) + 1])
                for t, (values, _) in enumerate(draws, start=1))
    if total >= _LATTICE_LIMIT * _QUANTUM:
        return None
    windows = {tuple(values for values, _ in draws[t - m - 1:t]) for t in range(m + 1, n + m + 1)}
    for window in windows:
        want = np.zeros(())
        for j, values in enumerate(window):
            want = want + quanta[id(values)][j].reshape((-1,) + (1,) * (m - j))
        if not np.array_equal(_term_table(model, window, None) * _QUANTUM,
                              want.reshape(-1, len(window[-1]))):
            return None
    # every draw's terms differ by multiples of step, so the sums of one layer do too
    step = math.gcd(*(int(np.gcd.reduce((q - q[:, :1]).ravel())) for q in quanta.values())) or 1
    parts = tuple(quanta[id(values)] for values, _ in draws)
    shifts, lows, sizes = _dense_layers(parts, step, m, n, 1, 0, 1)
    if sum(sizes) > state_cap:
        raise StateCapError(sum(sizes), state_cap, steps=len(draws), layer_sizes=tuple(sizes))
    layer, reached = np.ones(1, dtype=bool), [1]  # per layer, the offsets some path reaches
    for shift, size in zip(shifts[:n], sizes[1:]):
        below, layer = layer, np.zeros(size, dtype=bool)
        for d in set(shift.tolist()):
            layer[d:d + len(below)] |= below
        reached.append(int(np.count_nonzero(layer)))
    states = tuple((math.prod(len(values) for values, _ in draws[max(t - m, 0):t])
                    * reached[max(t - m, 0)],) for t in range(n + m + 1))
    return DenseSum(tuple(laws for _, laws in draws), parts, tuple(shifts), tuple(lows),
                    tuple(sizes), m, step, states)


def row_sums(model: SequenceModel, clips: Sequence[float | None] = (None,), *,
             state_cap: int = DEFAULT_STATE_CAP) -> Graph | DenseSum:
    """The full sum of ``model`` once per clip level of ``clips``, as one handle to sweep.

    ``DenseSum`` when the one level is None and the sum is on the lattice
    (``_dense_sum``): no state graph is built, and its offsets are checked
    against ``state_cap`` before any work.  Otherwise the graph of
    ``compile_sum`` with one root per level.  ``sweep_columns`` and
    ``evaluate_columns`` take either, with the same values bit for bit.
    """
    clips = list(clips)
    if clips == [None]:
        dense = _dense_sum(model, state_cap)
        if dense is not None:
            return dense
    return compile_sum(model, masks=[None] * len(clips), x_clip=clips, state_cap=state_cap)


def _back(vals: np.ndarray, laws: tuple, rows: int,
          child: Callable[[int], np.ndarray]) -> np.ndarray:
    """One draw of the backward pass: every state's best law, per column of ``vals``.

    ``child(j)`` holds the ``rows`` states' values under support column j:
    a gather of a graph's children, or a slice of dense offsets.
    Each law's expectation starts at 0.0 and adds ``p * child(j)`` over the
    law's support in order, and replaces the best only when strictly
    greater.  Every column is maximized: a lower column holds the values
    of ``-phi`` (see ``sweep_columns``).
    """
    best = np.full((rows, vals.shape[1]), -math.inf)
    better = np.empty(best.shape, dtype=bool)
    term = np.empty(best.shape)
    for law in laws:
        (j, p), *rest = law
        acc = np.multiply(child(j), p)
        acc += 0.0  # 0.0 + p * value: -0.0 becomes 0.0
        for j, p in rest:
            acc += np.multiply(child(j), p, out=term)
        np.greater(acc, best, out=better)
        np.copyto(best, acc, where=better)
    return best


def sweep_columns(sums: Graph | DenseSum, upper: Sequence[tuple[Functional, int]],
                  lower: Sequence[tuple[Functional, int]],
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Backward pass: the upper value of every column of ``upper`` and the lower of ``lower``.

    A column ``(f, M)`` is ``f`` of the sum of coordinates 1..M.  On a
    graph it joins the sweep at layer M + lead, the top of the compile of
    ``model.prefix(M)`` (later draws complete only later coordinates), with
    ``phi`` called once per distinct argument there (no argument is -0.0),
    once for a functional asked on both sides.  The columns live in one
    ``(states, columns)`` array in the order they join, gathered one
    support column at a time, and each column takes the float operations
    of a per-state dict recursion on its prefix, so its values are those
    bit for bit.  A side no caller reads is simply not carried.

    Every column is maximized.  A lower column is the conjugate
    ``e[phi] = -E[-phi]``: its payoffs are negated as it joins, and its
    value is read back as ``0.0 - v``.  That is the direct minimum bit for
    bit.  IEEE rounding is symmetric, so ``p * -v`` is ``-(p * v)`` and a
    sum of negated terms is the negated sum; a strict ``>`` on negated
    values picks the law a strict ``<`` picks, ties included; and after
    ``0.0 + p * value`` no value is -0.0 on either side, so ``0.0 - v``
    turns a 0 back into +0.0, where ``-v`` would give -0.0.

    On a ``DenseSum`` a column starts at the last layer of ``S_M``'s own
    dense layers, is swept back through its last m draws, which add only
    their weights whose coordinates lie in 1..M (``_dense_layers`` from the
    full sum's layer M), and joins the one pass at layer M; a child's
    values are a slice at its support column's shift, where the graph
    gathers them, through the same per-law accumulation (``_back``).  A
    state of the window graph and the dense offset of its ``S_M`` so far
    reach children of equal values under every support column, so by
    induction from the last layer, where both take ``phi`` of the same
    exact float, every value is the same float.

    Each side holds one value per column and root, column by column, roots
    in order within a column: a graph of one mask, and a dense sum, give
    one value per column.  Either handle's ``laws`` drive the per-law
    accumulation.
    """
    dense = isinstance(sums, DenseSum)
    lead = 0 if dense else sums.lead
    n = len(sums.laws) - sums.lead
    columns = [*upper, *lower]
    if any(not 1 <= M <= n for _, M in columns):
        raise ValidationError(f"horizons must lie in 1..{n}")
    # the order the columns join in: by horizon, longest first, and stable,
    # so within a layer the upper columns come before the lower ones, as in vals
    order = sorted(range(len(columns)), key=lambda c: -columns[c][1])
    top = columns[order[0]][1] + lead if columns else 0
    rows = sums.sizes[top] if dense else len(sums.args[top])
    vals = np.empty((rows, 0))
    for t in range(top, 0, -1):
        joining = [c for c in order if columns[c][1] + lead == t]
        if joining:
            fs = {id(columns[c][0]): columns[c][0] for c in joining}
            col = {key: i for i, key in enumerate(fs)}
            ups = [col[id(columns[c][0])] for c in joining if c < len(upper)]
            los = [col[id(columns[c][0])] for c in joining if c >= len(upper)]
            if dense:
                shifts, lows, sizes = _dense_layers(sums.parts, sums.step, sums.lead, t, t + 1,
                                                    sums.lows[t], sums.sizes[t])
                args = (lows[-1] + sums.step * np.arange(sizes[-1])) / float(_QUANTUM)
            else:
                args = sums.args[t]
            distinct, at = np.unique(args, return_inverse=True)
            payoffs = np.array([[f.phi(x) for f in fs.values()] for x in distinct.tolist()],
                               dtype=float)[at]
            new = payoffs[:, ups + los]
            new[:, len(ups):] *= -1.0  # a lower column sweeps -phi
            if dense:  # down the last m draws of S_t to layer t
                for shift, rows, laws in reversed([*zip(shifts, sizes, sums.laws[t:])]):
                    new = _back(new, laws, rows, lambda j: new[shift[j]:shift[j] + rows])
            vals = np.hstack((vals, new))
        # each child function reads vals before _back returns its successor
        if dense:
            shift, rows = sums.shifts[t - 1], sums.sizes[t - 1]
            vals = _back(vals, sums.laws[t - 1], rows, lambda j: vals[shift[j]:shift[j] + rows])
        else:
            child = sums.children[t - 1]
            vals = _back(vals, sums.laws[t - 1], len(child),
                         lambda j: vals.take(child[:, j], axis=0))
    # vals has one row per root after the last step
    found = dict(zip(order, vals.T.tolist()))
    return (tuple(v for c in range(len(upper)) for v in found[c]),
            tuple(0.0 - v for c in range(len(upper), len(columns)) for v in found[c]))


def evaluate_columns(sums: Graph | DenseSum,
                     columns: Sequence[tuple[Functional, int]]) -> tuple[EvalResult, ...]:
    """Upper and lower value of every column ``(f, M)`` at every root, in one sweep.

    ``sweep_columns`` with every column on both sides, in its order; the
    state count of ``(f, M)`` at root r is that of the compile of
    ``model.prefix(M)`` with mask r: root r's ``states`` in layers 0..M +
    lead, built on a graph and counted on a dense sum.
    """
    ups, los = sweep_columns(sums, columns, columns)
    # states[t][r]: layers 0..t of root r, in Python ints, as no cap bounds counted states
    states = np.cumsum(sums.states, axis=0, dtype=object).tolist()
    counts = [n for _, M in columns for n in states[M + sums.lead]]
    return tuple(EvalResult(*found) for found in zip(ups, los, counts))


# ---------------------------------------------------------------------------
# Full-history recursion: window functionals and the policy-enumeration oracle
# ---------------------------------------------------------------------------


def _history_values(
    sets: Sequence[AmbiguitySet],
    payoff: Callable[[tuple[float, ...]], Sequence[float]],
    width: int,
) -> list[float]:
    """The upper value of every column of ``payoff`` by backward recursion over full histories.

    ``payoff`` gives ``width`` values per history, and every column takes
    the best law by ``max``; a caller reads a lower value as ``0.0 - v`` of
    a column of negated payoffs (see ``sweep_columns`` for why that is the
    direct minimum bit for bit).  Each column keeps its own running value
    per law, ``0.0`` plus ``p * V`` over the law's support in order
    (``p == 0.0`` skipped), and its own best, so it is the same floats as a
    recursion that carries that column alone.  A node evaluates each child
    once, however many laws reach it.  A history walks the support columns
    of ``_support_columns``, the table the layered DP expands, so the two
    passes see the same points, a 0.0 and a -0.0 of different laws as one.
    Raises ``GuardError`` before any work when the histories it would walk
    exceed ``PATH_CAP``.
    """
    steps = _support_columns(sets)
    paths = 1
    for values, _ in steps:
        paths *= len(values)
        if paths > PATH_CAP:
            raise GuardError(f"history recursion would exceed {PATH_CAP} paths")
    n_steps, start = len(steps), [-math.inf] * width

    def rec(t: int, hist: tuple[float, ...]) -> Sequence[float]:
        if t == n_steps:
            return payoff(hist)
        values, laws = steps[t]
        kids: list[Sequence[float] | None] = [None] * len(values)
        best = start
        for law in laws:
            acc = [0.0] * len(start)
            for j, p in law:
                kid = kids[j]
                if kid is None:
                    kid = kids[j] = rec(t + 1, hist + (values[j],))
                acc = [a + p * v for a, v in zip(acc, kid)]
            best = [max(b, a) for b, a in zip(best, acc)]
        return best

    return list(rec(0, ()))


Payoff = Callable[[tuple[float, ...]], float]


def window_columns(
    model: SequenceModel,
    indices: Sequence[int],
    upper: Sequence[Payoff],
    lower: Sequence[Payoff],
    *,
    x_clip: float | None = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Upper ``E[psi(X_{i1}, ..., X_{ij})]`` for every ``psi`` of ``upper``, lower for ``lower``.

    Evaluated by one recursion over the full history of the involved
    draws ``{k + j : k in indices, 0 <= j <= m}`` (every other draw
    integrates out, see ``_history_values``), carrying every column; a
    payoff on both sides is called once per history, on the coordinates
    ``_coordinate`` forms from it, as it forms the layered DP's terms.  A
    lower column carries ``-psi`` and reads ``0.0 - v``, the conjugate rule
    of ``sweep_columns``, which is the direct minimum bit for bit.  Each
    value is, bit for bit, that of a recursion carrying its column alone.
    Intended for small index windows: marginals, cross moments,
    stationarity and independence checks.
    """
    idx = tuple(indices)
    if not idx or any(not 1 <= k <= model.n for k in idx):
        raise ValidationError("window indices must lie in 1..n")
    # each distinct payoff is called once per history, then copied to its columns
    distinct = {id(psi): psi for psi in [*upper, *lower]}
    position = {key: i for i, key in enumerate(distinct)}
    psis = tuple(distinct.values())
    ups = [position[id(psi)] for psi in upper]
    los = [position[id(psi)] for psi in lower]
    width = len(model.weights)
    involved = sorted({k + j for k in idx for j in range(width)})
    sets = [model.sets[t - 1] for t in involved]
    # coordinate k's draws k..k+m are consecutive in a history of the involved draws
    starts = [involved.index(k) for k in idx]

    def payoff(hist: tuple[float, ...]) -> list[float]:
        xs = tuple(_coordinate(model, hist[i:i + width], x_clip) for i in starts)
        values = [psi(xs) for psi in psis]
        return [values[i] for i in ups] + [-values[i] for i in los]

    found = _history_values(sets, payoff, len(ups) + len(los))
    return tuple(found[:len(ups)]), tuple(0.0 - v for v in found[len(ups):])


def one_law(model: SequenceModel) -> bool:
    """Every draw has the same set: a window's value then does not depend on its shift."""
    return all(s == model.sets[0] for s in model.sets)


def marginal_columns(
    model: SequenceModel,
    upper: Sequence[Callable[[float], float]],
    lower: Sequence[Callable[[float], float]],
    *,
    x_clip: float | None = None,
) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
    """Upper ``E[phi(X_k)]`` for every ``phi`` of ``upper``, lower for ``lower``, k = 1..n.

    Each side holds one tuple of n values per column.  Under ``one_law``
    one ``window_columns`` call at index 1 gives every value; other models
    take one call per k.  Each value is, bit for bit, what ``window_columns``
    gives for that index and column alone.
    """
    cols = {id(phi): (lambda xs, _phi=phi: _phi(xs[0])) for phi in [*upper, *lower]}
    ks = (1,) if one_law(model) else range(1, model.n + 1)
    found = [window_columns(model, (k,), [cols[id(phi)] for phi in upper],
                            [cols[id(phi)] for phi in lower], x_clip=x_clip) for k in ks]
    reps = model.n // len(found)  # n under one_law, else 1

    def side(s: int, count: int) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(v for got in found for v in (got[s][c],) * reps)
                     for c in range(count))

    return side(0, len(upper)), side(1, len(lower))


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0 (builtin ``sum`` compensates from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _identity(x: float) -> float:
    return x


def spread_columns(
    model: SequenceModel,
    upper: Sequence[Callable[[float], float]],
    *,
    x_clip: float | None = None,
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """Upper ``E[phi(X_k)]`` for every ``phi`` of ``upper``, and ``|E[X_k]| + |e[X_k]|``, k = 1..n.

    One ``marginal_columns`` call: ``E[X_k]`` is one more upper column and
    ``e[X_k]`` the one lower column, both of one identity payoff.
    """
    (*columns, means), (lows,) = marginal_columns(
        model, [*upper, _identity], [_identity], x_clip=x_clip)
    return tuple(columns), tuple(abs(up) + abs(lo) for up, lo in zip(means, lows))


def oracle_policy_enum(model: SequenceModel, f: Functional) -> EvalResult:
    """Brute-force supremum over history-dependent law choices.

    Recurses over full histories of the primitive draws; at every history
    node the value is maximized over the member laws, which enumerates all
    adaptive policies.  The lower value is the conjugate ``0.0 - v`` of a
    second column of the same recursion that carries ``-phi``: the direct
    minimum bit for bit (see ``sweep_columns``).  Payoffs are recomputed
    from the raw history, independently of the layered DP: ``S_n`` is one
    ``math.fsum`` of every product ``w_j * eps_{k+j}``, so it is exactly
    rounded.
    """
    if model.n > ORACLE_MAX_N:
        raise GuardError(f"oracle guard: n={model.n} exceeds {ORACLE_MAX_N}")
    for s in model.sets:
        if len(s.laws) > 3:
            raise GuardError("oracle guard: more than 3 laws at one index")
        if any(len(law.values) > 4 for law in s.laws):
            raise GuardError("oracle guard: law support larger than 4 points")
    weights, ks = model.weights, range(model.n)

    def payoff(hist: tuple[float, ...]) -> list[float]:
        total = math.fsum(w * hist[k + j] for k in ks for j, w in enumerate(weights))
        value = f.phi(model.scale * total)
        return [value, -value]

    upper, negated_lower = _history_values(model.sets, payoff, 2)
    return EvalResult(upper, 0.0 - negated_lower, 0)
