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
it, ``f`` of the sum of coordinates 1..M, taking upper columns and lower
columns as separate lists, so a caller that reads one side does not carry
the other.  ``evaluate_columns`` passes each column to both sides.  The
accumulation order is fixed: each law's expectation starts at 0.0 and
adds ``p * value`` over the law's support in increasing order, and the
best law replaces the running best only when strictly better.  That is
the order of a per-state scalar recursion, so the vectorized values are
the same floats bit for bit.  A caller compiles a sum once and asks for
all its functionals and horizons in one sweep.  The graph is a local of
the caller's frame, one row (one horizon n) at a time, and there is no
process-wide cache.

Sums of several index sets (masks) of one model share one graph: layer 0
holds one root per mask, every state carries the component id of its root,
a component adds a draw's term (at its own clip level) only when its mask
holds the coordinate the draw completes, and states merge only within a
component.  The states reachable from root r are the graph of mask r
alone, so one sweep reads every root; ``eval_sums`` compiles and sweeps
the masks of one functional and returns one ``EvalResult`` per mask.

Functionals of a few coordinates are evaluated by recursion over the full
history of the draws they involve.  ``window_columns`` carries many payoff
columns through one such recursion, upper and lower columns as separate
lists, as ``sweep_columns`` takes them; each column keeps its own running
value per law and its own best, so it is the same floats as a recursion
that carries it alone.  ``marginal_columns`` gives ``E[phi(X_k)]`` for every
k and every column; it evaluates one index when all coordinates share one
sub-linear law, and one per k otherwise.  ``spread_columns`` adds the
``E[X_k]`` and ``e[X_k]`` columns to a caller's own and returns
``|E[X_k]| + |e[X_k]|`` per k.  ``ordered_sum`` adds per-index values left
to right, the same way on every Python version.

``oracle_policy_enum`` evaluates the same supremum by direct recursion over
full histories, with no state merging and payoffs recomputed from scratch,
the upper and the lower value as two columns of one recursion; it is the
independent cross-check for the layered DP.
"""

from __future__ import annotations

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
    ``(1.0,)``: ``X_k = scale * eps_k``.
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
    """Upper and lower expectation of one functional, and the DP states behind them."""

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


def _term(model: SequenceModel, window: tuple[float, ...], v: float,
          x_clip: float | None) -> float:
    x = model.scale * math.fsum(w * e for w, e in zip(model.weights, window + (v,)))
    if x_clip is not None:
        x = min(max(x, -x_clip), x_clip)
    return x


@frozen
class _Step:
    """One primitive draw of a compiled graph.

    ``child[i, j]`` is the index, in the next layer, of the state reached from
    state ``i`` when the draw takes the ``j``-th distinct support value.
    ``laws`` holds, per law, its ``(column, p)`` pairs with ``p != 0`` in
    support order: the order the backward pass accumulates them in.
    """

    child: np.ndarray
    laws: tuple[tuple[tuple[int, float], ...], ...]


@frozen
class Graph:
    """The reachable-state graph of one ``(model, masks, x_clip, track_max)``.

    Layer 0 holds one root per mask, and the states reachable from root r
    form the graph of mask r alone, at root r's clip level.
    """

    steps: tuple[_Step, ...]
    #: per layer, the payoff argument of every state: acc, or maxabs when tracked
    args: tuple[np.ndarray, ...]
    #: draws before coordinate 1 completes: m
    lead: int
    #: ``sizes[t, r]``: the states of layer t reachable from root r; None for
    #: one root, whose layer sizes are those of ``args``
    sizes: np.ndarray | None = None

    @property
    def roots(self) -> int:
        """The states of layer 0: one root per mask."""
        return len(self.args[0])


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
    return np.array([[_term(model, w, v, x_clip) for v in values] for w in windows],
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


def _draws(model: SequenceModel, masks: Sequence[frozenset[int] | None],
           clips: Sequence[float | None]) -> list[tuple[int, tuple, tuple]]:
    """Per draw: its number V of support columns, its laws, and the term tables it adds.

    The support columns are the distinct values with positive probability in
    some law, in increasing order; a law is its ``(column, p)`` pairs with
    ``p != 0`` in support order.  Both are built once per distinct ambiguity
    set.  A draw adds in root r when it completes a coordinate of mask r
    (every coordinate, for ``None``), and root r adds the term table of its
    own clip level ``clips[r]``, built once per distinct level and supports
    of the window's draws and its own.
    The last entry holds one ``(table, roots)`` pair per distinct table a
    root adds, in root order, with ``roots`` a bool per root; it is empty
    when the draw adds in no root.
    """
    prepared: dict[AmbiguitySet, tuple[tuple[float, ...], tuple]] = {}
    tables: dict[tuple[tuple, float | None], np.ndarray] = {}
    groups: dict[tuple[tuple, tuple[bool, ...]], tuple] = {}
    draws, supports = [], []
    for step, set_ in enumerate(model.sets, start=1):
        got = prepared.get(set_)
        if got is None:
            values = tuple(sorted({v for law in set_.laws
                                   for v, p in zip(law.values, law.probs) if p != 0.0}))
            column = {v: j for j, v in enumerate(values)}
            got = prepared[set_] = values, tuple(
                tuple((column[v], p) for v, p in zip(law.values, law.probs) if p != 0.0)
                for law in set_.laws
            )
        values, laws = got
        supports.append(values)
        # the supports of the window's draws, then this draw's
        key = tuple(supports[max(step - 1 - model.m, 0):])
        k = _completes(model, step)
        adds = tuple(k is not None and (mask is None or k in mask) for mask in masks)
        found = groups.get((key, adds))
        if found is None:
            levels = dict.fromkeys(clip for clip, add in zip(clips, adds) if add)
            for clip in levels:
                if (key, clip) not in tables:
                    tables[key, clip] = _term_table(model, key, clip)
            found = groups[key, adds] = tuple(
                (tables[key, clip], np.array([a and c == clip for c, a in zip(clips, adds)]))
                for clip in levels)
        draws.append((len(values), laws, found))
    return draws


def _on_lattice(tables: Iterable[np.ndarray]) -> bool:
    """Whether sums of one entry of each table stay exact floats on the 2⁻¹² lattice.

    A table may repeat (one entry per draw and distinct table it adds); each
    distinct one is inspected once.  True when every entry is a finite
    multiple of 2⁻¹² and the maxima of |entry| over the tables add up to
    less than 2⁴¹.  Every partial sum is then a multiple of 2⁻¹² below 2⁴¹
    in magnitude: fewer than 2⁵³ quanta, so each float add of such values
    is exact.
    """
    quanta, largest = 0, {}
    for table in tables:
        top = largest.get(id(table))
        if top is None:
            units = table * _QUANTUM
            if not (np.isfinite(units).all() and (np.rint(units) == units).all()):
                return False
            top = largest[id(table)] = int(np.abs(units).max())
        quanta += top
    return quanta < _LATTICE_LIMIT * _QUANTUM


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
    with positive probability in some law, all at once: the child's sum is
    ``acc + term[window, j]`` (one IEEE add, as in scalar code), rounded by
    ``_canon_array`` onto the 1e-12 merge grid, and its running max is
    ``where(b > mx, b, mx)`` with ``b = |sum|``.  ``_term`` runs once per
    distinct (window, value) pair.  Children with equal (window, acc,
    maxabs) merge (``_merge``), numbered in order of first occurrence in
    row-major (state, column) order: the order a per-state dict loop inserts
    them, so the graph is the one that loop builds, array for array
    (``tests/test_engine_differential.py`` keeps the loop as its reference).

    When every term is a multiple of 2⁻¹² and the terms' largest magnitudes
    add up to less than 2⁴¹ (``_on_lattice``), every reachable sum is an
    exact float on that lattice, and ``round(x, 12)`` returns it unchanged:
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
    adds a draw's term only when mask r holds the coordinate that draw
    completes, the term of its own clip level (each level has its own term
    table), and the merge key includes the component id, so components
    never merge.  The layers stay component-major (component r's states
    before r + 1's), and within a component the order of first occurrence is
    the one its mask's own compile sees, so the states reachable from root r
    are that compile's graph, array for array, and one sweep reads every
    root.  One mask adds no component column.  A draw that adds in no root
    merges too: at m = 0 each state's children are that state again.  The
    lattice test covers every table a draw adds in any root, so one
    off-lattice level puts the whole graph on the float grid (which builds
    the same graph), and ``state_cap`` bounds the states of all components
    together.  A state of a mask's compile in
    which a draw does not add still takes ``0.0 + p * value`` per support
    column in the sweep, so masks of equal length at different positions
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
    radices = [V for V, _, _ in draws]
    lattice = _on_lattice(table for _, _, groups in draws for table, _ in groups)
    if lattice:
        counts = {id(table): (table * _QUANTUM).astype(np.int64)
                  for _, _, groups in draws for table, _ in groups}
        # every count is a multiple of unit, so sums count in units of it
        unit = math.gcd(*(int(np.gcd.reduce(c.ravel())) for c in counts.values())) or 1
        for c in counts.values():
            c //= unit
        draws = [(V, laws, tuple((counts[id(table)], roots) for table, roots in groups))
                 for V, laws, groups in draws]
    ids = _offset_ids if lattice else _dense_ids
    win = np.zeros(R, dtype=np.int64)  # read only when the window slides
    acc = mx = np.zeros(R, dtype=np.int64 if lattice else float)
    comp = np.arange(R)  # comp and sizes are read only when there are several roots
    args = [np.zeros(R)]
    sizes = [np.ones(R, dtype=np.int64)]
    total = R
    steps: list[_Step] = []
    for step, (V, laws, groups) in enumerate(draws, start=1):
        n = len(acc)
        if len(groups) == 1 and groups[0][1].all():
            # every state adds the same table
            table = groups[0][0]
            a = acc[:, None] + (table[win] if slides else table[0])
            a = (a if lattice else _canon_array(a)).ravel()
            if track_max:
                b, x = np.abs(a), np.repeat(mx, V)
                x = np.where(b > x, b, x)
        else:
            # the children of the rows of each table's roots take its sum, the others copy
            a = np.repeat(acc, V).reshape(n, V)
            if track_max:
                x = np.repeat(mx, V).reshape(n, V)
            for table, roots in groups:
                rows = roots[comp]
                part = acc[rows, None] + (table[win[rows]] if slides else table[0])
                a[rows] = part if lattice else _canon_array(part)
                if track_max:
                    b = np.abs(a[rows])
                    x[rows] = np.where(b > x[rows], b, x[rows])
            a = a.ravel()
            if track_max:
                x = x.ravel()
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
        steps.append(_Step(child.reshape(n, V), laws))
        if slides:
            win = w[first]
        acc = a[first]
        if track_max:
            mx = x[first]
        args.append(mx if track_max else acc)
        if R > 1:
            sizes.append(np.bincount(comp, minlength=R))
    if lattice:
        # after the last layer and one layer at a time, so at most one
        # layer's counts and floats are alive at once
        for t, arg in enumerate(args):
            args[t] = arg * unit / float(_QUANTUM)
    return Graph(tuple(steps), tuple(args), m,
                 np.array(sizes) if R > 1 else None)


def sweep_columns(graph: Graph, upper: Sequence[tuple[Functional, int]],
                  lower: Sequence[tuple[Functional, int]],
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Backward pass: the upper value of every column of ``upper`` and the lower of ``lower``.

    A column ``(f, M)`` is ``f`` of the sum of coordinates 1..M.  It joins
    the sweep at layer M + lead, the top of the compile of
    ``model.prefix(M)`` (later draws complete only later coordinates), with
    ``phi`` called once per distinct argument there (no argument is -0.0),
    once for a functional asked on both sides.  The upper columns, then the
    lower, live in one ``(states, columns)`` array, gathered one support
    column at a time, and each column takes the float operations of a
    per-state dict recursion on its prefix, so its values are those bit for
    bit.  A side no caller reads is simply not carried.

    Each side holds one value per column and root, column by column, roots
    in order within a column: a graph of one mask gives one value per
    column.
    """
    n, lead = len(graph.steps) - graph.lead, graph.lead
    sides = (upper, lower)
    if any(not 1 <= M <= n for side in sides for _, M in side):
        raise ValidationError(f"horizons must lie in 1..{n}")
    orders = [sorted(range(len(side)), key=lambda c, _s=side: -_s[c][1]) for side in sides]
    top = max((side[order[0]][1] + lead for side, order in zip(sides, orders) if side),
              default=0)
    vals, K = np.empty((len(graph.args[top]), 0)), 0  # K upper columns come first
    for t in range(top, 0, -1):
        joining = [[side[c][0] for c in order if side[c][1] + lead == t]
                   for side, order in zip(sides, orders)]
        if joining[0] or joining[1]:
            fs = {id(f): f for f in joining[0] + joining[1]}
            col = {key: i for i, key in enumerate(fs)}
            distinct, at = np.unique(graph.args[t], return_inverse=True)
            payoffs = np.array([[f.phi(x) for f in fs.values()] for x in distinct.tolist()],
                             dtype=float)[at]
            new_up, new_lo = (payoffs[:, [col[id(f)] for f in side]] for side in joining)
            vals, K = np.hstack((vals[:, :K], new_up, vals[:, K:], new_lo)), K + len(joining[0])
        st = graph.steps[t - 1]
        best = np.full((len(st.child), vals.shape[1]), math.inf)
        best[:, :K] = -math.inf
        better = np.empty(best.shape, dtype=bool)
        for law in st.laws:
            acc = 0.0
            for j, p in law:
                acc = acc + p * vals.take(st.child[:, j], axis=0)
            np.greater(acc[:, :K], best[:, :K], out=better[:, :K])
            np.less(acc[:, K:], best[:, K:], out=better[:, K:])
            np.copyto(best, acc, where=better)
        vals = best
    per_column = vals.T.tolist()  # vals has one row per root after the last step
    ups, los = dict(zip(orders[0], per_column[:K])), dict(zip(orders[1], per_column[K:]))
    return (tuple(v for c in range(len(upper)) for v in ups[c]),
            tuple(v for c in range(len(lower)) for v in los[c]))


def evaluate_columns(graph: Graph,
                     columns: Sequence[tuple[Functional, int]]) -> tuple[EvalResult, ...]:
    """Upper and lower value of every column ``(f, M)`` at every root, in one sweep.

    ``sweep_columns`` with every column on both sides, in its order; the
    state count of ``(f, M)`` at root r is that of the compile of
    ``model.prefix(M)`` with mask r.
    """
    ups, los = sweep_columns(graph, columns, columns)
    sizes = [[len(a)] for a in graph.args] if graph.sizes is None else graph.sizes
    states = np.cumsum(sizes, axis=0).tolist()  # states[t][r]: layers 0..t of root r
    counts = [n for _, M in columns for n in states[M + graph.lead]]
    return tuple(EvalResult(*found) for found in zip(ups, los, counts))


def eval_sums(
    model: SequenceModel,
    f: Functional,
    masks: Sequence[Iterable[int] | None],
    *,
    x_clip: float | None | Sequence[float | None] = None,
    track_max: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[EvalResult, ...]:
    """Upper and lower expectation of ``f`` of the sum over each of ``masks``.

    One compile and one sweep: every mask (``None`` for all coordinates) is
    a root of one graph (``compile_sum``, whose options these are), at its
    own clip level when ``x_clip`` gives one per mask.  Each result is, bit
    for bit and in ``state_count``, that of the one-mask graph of its mask
    and level; ``state_cap`` bounds the states of all masks together.  A
    caller that evaluates several functionals or horizons of one sum
    compiles the graph once and sweeps it once with ``evaluate_columns``.
    """
    if not masks:
        return ()
    graph = compile_sum(model, masks=masks, x_clip=x_clip, track_max=track_max,
                        state_cap=state_cap)
    return evaluate_columns(graph, [(f, model.n)])


# ---------------------------------------------------------------------------
# Full-history recursion: window functionals and the policy-enumeration oracle
# ---------------------------------------------------------------------------


def _history_values(
    sets: Sequence[AmbiguitySet],
    payoff: Callable[[tuple[float, ...]], Sequence[float]],
    upper: int,
    lower: int,
) -> list[float]:
    """Every column of ``payoff`` by backward recursion over full histories.

    ``payoff`` gives ``upper + lower`` values per history; the first
    ``upper`` columns take the best law by ``max``, the others by ``min``.
    Each column keeps its own running value per law, ``0.0`` plus ``p * V``
    over the law's support in order (``p == 0.0`` skipped), and its own
    best, so it is the same floats as a recursion that carries that column
    alone.  A node evaluates each child once, however many laws reach it.
    """
    plans = {}
    for s in sets:
        if id(s) not in plans:
            # one slot per distinct support point; -0.0 and 0.0 stay apart
            slots: dict[tuple[float, float], int] = {}
            laws = tuple(
                tuple((slots.setdefault((v, math.copysign(1.0, v)), len(slots)), p)
                      for v, p in zip(law.values, law.probs) if p != 0.0)
                for law in s.laws)
            plans[id(s)] = tuple(v for v, _ in slots), laws
    steps = [plans[id(s)] for s in sets]
    n_steps, start = len(steps), [-math.inf] * upper + [math.inf] * lower

    def rec(t: int, hist: tuple[float, ...]) -> Sequence[float]:
        if t == n_steps:
            return payoff(hist)
        values, laws = steps[t]
        kids: list[Sequence[float] | None] = [None] * len(values)
        best = start
        for law in laws:
            acc = [0.0] * len(start)
            for slot, p in law:
                kid = kids[slot]
                if kid is None:
                    kid = kids[slot] = rec(t + 1, hist + (values[slot],))
                acc = [a + p * v for a, v in zip(acc, kid)]
            best = ([max(b, a) for b, a in zip(best[:upper], acc)]
                    + [min(b, a) for b, a in zip(best[upper:], acc[upper:])])
        return best

    return list(rec(0, ()))


def _guard_paths(sets: Sequence[AmbiguitySet]) -> None:
    paths = 1
    for s in sets:
        paths *= len(s.support)
        if paths > PATH_CAP:
            raise GuardError(f"history recursion would exceed {PATH_CAP} paths")


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
    integrates out), carrying every column; a payoff on both sides is
    called once per history.  Each value is, bit for bit, that of a
    recursion carrying its column alone.
    Intended for small index windows: marginals, cross moments,
    stationarity and independence checks.
    """
    idx = tuple(indices)
    if not idx or any(not 1 <= k <= model.n for k in idx):
        raise ValidationError("window indices must lie in 1..n")
    # each distinct payoff is called once per history, then copied to its columns
    columns = [*upper, *lower]
    distinct = {id(psi): psi for psi in columns}
    position = {key: i for i, key in enumerate(distinct)}
    psis, at = tuple(distinct.values()), [position[id(psi)] for psi in columns]
    weights, scale = model.weights, model.scale
    involved = sorted({k + j for k in idx for j in range(len(weights))})
    sets = [model.sets[t - 1] for t in involved]

    def payoff(hist: tuple[float, ...]) -> list[float]:
        draw = dict(zip(involved, hist))
        xs = tuple(scale * math.fsum(w * draw[k + j] for j, w in enumerate(weights))
                   for k in idx)
        if x_clip is not None:
            xs = tuple(min(max(x, -x_clip), x_clip) for x in xs)
        values = [psi(xs) for psi in psis]
        return [values[i] for i in at]

    _guard_paths(sets)
    found = _history_values(sets, payoff, len(upper), len(lower))
    return tuple(found[:len(upper)]), tuple(found[len(upper):])


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


def oracle_policy_enum(
    model: SequenceModel,
    f: Functional,
    *,
    max_n: int = 6,
) -> EvalResult:
    """Brute-force supremum over history-dependent law choices.

    Recurses over full histories of the primitive draws; at every history
    node the value is maximized (and, in a second column of the same
    recursion, minimized for the lower bound) over the member laws, which
    enumerates all adaptive policies.  Payoffs are recomputed from the raw
    history, independently of the layered DP: ``S_n`` is one ``math.fsum``
    of every product ``w_j * eps_{k+j}``, so it is exactly rounded.
    """
    if model.n > max_n:
        raise GuardError(f"oracle guard: n={model.n} exceeds {max_n}")
    for s in model.sets:
        if len(s.laws) > 3:
            raise GuardError("oracle guard: more than 3 laws at one index")
        if any(len(law.values) > 4 for law in s.laws):
            raise GuardError("oracle guard: law support larger than 4 points")
    _guard_paths(model.sets)
    weights, ks = model.weights, range(model.n)

    def payoff(hist: tuple[float, ...]) -> list[float]:
        total = math.fsum(w * hist[k + j] for k in ks for j, w in enumerate(weights))
        value = f.phi(model.scale * total)
        return [value, value]

    upper, lower = _history_values(model.sets, payoff, 1, 1)
    return EvalResult(upper, lower, 0)
