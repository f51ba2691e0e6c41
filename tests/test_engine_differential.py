"""Differential test: the compiled sum against the original dict DP, exactly.

``reference_compile_sum`` is the per-state forward loop ``compile_sum`` ran
before layers became arrays; ``compile_sum`` must build the same graph as
it, array for array, and ``_canon_array`` must round every float the way
the scalar ``round(x, 12) + 0.0`` does, bit for bit.  That holds on both
compile paths: integer keys on the 2⁻¹² lattice and the float merge grid
off it.

``reference_eval_sum`` is the layered dynamic program the engine used
before the compiled graph: a forward pass that lists the reachable states of
every layer and a backward pass over dicts that recomputes every transition.
The compiled engine must give the same floats bit for bit, and the same
state count, on generated small models.  Where the policy-enumeration oracle
applies, the engine must also agree with it to 1e-12, plus what the 1e-12
merge grid can move when the scaled supports sit off it.  The four axioms of
a sub-linear expectation are checked on sums as well.

The shortcuts callers take are held to the same exactness: one backward
sweep over a compiled graph evaluates many columns ``(functional,
horizon M)``, in any order, and each column gives, bit for bit, what a
compile of ``model.prefix(M)`` and the dict DP on that prefix give, and a
sweep of the upper (or lower) columns alone gives the same floats as the
sweep of both sides;
``marginal_columns`` and ``spread_columns`` give what the per-index
``eval_index`` loop gives, on iid, moving-window and unequal-set models
(windows whose draws take different sets among them), and
the summation helpers add those values left to right from 0.0.
``window_columns`` and ``marginal_columns``, one history recursion carrying
many payoff columns, give for every column what the one-column recursion
``reference_eval_window`` gives (which laws reach a node does not change its
children's values), and ``oracle_policy_enum`` takes its upper and lower
value from one recursion that equals two one-column ones.
``rosenthal_checks``, which reads every horizon off one graph and one set of
marginals, gives what a per-case compile of ``model.prefix(n)`` gives, also
for a family whose model shares the graph under its own laws.
``with_laws`` puts another model's laws on a compiled graph: for models of
equal support columns, weights and scale (m = 0, 1 and 2, with and without
the running max, on and off the lattice), the result is that model's own
compile, array for array, and sweeps to the same floats by ``float.hex``;
any other model (a -0.0 support point against 0.0, a value positive in one
model only, other weights, scale or length) is refused.
A graph of several masks (``compile_sum(masks=...)``), with a root each,
gives for every mask what a one-mask compile and the dict DP give for that
mask alone, bit for bit and in state count.  With one clip level per root
(mixed with masks), the states reachable from each root are, array for
array, that root's own compile, on the lattice path, on the float path, and
when one off-lattice level moves the whole graph onto the float path, and
every prefix column of every root is that root's prefix compile.
``row_sums`` sweeps an unclipped full sum on the lattice as dense layers,
and those give, by ``float.hex``, what the compiled graph's sweep gives:
upper and lower columns of the catalog at the full horizon and at
prefixes, on generated iid and window models with per-draw sets and zero
and negative weights, on a support with parity gaps, whose ranges count in
steps of 2, and on one whose ranges hold an unreachable offset.  The dense
layers count the graph's states without building them: layer for layer
they are the lengths of the compiled graph's layers, and every column's
state count is the graph's, also on gapped supports, whose dense ranges
hold more offsets than the graph has states.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sublexp as sl
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.mdep as mdep
from sublexp.engine import SequenceModel
from sublexp.errors import StateCapError, ValidationError
from sublexp.experiments import BUILDERS

from conftest import random_model

# ---------------------------------------------------------------------------
# Reference: the original dict DP
# ---------------------------------------------------------------------------

_KEY_DECIMALS = 12


def _canon(x: float) -> float:
    """Round onto the 1e-12 merge grid and normalize -0.0."""
    return round(x, _KEY_DECIMALS) + 0.0


def _completes(model: SequenceModel, step: int) -> int | None:
    k = step - model.m
    return k if k >= 1 else None


def _term(model: SequenceModel, window: tuple[float, ...], v: float,
          x_clip: float | None) -> float:
    vals = window + (v,)
    raw = math.fsum(w * e for w, e in zip(model.weights, vals))
    x = model.scale * raw
    if x_clip is not None:
        x = min(max(x, -x_clip), x_clip)
    return x


def _transition(
    model: SequenceModel,
    state: tuple[float, ...],
    step: int,
    v: float,
    mask: frozenset[int] | None,
    x_clip: float | None,
    track_max: bool,
) -> tuple[float, ...]:
    m = model.m
    if track_max:
        window, acc, mx = state[:-2], state[-2], state[-1]
    else:
        window, acc, mx = state[:-1], state[-1], 0.0
    k = _completes(model, step)
    if k is not None and (mask is None or k in mask):
        acc = _canon(acc + _term(model, window, v, x_clip))
        if track_max:
            mx = max(mx, abs(acc))
    if m > 0:
        window = (window + (v,))[-m:]
    else:
        window = ()
    return window + ((acc, mx) if track_max else (acc,))


def _forward_layers(
    model: SequenceModel,
    mask: frozenset[int] | None,
    x_clip: float | None,
    track_max: bool,
    state_cap: int,
) -> list[list[tuple[float, ...]]]:
    init = (0.0, 0.0) if track_max else (0.0,)
    layers: list[list[tuple[float, ...]]] = [[init]]
    total = 1
    for step in range(1, len(model.sets) + 1):
        set_ = model.sets[step - 1]
        nxt: dict[tuple[float, ...], None] = {}
        for state in layers[-1]:
            for law in set_.laws:
                for v, p in zip(law.values, law.probs):
                    if p == 0.0:
                        continue
                    nxt[_transition(model, state, step, v, mask, x_clip, track_max)] = None
        total += len(nxt)
        if total > state_cap:
            raise StateCapError(total, state_cap)
        layers.append(list(nxt))
    return layers


def _backward_values(
    model: SequenceModel,
    layers: list[list[tuple[float, ...]]],
    payoff: Callable[[tuple[float, ...]], float],
    mask: frozenset[int] | None,
    x_clip: float | None,
    track_max: bool,
) -> tuple[float, float]:
    values: dict[tuple[float, ...], tuple[float, float]] = {
        s: (payoff(s), payoff(s)) for s in layers[-1]
    }
    for step in range(len(model.sets), 0, -1):
        set_ = model.sets[step - 1]
        prev: dict[tuple[float, ...], tuple[float, float]] = {}
        for state in layers[step - 1]:
            up_best = -math.inf
            lo_best = math.inf
            for law in set_.laws:
                up_acc = 0.0
                lo_acc = 0.0
                for v, p in zip(law.values, law.probs):
                    if p == 0.0:
                        continue
                    nxt = _transition(model, state, step, v, mask, x_clip, track_max)
                    u, l = values[nxt]
                    up_acc += p * u
                    lo_acc += p * l
                up_best = max(up_best, up_acc)
                lo_best = min(lo_best, lo_acc)
            prev[state] = (up_best, lo_best)
        values = prev
    return values[layers[0][0]]


def reference_eval_sum(
    model: SequenceModel,
    f: eng.Functional,
    *,
    masks=(None,),
    x_clip: float | None = None,
    track_max: bool = False,
    state_cap: int = eng.DEFAULT_STATE_CAP,
) -> eng.EvalResult:
    """The full-sum value of the one mask of ``masks``, as ``compile_sum`` takes it."""
    (indices,) = masks
    mask = None if indices is None else frozenset(indices)
    layers = _forward_layers(model, mask, x_clip, track_max, state_cap)

    def payoff(state: tuple[float, ...]) -> float:
        return f.phi(state[-1])

    upper, lower = _backward_values(model, layers, payoff, mask, x_clip, track_max)
    return eng.EvalResult(upper, lower, sum(len(layer) for layer in layers))


def reference_compile_sum(
    model: SequenceModel,
    *,
    masks=(None,),
    x_clip: float | None = None,
    track_max: bool = False,
    state_cap: int = eng.DEFAULT_STATE_CAP,
) -> eng.Graph:
    """The per-state forward loop of the one mask of ``masks``: a dict per layer, keyed by state tuples."""
    (indices,) = masks
    mask = None if indices is None else frozenset(indices)
    if mask is not None and any(not 1 <= k <= model.n for k in mask):
        raise ValidationError("indices outside 1..n")
    if x_clip is not None and not x_clip > 0.0:
        raise ValidationError("x_clip must be > 0")
    m = model.m
    slides = m > 0
    # a state is window + (acc,), or window + (acc, maxabs) under track_max
    split = -2 if track_max else -1
    terms: dict[tuple[tuple[float, ...], float], float] = {}
    layer: list[tuple[float, ...]] = [(0.0, 0.0) if track_max else (0.0,)]
    args = [np.zeros(1)]
    total = 1
    children: list[np.ndarray] = []
    all_laws = []
    for step in range(1, len(model.sets) + 1):
        set_ = model.sets[step - 1]
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
            raise StateCapError(total, state_cap, step=step, steps=len(model.sets),
                                layer_sizes=(*map(len, args), len(nxt)))
        children.append(np.array(child, dtype=np.int32).reshape(len(layer), len(values)))
        all_laws.append(laws)
        layer = list(nxt)
        args.append(np.array([state[-1] for state in layer], dtype=float))
    return eng.Graph(tuple(children), tuple(all_laws), tuple(args), len(model.sets) - model.n,
                     tuple((len(arg),) for arg in args))


# ---------------------------------------------------------------------------
# Generated models
# ---------------------------------------------------------------------------

#: Supports on the half-integer lattice, and off any lattice.
LATTICE_POOL = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
OFF_LATTICE_POOL = (-1.7, -math.sqrt(2.0), -0.3, 0.0, 1.0 / 3.0, 0.9, math.pi / 2.0)


@st.composite
def laws(draw, pool: tuple[float, ...]) -> sl.DiscreteLaw:
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    # zero weights keep zero-probability points in the support
    weights = draw(st.lists(st.integers(0, 4), min_size=len(values), max_size=len(values)))
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return sl.DiscreteLaw(tuple(sorted(values)), tuple(w / total for w in weights))


@st.composite
def ambiguity_sets(draw, pool: tuple[float, ...]) -> sl.AmbiguitySet:
    return sl.ambiguity(draw(st.lists(laws(pool), min_size=1, max_size=3)))


@st.composite
def models(draw) -> SequenceModel:
    pool = draw(st.sampled_from((LATTICE_POOL, OFF_LATTICE_POOL)))
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from((1.0, 0.5, 1.0 / math.sqrt(n))))
    if draw(st.booleans()):
        sets = draw(st.lists(ambiguity_sets(pool), min_size=n, max_size=n))
        return SequenceModel(sets, scale=scale)
    m = draw(st.integers(0, 2))
    weights = draw(st.lists(st.sampled_from((-1.0, 0.5, 1.0, 0.7)),
                            min_size=m + 1, max_size=m + 1))
    if draw(st.booleans()):
        # a window whose draws take one of two sets each
        pair = (draw(ambiguity_sets(pool)), draw(ambiguity_sets(pool)))
        return SequenceModel(draw(st.lists(st.sampled_from(pair), min_size=n + m,
                                           max_size=n + m)), weights, scale)
    return SequenceModel.moving_window(draw(ambiguity_sets(pool)), weights, n, scale)


FUNCTIONALS = (
    eng.square(),
    eng.identity(),
    eng.cosine(),
    eng.ramp(0.0),
    eng.ramp(0.5),
    eng.abs_power(3.0),
    eng.negated(eng.square()),
)


@st.composite
def options(draw, model: SequenceModel) -> dict:
    opts: dict = {}
    if draw(st.booleans()):
        opts["masks"] = [draw(st.sets(st.integers(1, model.n)))]
    if draw(st.booleans()):
        opts["x_clip"] = draw(st.sampled_from((0.25, 0.8, 1.5)))
    if draw(st.booleans()):
        opts["track_max"] = True
    return opts


@st.composite
def cases(draw) -> tuple[SequenceModel, eng.Functional, dict]:
    model = draw(models())
    return model, draw(st.sampled_from(FUNCTIONALS)), draw(options(model))


#: Largest number of full histories the oracle is asked to enumerate.
ORACLE_PATHS = 2_000

#: Lipschitz constant of each functional on [-R, R].
LIPSCHITZ = {
    "square": lambda R: 2.0 * R,
    "-square": lambda R: 2.0 * R,
    "identity": lambda R: 1.0,
    "cos": lambda R: 1.0,
    "ramp@0": lambda R: 1.0,
    "ramp@0.5": lambda R: 1.0,
    "abspow@3": lambda R: 3.0 * R * R,
}


def _oracle_applies(model: SequenceModel, opts: dict) -> bool:
    """No mask, clip or running max, and few enough histories to enumerate."""
    paths = math.prod(len(s.support) for s in model.sets)
    return not opts and paths <= ORACLE_PATHS


def _grid_error(model: SequenceModel, f: eng.Functional) -> float:
    """How far the 1e-12 merge grid can move the DP's value away from the oracle's.

    When every product weight x support point x scale is a multiple of 1/64,
    all partial sums are exact and the merge grid moves nothing.  Otherwise
    each completed coordinate rounds the partial sum by at most 5e-13, and
    phi turns the total into at most its Lipschitz constant on the reachable
    range times that.
    """
    weights = model.weights
    supports = {v for s in model.sets for v in s.support}
    products = [w * v * model.scale for w in weights for v in supports]
    if all((64.0 * x).is_integer() for x in products):
        return 0.0
    reach = model.n * sum(abs(w) for w in weights) * max(map(abs, supports)) * model.scale
    return LIPSCHITZ[f.name](reach) * model.n * 5e-13


def _agrees_with_oracle(model: SequenceModel, f: eng.Functional, got: eng.EvalResult) -> bool:
    """Within 1e-12 (relative above 1), plus the merge grid's error."""
    oracle = eng.oracle_policy_enum(model, f)
    grid = _grid_error(model, f)
    return all(
        abs(a - b) <= 1e-12 * max(1.0, abs(b)) + grid
        for a, b in ((got.upper, oracle.upper), (got.lower, oracle.lower))
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases())
def test_eval_sum_equals_the_dict_dp_exactly(case):
    model, f, opts = case
    (got,) = eng.evaluate_columns(eng.compile_sum(model, **opts), [(f, model.n)])
    want = reference_eval_sum(model, f, **opts)
    assert got.upper == want.upper
    assert got.lower == want.lower
    assert got.state_count == want.state_count
    if _oracle_applies(model, opts):
        assert _agrees_with_oracle(model, f, got)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(models().filter(lambda model: _oracle_applies(model, {})))
def test_eval_sum_equals_the_dict_dp_and_the_oracle(model):
    # the oracle's domain: full sum, no clipping, final-sum payoff
    fs = (eng.square(), eng.cosine(), eng.ramp(0.5))
    for f, got in zip(fs, eng.evaluate_columns(eng.compile_sum(model), [(f, model.n) for f in fs])):
        want = reference_eval_sum(model, f)
        assert (got.upper, got.lower, got.state_count) == (
            want.upper, want.lower, want.state_count)
        assert _agrees_with_oracle(model, f, got)


def assert_same_graph(got: eng.Graph, want: eng.Graph) -> None:
    """Array-equal graphs: child indices, laws, payoff-argument bytes, lead and state counts."""
    assert got.lead == want.lead and got.laws == want.laws and got.states == want.states
    assert len(got.children) == len(want.children) and len(got.args) == len(want.args)
    for g, w in zip(got.children, want.children):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    for g, w in zip(got.args, want.args):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cases(), st.booleans())
def test_compile_sum_builds_the_reference_graph(case, iid):
    model, _, opts = case
    if iid and model.m == 0:
        model = SequenceModel(model.sets[:1] * model.n, model.weights, model.scale)
    want = reference_compile_sum(model, **opts)
    assert_same_graph(eng.compile_sum(model, **opts), want)
    # renumbering the packed key before every pack changes no state and no order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "_TABLE_FACTOR", 0)
        assert_same_graph(eng.compile_sum(model, **opts), want)


def _lattice(model: SequenceModel, **opts) -> bool:
    """Whether ``compile_sum`` takes the integer-key path for ``model`` and ``opts``.

    Only that path numbers a layer's sums by their offsets (``_offset_ids``).
    """
    calls, offset_ids = [], eng._offset_ids
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "_offset_ids", lambda col: calls.append(col) or offset_ids(col))
        eng.compile_sum(model, **opts)
    return bool(calls)


def _quarter_set(top: float = 1.0) -> sl.AmbiguitySet:
    """Supports and weights on multiples of 0.25 (of ``top``), as in the Rosenthal battery."""
    return sl.ambiguity([sl.DiscreteLaw((-top, 0.0, top), (0.25, 0.5, 0.25)),
                         sl.DiscreteLaw((-top, top), (0.25, 0.75))])


def test_terms_whose_quanta_overflow_take_the_float_grid():
    # 1e305 * 2^12 overflows; the suite turns the RuntimeWarning into an error
    model = SequenceModel.iid(sl.singleton(sl.DiscreteLaw((-1e305, 1e305), (0.5, 0.5))), 2)
    for graph in (eng.row_sums(model), eng.compile_sum(model)):
        assert isinstance(graph, eng.Graph)
        assert sorted(graph.args[-1].tolist()) == [-2e305, 0.0, 2e305]


def test_lattice_predicate_takes_multiples_of_2_to_the_minus_12_below_2_to_the_41():
    q = 2.0 ** -12
    counts = eng._quanta(np.array([[-3 * q, 0.0, 5 * q]]))
    assert counts.dtype == np.int64 and counts.tolist() == [[-3, 0, 5]]
    assert eng._quanta(np.array([[q]])).tolist() == [[1]]
    assert eng._quanta(np.array([[q / 2.0, q]])) is None
    assert eng._quanta(np.array([[math.inf]])) is None
    assert eng._quanta(np.array([[math.nan, q]])) is None
    # every entry lies below 2^41 in magnitude
    assert eng._quanta(np.array([[2.0 ** 41 - q]])).tolist() == [[2 ** 53 - 1]]
    assert eng._quanta(np.array([[-2.0 ** 41]])) is None
    # an entry whose count of quanta overflows fails the bound without a warning
    assert eng._quanta(np.array([[1e305, q]])) is None
    # a compile bounds the sum of the draws' largest terms, counted once per draw:
    # three draws of +-2^39 stay below 2^41 and four do not (the cases below)

    window = SequenceModel.moving_window(_quarter_set(), (1.0, 0.5), 5)
    on = [
        (window, {}),
        (window, {"track_max": True, "x_clip": 0.75, "masks": [(1, 3, 4)]}),
        (SequenceModel.iid(_quarter_set(q), 4), {"track_max": True}),
        (SequenceModel.iid(_quarter_set(2.0 ** 39), 3), {}),
        (SequenceModel.iid(_quarter_set(2.0 ** 39), 5), {"masks": [(1, 2, 5)]}),
    ]
    off = [
        (SequenceModel.iid(_quarter_set(q / 2.0), 4), {}),
        (window, {"x_clip": 0.3}),
        (SequenceModel.moving_window(_quarter_set(), (1.0, 0.5), 5, scale=1 / math.sqrt(5)), {}),
        (SequenceModel.iid(_quarter_set(2.0 ** 39), 4), {}),
        (SequenceModel.iid(_quarter_set(2.0 ** 39), 4), {"track_max": True}),
        (SequenceModel.iid(_quarter_set(2.0 ** 40), 2), {}),
    ]
    assert [_lattice(model, **opts) for model, opts in on] == [True] * len(on)
    assert [_lattice(model, **opts) for model, opts in off] == [False] * len(off)
    for model, opts in on + off:
        want = reference_compile_sum(model, **opts)
        assert_same_graph(eng.compile_sum(model, **opts), want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_TABLE_FACTOR", 0)
            assert_same_graph(eng.compile_sum(model, **opts), want)


def test_reference_and_engine_agree_on_the_flagship_model():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 1.0), 8, scale=1.0 / math.sqrt(8))
    for opts in ({}, {"track_max": True}, {"x_clip": 0.5, "masks": [(1, 2, 5, 8)]}):
        graph = eng.compile_sum(model, **opts)
        assert_same_graph(graph, reference_compile_sum(model, **opts))
        got_all = eng.evaluate_columns(graph, [(f, model.n) for f in FUNCTIONALS])
        for f, got in zip(FUNCTIONALS, got_all):
            want = reference_eval_sum(model, f, **opts)
            assert (got.upper, got.lower, got.state_count) == (
                want.upper, want.lower, want.state_count)


def mask_sums(model: SequenceModel, f: eng.Functional, masks: list,
              **opts) -> tuple[eng.EvalResult, ...]:
    """``f`` of the full horizon at every root of one ``compile_sum`` graph of ``masks``."""
    graph = eng.compile_sum(model, masks=masks, **opts)
    return eng.evaluate_columns(graph, [(f, model.n)])


def test_state_cap_trips_at_the_reference_total():
    iid = SequenceModel.iid(sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)]), 6)
    window = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 0.5), 5)
    for model, opts in ((iid, {}), (window, {"track_max": True})):
        total = reference_eval_sum(model, eng.square(), **opts).state_count
        (got,) = mask_sums(model, eng.square(), [None], state_cap=total, **opts)
        assert got.state_count == total
        for cap in (total - 1, 5, 1):
            with pytest.raises(StateCapError) as want:
                reference_eval_sum(model, eng.square(), state_cap=cap, **opts)
            with pytest.raises(StateCapError) as want_graph:
                reference_compile_sum(model, state_cap=cap, **opts)
            with pytest.raises(StateCapError) as got:
                mask_sums(model, eng.square(), [None], state_cap=cap, **opts)
            g, w = got.value, want_graph.value
            assert (g.count, g.cap) == (want.value.count, cap)
            assert (g.count, g.step, g.steps, g.layer_sizes) == (
                w.count, w.step, w.steps, w.layer_sizes)
            assert sum(g.layer_sizes) == g.count


def _rounding_inputs() -> np.ndarray:
    """Generic values, decimal half-ties and their neighbours, lattice sums, edge values."""
    rng = np.random.default_rng(20240901)
    generic = 10.0 ** rng.uniform(-16.0, 4.0, 100_000) * rng.choice((-1.0, 1.0), 100_000)
    k = np.concatenate([rng.integers(-10**6, 10**6, 20_000),
                        rng.integers(-10**13, 10**13, 20_000)]).astype(float)
    ties = (k + 0.5) * 1e-12
    n = 48
    lattice = rng.choice(LATTICE_POOL + OFF_LATTICE_POOL, size=(200, n)) / math.sqrt(n)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]
    return np.concatenate([generic, ties, np.nextafter(ties, math.inf),
                           np.nextafter(ties, -math.inf), np.cumsum(lattice, axis=1).ravel(),
                           edges])


def test_canon_array_rounds_like_round_bit_for_bit():
    x = _rounding_inputs()
    got = eng._canon_array(x)
    want = np.array([round(v, 12) + 0.0 for v in x.tolist()])
    assert np.count_nonzero(got.view(np.int64) != want.view(np.int64)) == 0


def _canon_inputs() -> st.SearchStrategy[float]:
    """Generic floats of magnitude 1e-6..1e16, decimal half-ties and their neighbours, edge values."""
    generic = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-6.0, 16.0),
                        st.sampled_from((-1.0, 1.0)))
    ties = st.integers(-10**13, 10**13).map(lambda k: (k + 0.5) / 1e12)
    near = st.builds(math.nextafter, ties, st.sampled_from((-math.inf, math.inf)))
    edges = st.sampled_from((2.0 ** 52 * 1e-12, -2.0 ** 52 * 1e-12, 0.0, -0.0, 5e-324, -5e-324,
                             -1e-310, 2.2250738585072014e-308, 1e300, -1e300, math.nan))
    return st.one_of(generic, ties, near, edges)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_canon_inputs(), min_size=1, max_size=64))
def test_canon_array_is_idempotent_bit_for_bit(values):
    # a root that skips a draw adds a zero term and is rounded again
    once = eng._canon_array(np.array(values))
    assert np.array_equal(eng._canon_array(once.copy()).view(np.int64), once.view(np.int64))


def test_canon_array_leaves_its_own_roundings_unchanged():
    once = eng._canon_array(_rounding_inputs())
    assert np.array_equal(eng._canon_array(once.copy()).view(np.int64), once.view(np.int64))


def test_evaluate_calls_phi_once_per_distinct_terminal_argument():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 1.0), 8)
    graph = eng.compile_sum(model, track_max=True)
    seen: list[float] = []

    def phi(x: float) -> float:
        seen.append(x)
        return x * x

    (got,) = eng.evaluate_columns(graph, [(eng.Functional("square", phi),
                                           model.n)])
    assert sorted(seen) == sorted(set(graph.args[-1].tolist()))
    assert len(seen) < len(graph.args[-1])
    want = reference_eval_sum(model, eng.square(), track_max=True)
    assert (got.upper, got.lower, got.state_count) == (want.upper, want.lower, want.state_count)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(models(), st.sampled_from(FUNCTIONALS), st.sampled_from(FUNCTIONALS),
       st.sampled_from((-1.5, 0.0, 2.0)), st.sampled_from((0.0, 0.5, 3.0)))
def test_sublinear_axioms_hold_on_sums(model, f, g, c, lam):
    graph = eng.compile_sum(model)

    def upper(phi: Callable[[float], float]) -> float:
        (up,), _ = eng.sweep_columns(
            graph, [(eng.Functional("h", phi), model.n)], [])
        return up

    def le(a: float, b: float) -> bool:
        return a <= b + 1e-12 * max(1.0, abs(a), abs(b))

    def eq(a: float, b: float) -> bool:
        return le(a, b) and le(b, a)

    (res,) = eng.evaluate_columns(graph, [(f, model.n)])
    up_f, up_g = res.upper, upper(g.phi)
    assert le(up_f, upper(lambda s: f.phi(s) + abs(g.phi(s))))       # monotonicity
    assert eq(upper(lambda s: c), c)                                  # constants
    assert eq(upper(lambda s: f.phi(s) + c), up_f + c)                # translation
    assert le(upper(lambda s: f.phi(s) + g.phi(s)), up_f + up_g)      # sub-additivity
    assert eq(upper(lambda s: lam * f.phi(s)), lam * up_f)            # homogeneity
    assert res.lower == -upper(eng.negated(f).phi)                    # conjugacy, exact


# ---------------------------------------------------------------------------
# Shared graphs and same-law marginals
# ---------------------------------------------------------------------------


def eval_index(
    model: SequenceModel,
    k: int,
    phi: Callable[[float], float],
    *,
    x_clip: float | None = None,
) -> tuple[float, float]:
    """Upper and lower expectation of ``phi(X_k)`` (scaled, optionally clipped).

    The per-k reference for ``marginal_columns``: one ``window_columns``
    call per index, with no same-law shortcut.
    """
    def psi(xs: tuple[float, ...]) -> float:
        return phi(xs[0])

    (up,), (lo,) = eng.window_columns(model, (k,), [psi], [psi], x_clip=x_clip)
    return up, lo


@st.composite
def marginal_models(draw) -> SequenceModel:
    """``models()``, with half of the m = 0 ones made iid (equal sets)."""
    model = draw(models())
    if model.m == 0 and draw(st.booleans()):
        return SequenceModel(model.sets[:1] * model.n, model.weights, model.scale)
    return model


MARGINAL_PHIS = (
    lambda x: x * x,
    lambda x: x,
    lambda x: max(x * x - 0.5, 0.0),
    lambda x: abs(x) ** 3,
    lambda x: 1.0 if abs(x) > 0.5 else 0.0,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(marginal_models(), st.sampled_from(MARGINAL_PHIS),
       st.sampled_from((None, 0.25, 0.8, 1.5)), st.booleans())
def test_marginals_equal_the_per_index_loop(model, phi, x_clip, lower):
    ups, los = eng.marginal_columns(model, [] if lower else [phi], [phi] if lower else [],
                                    x_clip=x_clip)
    (got,) = los if lower else ups
    want = tuple(eval_index(model, k, phi, x_clip=x_clip)[1 if lower else 0]
                 for k in range(1, model.n + 1))
    assert got == want
    total = 0.0
    for v in want:
        total += v
    assert eng.ordered_sum(got) == total
    spread = 0.0
    for k in range(1, model.n + 1):
        up, lo = eval_index(model, k, lambda x: x, x_clip=x_clip)
        spread += abs(up) + abs(lo)
    (col,), spreads = eng.spread_columns(model, [phi], x_clip=x_clip)
    assert eng.ordered_sum(spreads) == spread
    assert col == tuple(eval_index(model, k, phi, x_clip=x_clip)[0]
                        for k in range(1, model.n + 1))


def test_ordered_sum_adds_left_to_right():
    # compensated summation (builtin sum from Python 3.12 on) gives 1.0 here
    assert eng.ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert eng.ordered_sum(x for x in ()) == 0.0


def test_marginals_evaluate_one_index_only_under_one_law(monkeypatch):
    calls: list[tuple[int, ...]] = []
    window = eng.window_columns

    def counting(model, indices, upper, lower, **kwargs):
        calls.append(tuple(indices))
        return window(model, indices, upper, lower, **kwargs)

    monkeypatch.setattr(eng, "window_columns", counting)
    a = sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)])
    b = sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])
    for model, expected in (
        (SequenceModel.iid(a, 5), [(1,)]),
        (SequenceModel.moving_window(a, (1.0, 0.5), 5), [(1,)]),
        (SequenceModel((a, b, a, b, a)), [(1,), (2,), (3,), (4,), (5,)]),
        (SequenceModel((a, a, b, a, a, a), (1.0, 0.5)), [(1,), (2,), (3,), (4,), (5,)]),
    ):
        calls.clear()
        _, (col,) = eng.marginal_columns(model, [], [lambda x: x * x])
        assert len(col) == 5
        assert calls == expected


# ---------------------------------------------------------------------------
# Many-column history recursions
# ---------------------------------------------------------------------------


def reference_history_value(sets, payoff, maximize: bool) -> float:
    """The one-column full-history recursion the engine ran before it carried columns.

    Every law recurses into each of its support points afresh.
    """
    def rec(t: int, hist: tuple[float, ...]) -> float:
        if t == len(sets):
            return payoff(hist)
        best = -math.inf if maximize else math.inf
        for law in sets[t].laws:
            acc = 0.0
            for v, p in zip(law.values, law.probs):
                if p == 0.0:
                    continue
                acc += p * rec(t + 1, hist + (v,))
            best = max(best, acc) if maximize else min(best, acc)
        return best

    return rec(0, ())


def reference_eval_window(model: SequenceModel, indices, psi, *, lower: bool = False,
                          x_clip: float | None = None) -> float:
    """One window payoff as the engine evaluated it before ``window_columns``: one
    column, payoffs built per history."""
    idx = tuple(indices)
    involved = sorted({k + j for k in idx for j in range(model.m + 1)})
    sets = [model.sets[t - 1] for t in involved]

    def raw(hist, k):
        draws = dict(zip(involved, hist))
        return math.fsum(w * draws[k + j] for j, w in enumerate(model.weights))

    def payoff(hist):
        xs = []
        for k in idx:
            x = model.scale * raw(hist, k)
            if x_clip is not None:
                x = min(max(x, -x_clip), x_clip)
            xs.append(x)
        return psi(tuple(xs))

    return reference_history_value(sets, payoff, not lower)


#: Window payoffs, with the edge values -0.0 (0.0 + p * -0.0 is 0.0) and
#: infinities of one sign each.
WINDOW_PAYOFFS = (
    lambda xs: xs[0] * xs[-1],
    lambda xs: math.fsum(xs),
    lambda xs: abs(math.fsum(xs)) ** 3,
    lambda xs: -0.0 if xs[0] <= 0.0 else xs[0],
    lambda xs: math.inf if xs[-1] > 0.5 else -0.0,
    lambda xs: -math.inf if xs[0] < -0.5 else xs[0] * xs[-1],
)

#: ``MARGINAL_PHIS`` and the same edge values on one coordinate.
EDGE_PHIS = MARGINAL_PHIS + (
    lambda x: -0.0 if x <= 0.0 else x,
    lambda x: math.inf if x > 0.5 else -0.0,
    lambda x: -math.inf if x < -0.5 else x * x,
)


@st.composite
def windows(draw, model: SequenceModel) -> tuple[int, ...]:
    """1 to 3 indices, repeats allowed, spanning at most 3 - m coordinates."""
    lo = draw(st.integers(1, model.n))
    hi = min(model.n, lo + max(0, 2 - model.m))
    return tuple(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3)))


def side_lists(pool):
    """Upper and lower columns: repeats within and across the sides, either side empty."""
    return st.tuples(st.lists(st.sampled_from(pool), max_size=3),
                     st.lists(st.sampled_from(pool), max_size=3))


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(marginal_models(), st.data(), st.sampled_from((None, 0.25, 1.5)))
def test_window_columns_equal_one_column_recursions(model, data, x_clip):
    idx = data.draw(windows(model))
    upper, lower = data.draw(side_lists(WINDOW_PAYOFFS))
    ups, los = eng.window_columns(model, idx, upper, lower, x_clip=x_clip)
    assert hexes(ups) == hexes(reference_eval_window(model, idx, psi, x_clip=x_clip)
                               for psi in upper)
    assert hexes(los) == hexes(reference_eval_window(model, idx, psi, lower=True, x_clip=x_clip)
                               for psi in lower)
    # each column alone, once per side, gives the same floats
    assert hexes(ups) == hexes(eng.window_columns(model, idx, [psi], [], x_clip=x_clip)[0][0]
                               for psi in upper)
    assert hexes(los) == hexes(eng.window_columns(model, idx, [], [psi], x_clip=x_clip)[1][0]
                               for psi in lower)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(marginal_models(), side_lists(EDGE_PHIS), st.sampled_from((None, 0.25, 1.5)))
def test_marginal_columns_equal_one_column_recursions(model, sides, x_clip):
    upper, lower = sides
    ups, los = eng.marginal_columns(model, upper, lower, x_clip=x_clip)
    assert [len(col) for col in ups + los] == [model.n] * (len(upper) + len(lower))
    for side, phis, is_lower in ((ups, upper, False), (los, lower, True)):
        for col, phi in zip(side, phis):
            assert hexes(col) == hexes(
                reference_eval_window(model, (k,), lambda xs, _phi=phi: _phi(xs[0]),
                                      lower=is_lower, x_clip=x_clip)
                for k in range(1, model.n + 1))


def test_a_window_over_per_draw_sets_compiles_and_takes_marginals_per_index():
    a = sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)])
    b = sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])
    model = SequenceModel((a, b, b, a, a, b), (1.0, 0.5))
    assert (model.n, model.m) == (5, 1) and not eng.one_law(model)
    # window codes mix radix 3 (a's support) and 2 (b's)
    for opts in ({}, {"track_max": True, "masks": [(1, 2, 4)]}):
        graph = eng.compile_sum(model, **opts)
        assert_same_graph(graph, reference_compile_sum(model, **opts))
        (got,) = eng.evaluate_columns(graph, [(eng.cosine(), model.n)])
        assert bits(got) == bits(reference_eval_sum(model, eng.cosine(), **opts))
    ups, los = eng.marginal_columns(model, MARGINAL_PHIS, MARGINAL_PHIS, x_clip=0.8)
    for side, is_lower in ((ups, False), (los, True)):
        for col, phi in zip(side, MARGINAL_PHIS):
            assert hexes(col) == hexes(
                reference_eval_window(model, (k,), lambda xs, _phi=phi: _phi(xs[0]),
                                      lower=is_lower, x_clip=0.8)
                for k in range(1, model.n + 1))
    # X_1 = a + b/2 and X_2 = b + b/2 have different means
    assert ups[1][0] != ups[1][1]
    with pytest.raises(ValidationError):
        mdep.three_part_split(model, 5, 2)


def test_distant_window_indices_recurse_over_their_own_draws_only(monkeypatch):
    a = sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)])
    b = sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])
    recursed: list[int] = []
    history_values = eng._history_values

    def counting(sets, *args):
        recursed.append(len(sets))
        return history_values(sets, *args)

    monkeypatch.setattr(eng, "_history_values", counting)
    payoffs = WINDOW_PAYOFFS[:3]
    for model in (SequenceModel.moving_window(a, (1.0, 0.5), 6),
                  SequenceModel((a, b, b, a, b, a, a), (1.0, -1.0)),
                  SequenceModel((a, b, a, b, a, b))):
        # gaps wider than m + 1 leave draws no coordinate involves
        for idx in ((1, 4), (5, 2), (1, 2, 5)):
            involved = sorted({k + j for k in idx for j in range(model.m + 1)})
            recursed.clear()
            ups, los = eng.window_columns(model, idx, payoffs, payoffs)
            assert recursed == [len(involved)]
            assert hexes(ups) == hexes(reference_eval_window(model, idx, psi) for psi in payoffs)
            assert hexes(los) == hexes(reference_eval_window(model, idx, psi, lower=True)
                                       for psi in payoffs)
            # the draws left out integrate out of a recursion over the whole span
            first, last = min(idx), max(idx) + model.m
            for got, psi in zip(ups, payoffs):
                def payoff(hist, _psi=psi):
                    return _psi(tuple(math.fsum(w * hist[k + j - first]
                                                for j, w in enumerate(model.weights))
                                      for k in idx))

                span = reference_history_value(model.sets[first - 1:last], payoff, True)
                assert got == pytest.approx(span, rel=1e-12, abs=1e-12)


def reference_oracle(model: SequenceModel, f: eng.Functional) -> tuple[float, float]:
    """``oracle_policy_enum`` as it was: one one-column recursion per side."""
    sets = model.sets

    def payoff(hist):
        total = math.fsum(w * hist[k + j - 1]
                          for k in range(1, model.n + 1) for j, w in enumerate(model.weights))
        return f.phi(model.scale * total)

    return (reference_history_value(sets, payoff, True),
            reference_history_value(sets, payoff, False))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(models(), st.sampled_from(FUNCTIONALS))
def test_oracle_sides_equal_two_one_column_recursions(model, f):
    paths = math.prod(len(s.support) for s in model.sets)
    assume(paths <= 300)
    got = eng.oracle_policy_enum(model, f)
    assert hexes((got.upper, got.lower)) == hexes(reference_oracle(model, f))


#: Payoffs whose values stress the sweep's float handling: -0.0 (0.0 + p * -0.0
#: is 0.0) and infinities of one sign each (never inf - inf, which is NaN).
EDGE_FUNCTIONALS = (
    eng.Functional("neg_zero", lambda x: -0.0 if x <= 0.0 else x),
    eng.Functional("plus_inf", lambda x: math.inf if x > 0.5 else -0.0),
    eng.Functional("minus_inf", lambda x: -math.inf if x < -0.5 else x * x),
)


def bits(res: eng.EvalResult) -> tuple[str, str, int]:
    """A result as exact hex floats and its state count."""
    return res.upper.hex(), res.lower.hex(), res.state_count


def _prefix_options(opts: dict, M: int) -> dict:
    """The options of ``model.prefix(M)``: the part of the mask within 1..M."""
    (mask,) = opts.get("masks", [None])
    return opts if mask is None else {**opts, "masks": [{k for k in mask if k <= M}]}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases())
def test_one_sweep_serves_many_functionals_in_any_order(case):
    model, _, opts = case
    graph = eng.compile_sum(model, **opts)
    fs = FUNCTIONALS + EDGE_FUNCTIONALS
    want = [bits(reference_eval_sum(model, f, **opts)) for f in fs]
    # the sweep only reads the graph: reversing the order changes nothing
    assert [bits(r) for r in eng.evaluate_columns(graph, [(f, model.n) for f in fs])] == want
    assert [bits(r) for r in eng.evaluate_columns(
        graph, [(f, model.n) for f in reversed(fs)])] == want[::-1]
    assert [bits(eng.evaluate_columns(graph, [(f, model.n)])[0]) for f in fs] == want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases(), st.data())
def test_columns_equal_the_prefix_compiles_and_the_dict_dp(case, data):
    model, _, opts = case
    graph = eng.compile_sum(model, **opts)
    # mixed functionals at unsorted, repeated horizons
    columns = data.draw(st.lists(
        st.tuples(st.sampled_from(FUNCTIONALS + EDGE_FUNCTIONALS), st.integers(1, model.n)),
        min_size=1, max_size=8))
    got = eng.evaluate_columns(graph, columns)
    assert len(got) == len(columns)
    for (f, M), res in zip(columns, got):
        sub = _prefix_options(opts, M)
        prefix_graph = eng.compile_sum(model.prefix(M), **sub)
        assert bits(res) == bits(eng.evaluate_columns(prefix_graph, [(f, M)])[0])
        assert bits(res) == bits(reference_eval_sum(model.prefix(M), f, **sub))
    assert eng.evaluate_columns(graph, []) == ()
    for M in (0, model.n + 1):
        with pytest.raises(ValidationError):
            eng.evaluate_columns(graph, [(eng.square(), 1), (eng.square(), M)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases(), st.data())
def test_one_sided_sweeps_equal_the_two_sided_sweep(case, data):
    model, _, opts = case
    graph = eng.compile_sum(model, **opts)
    columns = data.draw(st.lists(
        st.tuples(st.sampled_from(FUNCTIONALS + EDGE_FUNCTIONALS), st.integers(1, model.n)),
        min_size=1, max_size=6))
    both = eng.evaluate_columns(graph, columns)
    uppers, none = eng.sweep_columns(graph, columns, [])
    assert none == ()
    assert [v.hex() for v in uppers] == [r.upper.hex() for r in both]
    none, lowers = eng.sweep_columns(graph, (), columns[::-1])
    assert none == ()
    assert [v.hex() for v in lowers] == [r.lower.hex() for r in both[::-1]]
    # different columns on the two sides, each side in its own order
    uppers, lowers = eng.sweep_columns(graph, columns[1:], columns[:1])
    assert [v.hex() for v in uppers] == [r.upper.hex() for r in both[1:]]
    assert [v.hex() for v in lowers] == [both[0].lower.hex()]
    assert eng.sweep_columns(graph, [], []) == ((), ())


def test_columns_call_phi_once_per_distinct_argument_of_their_layer():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 1.0), 8)
    graph = eng.compile_sum(model, track_max=True)
    seen: dict[int, list[float]] = {3: [], 5: [], 8: []}

    def column(M: int) -> tuple[eng.Functional, int]:
        def phi(x: float) -> float:
            seen[M].append(x)
            return x * x
        return eng.Functional("square", phi), M

    got = eng.evaluate_columns(graph, [column(M) for M in (5, 3, 8)])
    for M, calls in seen.items():
        assert sorted(calls) == sorted(set(graph.args[M + graph.lead].tolist()))
    for M, res in zip((5, 3, 8), got):
        want = reference_eval_sum(model.prefix(M), eng.square(), track_max=True)
        assert bits(res) == bits(want)


def reference_rosenthal(model: SequenceModel, n: int, p: float) -> mdep.RosenthalReport:
    """The ``(n, p)`` check from its own compile of ``model.prefix(n)`` and its marginals."""
    sub = model.prefix(n)
    f_max = eng.Functional("abs_max_p", lambda x: abs(x) ** p)
    (lhs,), _ = eng.sweep_columns(eng.compile_sum(sub, track_max=True), [(f_max, n)], [])
    (abs_p,), _ = eng.marginal_columns(sub, [lambda x: abs(x) ** p], [])
    (squares,), _ = eng.marginal_columns(sub, [lambda x: x * x], [])
    _, spreads = eng.spread_columns(sub, [])
    moments = eng.ordered_sum(abs_p)
    variance = eng.ordered_sum(squares) ** (p / 2.0)
    means = eng.ordered_sum(spreads) ** p
    rhs = moments + variance + means
    if rhs <= 0.0:
        raise ValidationError("degenerate model: all right-side terms vanish")
    return mdep.RosenthalReport(p, n, sub.m, lhs, moments, variance, means, lhs / rhs)


# ---------------------------------------------------------------------------
# One graph under another model's laws
# ---------------------------------------------------------------------------


@st.composite
def same_columns_sets(draw, set_: sl.AmbiguitySet) -> sl.AmbiguitySet:
    """Other laws on the support columns of ``set_``, one of them positive on every column."""
    ((values, _),) = eng._support_columns([set_])
    weights = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    full = sl.DiscreteLaw(values, tuple(w / sum(weights) for w in weights))
    others = draw(st.lists(laws(values), max_size=2))
    others.insert(draw(st.integers(0, len(others))), full)
    return sl.ambiguity(others)


@st.composite
def relawed(draw, model: SequenceModel) -> SequenceModel:
    """``model`` with other laws on every draw's support columns; equal sets stay equal."""
    new: dict[sl.AmbiguitySet, sl.AmbiguitySet] = {}
    for set_ in model.sets:
        if set_ not in new:
            new[set_] = draw(same_columns_sets(set_))
    return SequenceModel([new[set_] for set_ in model.sets], model.weights, model.scale)


@st.composite
def window_models(draw, m: int, lattice: bool) -> SequenceModel:
    """A window of width m whose draws take one of at most two sets, on or off the lattice."""
    n = draw(st.integers(1, 4))
    pool = LATTICE_POOL if lattice else OFF_LATTICE_POOL
    scale = draw(st.sampled_from((1.0, 0.5) if lattice else (1.0, 1.0 / math.sqrt(n))))
    weights = draw(st.lists(st.sampled_from((-1.0, 0.5, 1.0)), min_size=m + 1, max_size=m + 1))
    sets = draw(st.lists(ambiguity_sets(pool), min_size=1, max_size=2))
    return SequenceModel(draw(st.lists(st.sampled_from(sets), min_size=n + m, max_size=n + m)),
                         weights, scale)


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "off-lattice"])
@pytest.mark.parametrize("track_max", [False, True], ids=["sum", "max"])
@pytest.mark.parametrize("m", [0, 1, 2])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_a_graph_under_another_models_laws_is_that_models_compile(m, track_max, lattice, data):
    model = data.draw(window_models(m, lattice))
    other = data.draw(relawed(model))
    opts = {"track_max": track_max}
    if data.draw(st.booleans()):
        opts["masks"] = [data.draw(st.sets(st.integers(1, model.n)))]
    assume(_lattice(model, **opts) == lattice)  # an off-lattice pool may draw 0.0 and 1.0 alone
    graph = eng.compile_sum(model, **opts)
    moved, own = eng.with_laws(graph, other), eng.compile_sum(other, **opts)
    assert eng.support_key(other) == eng.support_key(model)
    assert graph.model is model and moved.model is other
    # upper and lower columns at several horizons, by float.hex
    columns = data.draw(st.lists(
        st.tuples(st.sampled_from(FUNCTIONALS + EDGE_FUNCTIONALS), st.integers(1, model.n)),
        min_size=1, max_size=6))
    want = [bits(res) for res in eng.evaluate_columns(own, columns)]
    assert [bits(res) for res in eng.evaluate_columns(moved, columns)] == want
    assert_same_graph(moved, own)
    # the arrays and counts are the graph's own, and the graph keeps its laws
    assert (moved.children is graph.children and moved.args is graph.args
            and moved.states is graph.states)
    assert_same_graph(graph, eng.compile_sum(model, **opts))


def _set(*laws: tuple[tuple[float, ...], tuple[float, ...]]) -> sl.AmbiguitySet:
    return sl.ambiguity(sl.DiscreteLaw(values, probs) for values, probs in laws)


#: Each pair differs only in its probabilities, except where its name says.
MISMATCHED = {
    # 0.0 against -0.0: equal floats, different bits
    "signed-zero": (_set(((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25))),
                    _set(((-1.0, -0.0, 1.0), (0.25, 0.5, 0.25)))),
    # 0.5 has positive probability in the first model only, though both list it
    "zero-probability": (_set(((-1.0, 0.5, 1.0), (0.25, 0.5, 0.25))),
                         _set(((-1.0, 0.5, 1.0), (0.5, 0.0, 0.5)))),
    # the same values, with 0.5 positive in a second law only
    "second-law": (_set(((-1.0, 1.0), (0.5, 0.5)), ((-1.0, 0.5, 1.0), (0.25, 0.5, 0.25))),
                   _set(((-1.0, 1.0), (0.5, 0.5)), ((-1.0, 0.5, 1.0), (0.5, 0.0, 0.5)))),
}


@pytest.mark.parametrize("track_max", [False, True], ids=["sum", "max"])
@pytest.mark.parametrize("first, second", MISMATCHED.values(), ids=MISMATCHED)
def test_a_graph_refuses_laws_on_other_support_columns(first, second, track_max):
    for a, b in ((first, second), (second, first)):
        graph = eng.compile_sum(SequenceModel.moving_window(a, (1.0, 1.0), 3),
                                track_max=track_max)
        with pytest.raises(ValidationError, match="support columns"):
            eng.with_laws(graph, SequenceModel.moving_window(b, (1.0, 1.0), 3))


@pytest.mark.parametrize("change", [
    {"weights": (1.0, 0.5)}, {"weights": (1.0, -0.0)}, {"weights": (1.0, 1.0, 1.0)},
    {"scale": 0.5}, {"n": 4}, {"n": 2},
], ids=["weight", "signed-zero-weight", "width", "scale", "longer", "shorter"])
def test_a_graph_refuses_other_weights_scale_or_length(change):
    set_ = _set(((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)), ((-1.0, 1.0), (0.5, 0.5)))
    other = _set(((-1.0, 0.0, 1.0), (0.5, 0.25, 0.25)), ((-1.0, 1.0), (0.25, 0.75)))
    base = {"weights": (1.0, 0.0), "scale": 1.0, "n": 3}
    graph = eng.compile_sum(SequenceModel.moving_window(set_, base["weights"], base["n"]),
                            track_max=True)
    eng.with_laws(graph, SequenceModel.moving_window(other, base["weights"], base["n"]))
    spec = {**base, **change}
    with pytest.raises(ValidationError, match="support columns, weights and scale"):
        eng.with_laws(graph, SequenceModel.moving_window(other, spec["weights"], spec["n"],
                                                         spec["scale"]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(marginal_models(), st.data())
def test_rosenthal_checks_equal_per_case_prefix_compiles(model, data):
    # a second family under other laws on the same support columns, at the
    # same largest horizon, shares the first one's compile
    cases = data.draw(st.lists(
        st.tuples(st.integers(1, model.n), st.sampled_from((2.0, 2.5, 3.0, 4.0))),
        min_size=1, max_size=6))
    other = data.draw(relawed(model))
    other_cases = [(max(n for n, _ in cases), 2.0), *data.draw(st.lists(
        st.tuples(st.integers(1, model.n), st.sampled_from((2.0, 3.0))), max_size=3))]
    families = [(model, cases), (other, other_cases)]
    try:
        want = tuple(tuple(reference_rosenthal(fam, n, p) for n, p in fam_cases)
                     for fam, fam_cases in families)
    except ValidationError:
        with pytest.raises(ValidationError):
            mdep.rosenthal_checks(families)
        return
    assert mdep.rosenthal_checks(families) == want


# ---------------------------------------------------------------------------
# Several masks of one model in one graph
# ---------------------------------------------------------------------------


def _mask_lists(rng: random.Random, n: int) -> list:
    """Random masks of 1..n, with an empty mask, a repeated mask, an overlapping pair and None."""
    some = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    more = tuple(sorted({*some, rng.randint(1, n)}))  # contains ``some``: they overlap
    masks = [some, more, (), some, None]
    masks += [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
              for _ in range(rng.randint(0, 2))]
    rng.shuffle(masks)
    return masks


def test_masks_of_one_graph_equal_each_masks_own_graph_and_the_dict_dp():
    # every root of a union graph is what a one-mask graph and the dict DP give
    rng = random.Random(20261018)
    for _ in range(120):
        model = random_model(rng, max_n=5)
        masks = _mask_lists(rng, model.n)
        opts = {"x_clip": rng.choice((None, 0.25, 0.8, 1.5)),
                "track_max": rng.random() < 0.25}
        f = rng.choice(FUNCTIONALS + EDGE_FUNCTIONALS)
        got = mask_sums(model, f, masks, **opts)
        assert len(got) == len(masks)
        for mask, res in zip(masks, got):
            assert bits(res) == bits(mask_sums(model, f, [mask], **opts)[0])
            assert bits(res) == bits(reference_eval_sum(model, f, masks=[mask], **opts))
            assert_same_graph(eng.compile_sum(model, masks=[mask], **opts),
                              reference_compile_sum(model, masks=[mask], **opts))
        union = eng.compile_sum(model, masks=masks, **opts)
        assert len(union.args[0]) == len(masks)  # one root per mask
        assert sum(map(len, union.args)) == sum(res.state_count for res in got)


def test_union_off_the_lattice_builds_each_masks_own_graph():
    # each mask alone sums at most 3 terms of 2^39, on the lattice; together
    # the masks add at all 5 draws, past 2^41, so the union takes the float grid
    model = SequenceModel.iid(_quarter_set(2.0 ** 39), 5)
    masks = [(1, 2, 5), (3, 4)]
    assert all(_lattice(model, masks=[mask]) for mask in masks)
    assert not _lattice(model)
    for f in (eng.square(), eng.identity()):
        for mask, res in zip(masks, mask_sums(model, f, masks)):
            assert bits(res) == bits(reference_eval_sum(model, f, masks=[mask]))


def test_state_cap_bounds_the_union_of_masks():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 0.5), 6)
    masks = [(1, 2, 3), (4, 5, 6), (2, 5)]
    counts = [mask_sums(model, eng.square(), [mask])[0].state_count for mask in masks]
    total = sum(counts)
    got = mask_sums(model, eng.square(), masks, state_cap=total)
    assert [res.state_count for res in got] == counts
    for mask in masks:  # each mask alone fits under the largest count
        mask_sums(model, eng.square(), [mask], state_cap=max(counts))
    for cap in (max(counts), total - 1):
        with pytest.raises(StateCapError) as err:
            mask_sums(model, eng.square(), masks, state_cap=cap)
        assert err.value.cap == cap and err.value.count > cap
        assert sum(err.value.layer_sizes) == err.value.count
    assert err.value.count == total  # the cap just below it trips at the last layer


def test_compile_sum_takes_masks_with_the_full_sum_as_default():
    model = SequenceModel.iid(_quarter_set(), 3)
    with pytest.raises(ValidationError):
        eng.compile_sum(model, masks=[])
    with pytest.raises(ValidationError):
        eng.compile_sum(model, masks=[(1,), (4,)])
    # the default is the one root of the full sum
    assert_same_graph(eng.compile_sum(model), eng.compile_sum(model, masks=[None]))
    assert_same_graph(eng.compile_sum(model, masks=[(1, 3)]),
                      reference_compile_sum(model, masks=[(1, 3)]))


# ---------------------------------------------------------------------------
# One clip level per root
# ---------------------------------------------------------------------------

CLIP_LEVELS = (None, 0.25, 0.5, 0.8, 1.5)


def _root_graph(union: eng.Graph, r: int) -> eng.Graph:
    """The states of root r of ``union``, every layer renumbered from 0.

    A layer holds root 0's states, then root 1's, and so on, so root r's
    states of layer t start after the states of roots 0..r-1 there.
    """
    starts = np.hstack([np.zeros((len(union.states), 1), dtype=np.int64),
                        np.cumsum(union.states, axis=1)])
    children = tuple((c[starts[t, r]:starts[t, r + 1]] - starts[t + 1, r]).astype(np.int32)
                     for t, c in enumerate(union.children))
    args = tuple(arg[starts[t, r]:starts[t, r + 1]] for t, arg in enumerate(union.args))
    return eng.Graph(children, union.laws, args, union.lead,
                     tuple((layer[r],) for layer in union.states))


def assert_roots_are_their_own_compiles(model: SequenceModel, masks: list, clips: list,
                                        track_max: bool, fs) -> None:
    union = eng.compile_sum(model, masks=masks, x_clip=clips, track_max=track_max)
    assert {len(layer) for layer in union.states} == {len(masks)}
    columns = [(f, M) for f in fs for M in range(1, model.n + 1)]
    got = iter(eng.evaluate_columns(union, columns))
    swept = {(f.name, M, r): next(got) for f, M in columns for r in range(len(masks))}
    for r, (mask, clip) in enumerate(zip(masks, clips)):
        opts = {"masks": [mask], "x_clip": clip, "track_max": track_max}
        want = reference_compile_sum(model, **opts)
        assert_same_graph(_root_graph(union, r), want)
        assert_same_graph(eng.compile_sum(model, **opts), want)
        for f, M in columns:
            sub = _prefix_options(opts, M)
            assert bits(swept[f.name, M, r]) == bits(reference_eval_sum(model.prefix(M), f, **sub))
    assert sum(map(len, union.args)) == sum(
        res.state_count for res in eng.evaluate_columns(union, [(fs[0], model.n)]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(models(), st.data())
def test_one_clip_level_per_root_builds_each_roots_own_graph(model, data):
    R = data.draw(st.integers(1, 4))
    masks = data.draw(st.lists(st.one_of(st.none(), st.sets(st.integers(1, model.n))),
                               min_size=R, max_size=R))
    clips = data.draw(st.lists(st.sampled_from(CLIP_LEVELS), min_size=R, max_size=R))
    fs = data.draw(st.lists(st.sampled_from(FUNCTIONALS + EDGE_FUNCTIONALS),
                            min_size=1, max_size=2, unique_by=lambda f: f.name))
    assert_roots_are_their_own_compiles(model, masks, clips, data.draw(st.booleans()), fs)
    # each root of one graph gives what it gives alone
    for mask, clip, res in zip(masks, clips, mask_sums(model, fs[0], masks, x_clip=clips)):
        assert bits(res) == bits(mask_sums(model, fs[0], [mask], x_clip=clip)[0])


def test_one_off_lattice_level_moves_the_whole_graph_onto_the_float_grid():
    window = SequenceModel.moving_window(_quarter_set(), (1.0, 0.5), 5)
    iid = SequenceModel.iid(_quarter_set(), 4)
    fs = (eng.square(), eng.ramp(0.5))
    for model in (window, iid):
        masks = [None, None, (1, 3)]
        on = [None, 0.25, 0.75]
        off = [None, 0.3, 0.75]  # 0.3 is no multiple of 2^-12
        assert _lattice(model, masks=masks, x_clip=on)
        assert not _lattice(model, masks=masks, x_clip=off)
        # the roots at lattice levels stay on the lattice in their own compiles
        assert _lattice(model) and _lattice(model, masks=[(1, 3)], x_clip=0.75)
        for clips in (on, off):
            for track_max in (False, True):
                assert_roots_are_their_own_compiles(model, masks, clips, track_max, fs)


def test_x_clip_takes_one_level_or_one_per_mask():
    model = SequenceModel.iid(_quarter_set(), 3)
    with pytest.raises(ValidationError, match="one level per mask"):
        eng.compile_sum(model, masks=[None, None], x_clip=[0.5])
    with pytest.raises(ValidationError, match="x_clip must be > 0"):
        eng.compile_sum(model, masks=[None, None], x_clip=[None, 0.0])
    assert_same_graph(eng.compile_sum(model, masks=[None, (1,)], x_clip=0.5),
                      eng.compile_sum(model, masks=[None, (1,)], x_clip=(0.5, 0.5)))


def test_state_cap_bounds_the_roots_of_every_level_together():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 0.5), 6)
    masks, clips = [None, None, (2, 5)], [None, 0.5, 1.0]
    counts = [reference_eval_sum(model, eng.square(), masks=[mask], x_clip=clip).state_count
              for mask, clip in zip(masks, clips)]
    total = sum(counts)
    got = mask_sums(model, eng.square(), masks, x_clip=clips, state_cap=total)
    assert [res.state_count for res in got] == counts
    for cap in (max(counts), total - 1):
        with pytest.raises(StateCapError) as err:
            mask_sums(model, eng.square(), masks, x_clip=clips, state_cap=cap)
        assert err.value.cap == cap and err.value.count > cap
        assert sum(err.value.layer_sizes) == err.value.count
    assert err.value.count == total  # the cap just below it trips at the last layer


# ---------------------------------------------------------------------------
# Lattice keys in units of the gcd of the term counts
# ---------------------------------------------------------------------------

#: Supports +-0.5 and +-1.5 under weights (1, 0.5): every term is an odd multiple of 1/4.
QUARTER_TERMS = SequenceModel.moving_window(
    sl.ambiguity([sl.DiscreteLaw((-1.5, -0.5, 0.5, 1.5), (0.25, 0.25, 0.25, 0.25)),
                  sl.DiscreteLaw((-0.5, 1.5), (0.75, 0.25))]),
    (1.0, 0.5), 5)
#: A support point at 2^-12: the unit is one quantum.
ONE_QUANTUM = SequenceModel.moving_window(
    sl.ambiguity([sl.DiscreteLaw((-1.0, 2.0 ** -12, 1.0), (0.25, 0.5, 0.25)),
                  sl.DiscreteLaw((-1.0, 1.0), (0.5, 0.5))]),
    (1.0, 1.0), 4)
#: Every term negative.
NEGATIVE_ONLY = SequenceModel.iid(
    sl.ambiguity([sl.DiscreteLaw((-2.0, -1.0), (0.5, 0.5)),
                  sl.DiscreteLaw((-3.0, -1.0), (0.25, 0.75))]), 5)
#: Every term 0: each count is 0, and the unit falls back to 1.
ZERO_ONLY = SequenceModel.moving_window(sl.ambiguity([sl.DiscreteLaw((0.0,), (1.0,))]),
                                        (1.0, -1.0), 5)


def _sum_bounds(model: SequenceModel, **opts) -> list[int]:
    """The id bound of the sum column of every merge of ``compile_sum(model, **opts)``."""
    bounds = []
    merge = eng._merge

    def spy(columns, size):
        bounds.append(columns[0][1])
        return merge(columns, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "_merge", spy)
        eng.compile_sum(model, **opts)
    return bounds


def assert_compiles_like_the_references(model: SequenceModel, **opts) -> None:
    """The reference graph, with and without compacting every pack, and the dict DP's values."""
    want = reference_compile_sum(model, **opts)
    graph = eng.compile_sum(model, **opts)
    assert_same_graph(graph, want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "_TABLE_FACTOR", 0)
        assert_same_graph(eng.compile_sum(model, **opts), want)
    fs = FUNCTIONALS + EDGE_FUNCTIONALS
    for f, got in zip(fs, eng.evaluate_columns(graph, [(f, model.n) for f in fs])):
        assert bits(got) == bits(reference_eval_sum(model, f, **opts))


LATTICE_OPTIONS = ({}, {"track_max": True}, {"masks": [(1, 3, 4)], "x_clip": 0.75},
                   {"masks": [(2, 3)], "track_max": True, "x_clip": 1.0})


@pytest.mark.parametrize("model", [QUARTER_TERMS, ONE_QUANTUM, NEGATIVE_ONLY, ZERO_ONLY],
                         ids=["gcd-of-1024-quanta", "one-quantum", "negative-only", "zero-only"])
@pytest.mark.parametrize("opts", LATTICE_OPTIONS, ids=["sum", "max", "clip", "clip-max"])
def test_lattice_units_build_the_reference_graph(model, opts):
    assert _lattice(model, **opts)
    assert_compiles_like_the_references(model, **opts)


def test_lattice_sums_count_in_units_of_the_gcd_of_the_terms():
    # terms are odd multiples of 1/4 up to 9/4: k coordinates span at most 18k + 1 quarters
    n = QUARTER_TERMS.n
    for opts in ({}, {"track_max": True}):
        bounds = _sum_bounds(QUARTER_TERMS, **opts)
        assert max(bounds) <= 18 * n + 1
    # a term of one quantum spans 2 * 4096 quanta from the first coordinate on
    assert max(_sum_bounds(ONE_QUANTUM)) > 2 * 4096
    # a clip level of 1/2 on integer terms halves the unit of every root of the graph
    iid = SequenceModel.iid(_quarter_set(), 4)
    assert max(_sum_bounds(iid)) <= 2 * 4 + 1
    assert max(_sum_bounds(iid, masks=[None, None], x_clip=[None, 0.5])) > 2 * 4 + 1


def test_lattice_roots_at_different_clip_levels_build_their_own_graphs():
    fs = (eng.square(), eng.ramp(0.5))
    masks = [None, (1, 3), None, (2, 4, 5)]
    for model in (QUARTER_TERMS, NEGATIVE_ONLY, SequenceModel.iid(_quarter_set(2.0), 5)):
        # every level is a multiple of 2^-12; on integer terms they lower the union's unit
        clips = [None, 0.75, 0.5, 0.25]
        assert _lattice(model, masks=masks, x_clip=clips)
        for track_max in (False, True):
            assert_roots_are_their_own_compiles(model, masks, clips, track_max, fs)


def test_the_lattice_bound_takes_each_draws_largest_term_over_its_roots():
    # each draw adds +-2^39 in the unclipped root and +-2^38 in the clipped
    # one: 3 * 2^39 < 2^41 bounds the sums of either root, though the two
    # tables' maxima add up to 4.5 * 2^39 > 2^41 over the 3 draws
    model = SequenceModel.iid(_quarter_set(2.0 ** 39), 3)
    masks, clips = [None, None], [None, 2.0 ** 38]
    assert _lattice(model, masks=masks, x_clip=clips)
    for track_max in (False, True):
        assert_roots_are_their_own_compiles(model, masks, clips, track_max,
                                            (eng.square(), eng.identity()))


@pytest.mark.parametrize("model",
                         [QUARTER_TERMS, NEGATIVE_ONLY, SequenceModel.iid(_quarter_set(), 3)],
                         ids=["window", "negative-only", "iid-quarters"])
def test_empty_masks_build_the_reference_graph(model):
    # a root whose mask is empty adds only zero tables, and every sum it reaches is 0
    assert set(_sum_bounds(model, masks=[[]])) <= {1}
    for track_max in (False, True):
        assert_compiles_like_the_references(model, masks=[[]], track_max=track_max)
        assert_roots_are_their_own_compiles(model, [None, []], [None, None], track_max,
                                            (eng.square(), eng.identity()))


#: Off the 2^-12 lattice: the union compiles on the float merge grid.
OFF_LATTICE_SET = sl.ambiguity([sl.DiscreteLaw((-1.7, 1.0 / 3.0, math.pi / 2.0), (0.25, 0.5, 0.25)),
                                sl.DiscreteLaw((-1.7, 0.9), (0.5, 0.5))])


@pytest.mark.parametrize("masks", [[(1,), (3,)], [(1, 2), ()], [(2,), (2, 4), ()]],
                         ids=["1-and-3", "1-2-and-empty", "2-and-2-4-and-empty"])
@pytest.mark.parametrize("model", [SequenceModel.iid(_quarter_set(), 4),
                                   SequenceModel.iid(OFF_LATTICE_SET, 4)],
                         ids=["lattice", "off-lattice"])
def test_a_draw_that_adds_in_no_root_builds_each_roots_own_graph(model, masks):
    # at m = 0, a draw completing a coordinate no mask holds adds the zero
    # table in every root; its layer merges like any other
    R = len(masks)
    draws = eng._draws(model, [frozenset(mask) for mask in masks], [None] * R)
    assert any(not terms.any() for _, terms in draws)
    fs = (eng.square(), eng.cosine())
    for clips in ([None] * R, [0.5] * R):
        for track_max in (False, True):
            assert_roots_are_their_own_compiles(model, masks, clips, track_max, fs)
        for mask, clip, res in zip(masks, clips, mask_sums(model, fs[1], masks, x_clip=clips)):
            assert bits(res) == bits(mask_sums(model, fs[1], [mask], x_clip=clip)[0])
            assert bits(res) == bits(reference_eval_sum(model, fs[1], masks=[mask], x_clip=clip))


@pytest.mark.parametrize("masks, clips", [([None], [None]), ([None, None], [None, 0.75]),
                                          ([(1, 3), None, ()], [0.5, None, 0.5])],
                         ids=["full", "full-and-clipped", "masks-and-clips"])
@pytest.mark.parametrize("model, on_lattice", [
    (QUARTER_TERMS, True),
    (SequenceModel.iid(_quarter_set(), 4), True),
    (SequenceModel.iid(OFF_LATTICE_SET, 4), False),
    (SequenceModel.moving_window(OFF_LATTICE_SET, (1.0, 0.5), 3), False),
], ids=["lattice-window", "lattice-iid", "off-lattice-iid", "off-lattice-window"])
def test_each_root_takes_its_clip_levels_table_where_its_mask_holds_the_coordinate(
        model, on_lattice, masks, clips):
    # terms[r] is root r's clip-level table where mask r holds the coordinate
    # the draw completes, and the draw's zero table everywhere else
    assert _lattice(model, masks=masks, x_clip=clips) == on_lattice
    draws = eng._draws(model, [None if mask is None else frozenset(mask) for mask in masks], clips)
    prepared = eng._support_columns(model.sets)
    assert len(draws) == len(prepared)
    shared = {}
    for step, ((laws, terms), (_, want_laws)) in enumerate(zip(draws, prepared), start=1):
        assert laws == want_laws
        supports = tuple(values for values, _ in prepared[max(step - 1 - model.m, 0):step])
        k = step - model.m
        adds = tuple(k >= 1 and (mask is None or k in mask) for mask in masks)
        zero = np.zeros((math.prod(map(len, supports[:-1])), len(supports[-1])))
        assert len(terms) == len(masks)
        for table, add, clip in zip(terms, adds, clips):
            want = eng._term_table(model, supports, clip) if add else zero
            assert table.tobytes() == want.tobytes()
        # draws of the same supports that add in the same roots share one stack
        assert shared.setdefault((supports, adds), terms) is terms


# ---------------------------------------------------------------------------
# Dense lattice layers
# ---------------------------------------------------------------------------

#: Weights that keep every term on the lattice; zero and negative entries
#: give zero and negative per-draw coefficients.
DENSE_WEIGHTS = (-1.0, 0.0, 0.5, 1.0, 2.0)

THREE_POINT = sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)])
#: A support with parity gaps: its sums after t draws are every other integer.
PLUS_MINUS = sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])
#: Terms 0, 2 and 3 halves: 1 half is in every range from one draw on, and never reached.
GAPPED = sl.ambiguity([sl.DiscreteLaw((0.0, 1.0, 1.5), (0.25, 0.5, 0.25)),
                       sl.DiscreteLaw((0.0, 1.0, 1.5), (0.5, 0.25, 0.25))])


@st.composite
def dense_models(draw) -> SequenceModel:
    """Lattice models: iid or windows of up to 3 weights, each draw one of up to 3 sets."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    weights = draw(st.lists(st.sampled_from(DENSE_WEIGHTS), min_size=m + 1, max_size=m + 1))
    pool = draw(st.lists(ambiguity_sets(LATTICE_POOL), min_size=1, max_size=3))
    sets = draw(st.lists(st.sampled_from(pool), min_size=n + m, max_size=n + m))
    return SequenceModel(sets, weights, draw(st.sampled_from((1.0, 0.5))))


def assert_dense_equals_the_graph(model: SequenceModel, upper: list, lower: list) -> None:
    """``sweep_columns`` of the dense layers and of the compiled graph, equal by ``float.hex``."""
    dense = eng.row_sums(model)
    assert isinstance(dense, eng.DenseSum)
    got = eng.sweep_columns(dense, upper, lower)
    want = eng.sweep_columns(eng.compile_sum(model), upper, lower)
    assert [hexes(side) for side in got] == [hexes(side) for side in want]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dense_models(), st.data())
def test_dense_layers_equal_the_graph_bit_for_bit(model, data):
    # upper and lower columns of the catalog at the full horizon and at prefixes M < n
    horizons = st.lists(st.integers(1, model.n), min_size=1, max_size=3)
    upper = [(f, M) for M in data.draw(horizons) for f in eng.catalog()]
    lower = [(f, M) for M in data.draw(horizons) for f in eng.catalog()]
    assert_dense_equals_the_graph(model, upper, lower)
    assert_dense_equals_the_graph(model, upper, [])


@pytest.mark.parametrize("weights", [(1.0, -1.0), (1.0, 0.0, 1.0), (0.0, 1.0), (0.0,)],
                         ids=["1,-1", "1,0,1", "0,1", "0"])
@pytest.mark.parametrize("set_", [THREE_POINT, PLUS_MINUS], ids=["three-point", "plus-minus"])
def test_zero_coefficients_keep_their_support_columns(weights, set_):
    # (1, -1) gives c = (1, 0, ..., 0, -1): a zero-coefficient draw keeps its
    # columns at shift 0, so each still adds 0.0 + p * value, as the graph does
    model = SequenceModel.moving_window(set_, weights, 6)
    dense = eng.row_sums(model)
    columns = [(f, M) for M in (1, 3, 6) for f in eng.catalog()]
    assert_dense_equals_the_graph(model, columns, columns)
    if weights == (1.0, -1.0):
        # in steps of 1 ({-1, 0, 1}) or 2 ({-1, 1}), each support spans 2
        width = len(set_.support) - 1
        assert [int(shift.max()) for shift in dense.shifts] == [width, 0, 0, 0, 0, 0, width]


@pytest.mark.parametrize("set_, step, size, reached", [
    # {-1, 1} in steps of 2: layer t holds the t + 1 sums reachable
    (PLUS_MINUS, 8192, lambda t: t + 1, lambda t: t + 1),
    # {0, 2, 3} halves in steps of 1 half: layer t >= 1 holds 3t + 1 offsets,
    # of which 1 half is unreachable
    (GAPPED, 2048, lambda t: 3 * t + 1, lambda t: 3 * t if t else 1),
], ids=["plus-minus", "gapped"])
def test_dense_ranges_count_in_steps_of_the_terms_differences(set_, step, size, reached):
    model = SequenceModel.iid(set_, 7)
    dense = eng.row_sums(model)
    assert dense.step == step and dense.sizes == tuple(size(t) for t in range(8))
    columns = [(f, M) for M in (2, 5, 7) for f in eng.catalog()]
    assert_dense_equals_the_graph(model, columns, columns)
    # the dense ranges are wider than the graph where an offset is unreachable;
    # the state counts are the graph's on both handles
    assert dense.states == tuple((reached(t),) for t in range(8))
    for (f, M), res, graph_res in zip(columns, eng.evaluate_columns(dense, columns),
                                      eng.evaluate_columns(eng.compile_sum(model), columns)):
        assert res.state_count == graph_res.state_count == sum(reached(t) for t in range(M + 1))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_dense_state_counts_are_the_layers_of_each_horizon(n):
    # stationary-1dep: c = (1, 2, ..., 2, 1) on {-1, 0, 1}, so S_M has
    # 1 + sum_{t=1..M} (4t - 1) + 4M + 1 = 2M^2 + 5M + 2 dense offsets, and
    # its graph 1 + 3 + sum_{t=2..M+1} 3 (4t - 5) = 6M^2 + 3M + 4 states:
    # each of 3 windows times the 4t - 5 sums of the draws before it; the
    # independent model has (M + 1)^2 of both
    window = SequenceModel.moving_window(THREE_POINT, (1.0, 1.0), n)
    iid = SequenceModel.iid(THREE_POINT, n)
    columns = [(eng.square(), M) for M in range(1, n + 1)]
    for model, offsets, states in (
            (window, lambda M: 2 * M * M + 5 * M + 2, lambda M: 6 * M * M + 3 * M + 4),
            (iid, lambda M: (M + 1) ** 2, lambda M: (M + 1) ** 2)):
        dense = eng.row_sums(model)
        assert sum(dense.sizes) == offsets(n)
        assert [sum(eng.row_sums(model.prefix(M)).sizes) for M in range(1, n + 1)] == [
            offsets(M) for M in range(1, n + 1)]
        found = eng.evaluate_columns(dense, columns)
        assert [res.state_count for res in found] == [states(M) for M in range(1, n + 1)]
        want = eng.evaluate_columns(eng.compile_sum(model), columns)
        assert [bits(r) for r in found] == [bits(r) for r in want]


def test_row_sums_compile_the_graph_off_the_lattice_and_for_clipped_roots():
    lattice = SequenceModel.moving_window(THREE_POINT, (1.0, 1.0), 4)
    assert isinstance(eng.row_sums(lattice), eng.DenseSum)
    for model, clips in ((lattice, [1.0]), (lattice, [None, 1.0]), (lattice, [None, None]),
                         (SequenceModel.iid(THREE_POINT, 4, scale=0.5 ** 0.5), [None]),
                         (SequenceModel.moving_window(THREE_POINT, (1.0, 0.7), 4), [None]),
                         (SequenceModel.iid(_quarter_set(2.0 ** 39), 5), [None])):
        sums = eng.row_sums(model, clips)
        assert isinstance(sums, eng.Graph) and len(sums.states[0]) == len(clips)
        assert_same_graph(sums, eng.compile_sum(model, masks=[None] * len(clips), x_clip=clips))


def test_a_window_term_that_is_not_the_sum_of_its_weights_terms_stays_on_the_graph(monkeypatch):
    # the dense layers are taken only where every term the graph builds is the
    # sum of its draws' terms of their weights; one quantum off moves the sum back
    model = SequenceModel.moving_window(THREE_POINT, (1.0, 1.0), 4)
    assert isinstance(eng.row_sums(model), eng.DenseSum)
    table = eng._term_table
    monkeypatch.setattr(eng, "_term_table", lambda *args: table(*args) + 1.0 / 4096.0)
    assert isinstance(eng.row_sums(model), eng.Graph)


def test_dense_preflight_refuses_an_over_cap_sum_before_any_layer(monkeypatch):
    model = SequenceModel.moving_window(THREE_POINT, (1.0, 1.0), 8)
    dense = eng.row_sums(model)
    total = sum(dense.sizes)
    assert total == 170
    swept = []  # one entry per draw swept
    back = eng._back
    monkeypatch.setattr(eng, "_back", lambda *args: swept.append(args[2]) or back(*args))
    # the refusal names the dense offsets it counts, not the graph states of a state_count
    needed = f"^dense lattice offset count {total} exceeds cap {total - 1}$"
    for build in (lambda cap: eng.row_sums(model, state_cap=cap),
                  lambda cap: cond.row_context(model, 8, M_grid=(4,), state_cap=cap)):
        with pytest.raises(StateCapError, match=needed) as err:
            build(total - 1)
        assert (err.value.count, err.value.cap, err.value.steps) == (total, total - 1, 9)
        assert err.value.layer_sizes == dense.sizes == (1, 3, 7, 11, 15, 19, 23, 27, 31, 33)
        assert swept == []
    sums, (ctx,) = cond.row_contexts(model, (8,), M_grids=[(4,)], state_cap=total)
    assert isinstance(sums, eng.DenseSum)
    assert len(swept) == 8 + 2  # the eight draws of the pass, and the one-draw tails of S_8 and S_4
    # the graph's states, counted and not built, exceed the cap the offsets fit
    assert ctx.m2.state_count == sum(map(len, eng.compile_sum(model).args)) == 6 * 8**2 + 3 * 8 + 4
    assert ctx.m2.state_count > total


def test_stationary_1dep_at_n_4096_fits_the_default_cap_as_dense_layers():
    # E[S_n^2] of the built-in family at scale 1 and n = 4096 sweeps 2n^2 + 5n + 2
    # dense offsets, under the default cap, for a graph of 6n^2 + 3n + 4 states
    # above it; no sweep is run here
    dense = eng.row_sums(BUILDERS["stationary-1dep"](4096))
    assert isinstance(dense, eng.DenseSum)
    assert sum(dense.sizes) == 2 * 4096**2 + 5 * 4096 + 2 == 33_574_914
    assert sum(dense.sizes) < eng.DEFAULT_STATE_CAP
    assert sum(count for (count,) in dense.states) == 6 * 4096**2 + 3 * 4096 + 4 == 100_675_588


#: A support with gaps wider than its step: at n = 10 the iid sum reaches
#: 230 of the 286 offsets of its dense ranges.
GAP_POOL = (0.0, 3.0, 5.0)


@st.composite
def counted_models(draw) -> SequenceModel:
    """``dense_models``, or gapped supports under windows with zero weights."""
    if draw(st.booleans()):
        return draw(dense_models())
    n = draw(st.integers(1, 8))
    weights = draw(st.sampled_from([(1.0,), (0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0), (2.0, -1.0)]))
    pool = draw(st.lists(ambiguity_sets(GAP_POOL), min_size=1, max_size=3))
    sets = draw(st.lists(st.sampled_from(pool), min_size=n + len(weights) - 1,
                         max_size=n + len(weights) - 1))
    return SequenceModel(sets, weights)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(counted_models(), st.data())
def test_dense_sums_count_the_graphs_states_layer_by_layer(model, data):
    dense, graph = eng.row_sums(model), eng.compile_sum(model)
    assert isinstance(dense, eng.DenseSum)
    assert dense.states == graph.states == tuple((len(arg),) for arg in graph.args)
    horizons = data.draw(st.lists(st.integers(1, model.n), min_size=1, max_size=4))
    columns = [(f, M) for M in horizons for f in (eng.square(), eng.cosine())]
    got, want = eng.evaluate_columns(dense, columns), eng.evaluate_columns(graph, columns)
    assert [res.state_count for res in got] == [res.state_count for res in want]
    assert [bits(res) for res in got] == [bits(res) for res in want]


def test_a_cap_between_the_dense_offsets_and_the_graph_states_refuses_the_dense_sum():
    # at m = 0 a gapped support leaves offsets of its dense ranges unreached,
    # so its dense layers need more than the graph's states
    model = SequenceModel.iid(sl.ambiguity([sl.DiscreteLaw(GAP_POOL, (0.25, 0.25, 0.5))]), 10)
    dense, graph = eng.row_sums(model), eng.compile_sum(model)
    assert (sum(dense.sizes), *np.sum(dense.states, axis=0), sum(map(len, graph.args))) == (
        286, 230, 230)
    (res,) = eng.evaluate_columns(dense, [(eng.square(), 10)])
    assert res.state_count == 230
    eng.compile_sum(model, state_cap=250)
    with pytest.raises(StateCapError, match="^dense lattice offset count 286 exceeds cap 250$"):
        eng.row_sums(model, state_cap=250)
