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
marginals, gives what a per-case compile of ``model.prefix(n)`` gives.
``eval_sums``, which compiles several masks into one graph with a root
each, gives for every mask what a one-mask compile and the dict DP give for
that mask alone, bit for bit and in state count.  With one clip level per root
(mixed with masks), the states reachable from each root are, array for
array, that root's own compile, on the lattice path, on the float path, and
when one off-lattice level moves the whole graph onto the float path, and
every prefix column of every root is that root's prefix compile.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sublexp as sl
import sublexp.engine as eng
import sublexp.mdep as mdep
from sublexp.engine import SequenceModel
from sublexp.errors import StateCapError, ValidationError

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
    steps: list[eng._Step] = []
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
        steps.append(eng._Step(
            np.array(child, dtype=np.int32).reshape(len(layer), len(values)), laws))
        layer = list(nxt)
        args.append(np.array([state[-1] for state in layer], dtype=float))
    return eng.Graph(tuple(steps), tuple(args), len(model.sets) - model.n)


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
    """Array-equal graphs: child indices, laws, payoff-argument bytes and lead."""
    assert got.lead == want.lead
    assert len(got.steps) == len(want.steps) and len(got.args) == len(want.args)
    for g, w in zip(got.steps, want.steps):
        assert g.child.dtype == w.child.dtype and g.child.shape == w.child.shape
        assert np.array_equal(g.child, w.child)
        assert g.laws == w.laws
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
    """Whether ``compile_sum`` takes the integer-key path for ``model`` and ``opts``."""
    (mask,) = opts.get("masks", [None])
    draws = eng._draws(model, [None if mask is None else frozenset(mask)], [opts.get("x_clip")])
    return eng._on_lattice(table for _, _, groups in draws for table, _ in groups)


def _quarter_set(top: float = 1.0) -> sl.AmbiguitySet:
    """Supports and weights on multiples of 0.25 (of ``top``), as in the Rosenthal battery."""
    return sl.ambiguity([sl.DiscreteLaw((-top, 0.0, top), (0.25, 0.5, 0.25)),
                         sl.DiscreteLaw((-top, top), (0.25, 0.75))])


def test_lattice_predicate_takes_multiples_of_2_to_the_minus_12_below_2_to_the_41():
    q = 2.0 ** -12
    assert eng._on_lattice([np.array([[-3 * q, 0.0, 5 * q]])])
    assert eng._on_lattice([np.array([[q]])] * 3)
    assert not eng._on_lattice([np.array([[q / 2.0, q]])])
    assert not eng._on_lattice([np.array([[math.inf]])])
    # the terms' largest magnitudes add up below 2^41, counted once per draw
    assert eng._on_lattice([np.array([[2.0 ** 41 - q]])])
    assert not eng._on_lattice([np.array([[-2.0 ** 41]])])
    big = np.array([[2.0 ** 39]])
    assert eng._on_lattice([big] * 3) and not eng._on_lattice([big] * 4)

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


def test_state_cap_trips_at_the_reference_total():
    iid = SequenceModel.iid(sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)]), 6)
    window = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 0.5), 5)
    for model, opts in ((iid, {}), (window, {"track_max": True})):
        total = reference_eval_sum(model, eng.square(), **opts).state_count
        (got,) = eng.eval_sums(model, eng.square(), [None], state_cap=total, **opts)
        assert got.state_count == total
        for cap in (total - 1, 5, 1):
            with pytest.raises(StateCapError) as want:
                reference_eval_sum(model, eng.square(), state_cap=cap, **opts)
            with pytest.raises(StateCapError) as want_graph:
                reference_compile_sum(model, state_cap=cap, **opts)
            with pytest.raises(StateCapError) as got:
                eng.eval_sums(model, eng.square(), [None], state_cap=cap, **opts)
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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(marginal_models(), st.data())
def test_rosenthal_checks_equal_per_case_prefix_compiles(model, data):
    cases = data.draw(st.lists(
        st.tuples(st.integers(1, model.n), st.sampled_from((2.0, 2.5, 3.0, 4.0))),
        min_size=1, max_size=6))
    try:
        want = tuple(reference_rosenthal(model, n, p) for n, p in cases)
    except ValidationError:
        with pytest.raises(ValidationError):
            mdep.rosenthal_checks(model, cases)
        return
    assert mdep.rosenthal_checks(model, cases) == want


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


def test_eval_sums_equal_eval_sum_per_mask_and_the_dict_dp():
    # every root of a union graph is what a one-mask graph and the dict DP give
    rng = random.Random(20261018)
    for _ in range(120):
        model = random_model(rng, max_n=5)
        masks = _mask_lists(rng, model.n)
        opts = {"x_clip": rng.choice((None, 0.25, 0.8, 1.5)),
                "track_max": rng.random() < 0.25}
        f = rng.choice(FUNCTIONALS + EDGE_FUNCTIONALS)
        got = eng.eval_sums(model, f, masks, **opts)
        assert len(got) == len(masks)
        for mask, res in zip(masks, got):
            assert bits(res) == bits(eng.eval_sums(model, f, [mask], **opts)[0])
            assert bits(res) == bits(reference_eval_sum(model, f, masks=[mask], **opts))
            assert_same_graph(eng.compile_sum(model, masks=[mask], **opts),
                              reference_compile_sum(model, masks=[mask], **opts))
        union = eng.compile_sum(model, masks=masks, **opts)
        assert len(union.args[0]) == len(masks)  # one root per mask
        assert sum(map(len, union.args)) == sum(res.state_count for res in got)
    assert eng.eval_sums(model, eng.square(), []) == ()


def test_union_off_the_lattice_builds_each_masks_own_graph():
    # each mask alone sums at most 3 terms of 2^39, on the lattice; together
    # the masks add at all 5 draws, past 2^41, so the union takes the float grid
    model = SequenceModel.iid(_quarter_set(2.0 ** 39), 5)
    masks = [(1, 2, 5), (3, 4)]
    assert all(_lattice(model, masks=[mask]) for mask in masks)
    assert not _lattice(model)
    for f in (eng.square(), eng.identity()):
        for mask, res in zip(masks, eng.eval_sums(model, f, masks)):
            assert bits(res) == bits(reference_eval_sum(model, f, masks=[mask]))


def test_state_cap_bounds_the_union_of_masks():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 0.5), 6)
    masks = [(1, 2, 3), (4, 5, 6), (2, 5)]
    counts = [eng.eval_sums(model, eng.square(), [mask])[0].state_count for mask in masks]
    total = sum(counts)
    got = eng.eval_sums(model, eng.square(), masks, state_cap=total)
    assert [res.state_count for res in got] == counts
    for mask in masks:  # each mask alone fits under the largest count
        eng.eval_sums(model, eng.square(), [mask], state_cap=max(counts))
    for cap in (max(counts), total - 1):
        with pytest.raises(StateCapError) as err:
            eng.eval_sums(model, eng.square(), masks, state_cap=cap)
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
    if union.sizes is None:
        return union
    starts = np.hstack([np.zeros((len(union.sizes), 1), dtype=np.int64),
                        np.cumsum(union.sizes, axis=1)])
    steps = tuple(
        eng._Step((st.child[starts[t, r]:starts[t, r + 1]] - starts[t + 1, r]).astype(np.int32),
                  st.laws)
        for t, st in enumerate(union.steps))
    args = tuple(arg[starts[t, r]:starts[t, r + 1]] for t, arg in enumerate(union.args))
    return eng.Graph(steps, args, union.lead)


def _union_on_lattice(model: SequenceModel, masks: list, clips: list) -> bool:
    masks = [None if mask is None else frozenset(mask) for mask in masks]
    draws = eng._draws(model, masks, clips)
    return eng._on_lattice(table for _, _, groups in draws for table, _ in groups)


def assert_roots_are_their_own_compiles(model: SequenceModel, masks: list, clips: list,
                                        track_max: bool, fs) -> None:
    union = eng.compile_sum(model, masks=masks, x_clip=clips, track_max=track_max)
    assert union.roots == len(masks)
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
    # eval_sums gives each root what it gives that root alone
    for mask, clip, res in zip(masks, clips, eng.eval_sums(model, fs[0], masks, x_clip=clips)):
        assert bits(res) == bits(eng.eval_sums(model, fs[0], [mask], x_clip=clip)[0])


def test_one_off_lattice_level_moves_the_whole_graph_onto_the_float_grid():
    window = SequenceModel.moving_window(_quarter_set(), (1.0, 0.5), 5)
    iid = SequenceModel.iid(_quarter_set(), 4)
    fs = (eng.square(), eng.ramp(0.5))
    for model in (window, iid):
        masks = [None, None, (1, 3)]
        on = [None, 0.25, 0.75]
        off = [None, 0.3, 0.75]  # 0.3 is no multiple of 2^-12
        assert _union_on_lattice(model, masks, on)
        assert not _union_on_lattice(model, masks, off)
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
    got = eng.eval_sums(model, eng.square(), masks, x_clip=clips, state_cap=total)
    assert [res.state_count for res in got] == counts
    for cap in (max(counts), total - 1):
        with pytest.raises(StateCapError) as err:
            eng.eval_sums(model, eng.square(), masks, x_clip=clips, state_cap=cap)
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
        assert _union_on_lattice(model, masks, clips)
        for track_max in (False, True):
            assert_roots_are_their_own_compiles(model, masks, clips, track_max, fs)


@pytest.mark.parametrize("model",
                         [QUARTER_TERMS, NEGATIVE_ONLY, SequenceModel.iid(_quarter_set(), 3)],
                         ids=["window", "negative-only", "iid-quarters"])
def test_empty_masks_build_the_reference_graph(model):
    # a root whose mask is empty adds no term table, and every sum it reaches is 0
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
    # at m = 0, a draw completing a coordinate no mask holds adds no term
    # table in any root; its layer merges like any other
    R = len(masks)
    draws = eng._draws(model, [frozenset(mask) for mask in masks], [None] * R)
    assert any(not groups for _, _, groups in draws)
    fs = (eng.square(), eng.cosine())
    for clips in ([None] * R, [0.5] * R):
        for track_max in (False, True):
            assert_roots_are_their_own_compiles(model, masks, clips, track_max, fs)
        for mask, clip, res in zip(masks, clips, eng.eval_sums(model, fs[1], masks, x_clip=clips)):
            assert bits(res) == bits(eng.eval_sums(model, fs[1], [mask], x_clip=clip)[0])
            assert bits(res) == bits(reference_eval_sum(model, fs[1], masks=[mask], x_clip=clip))
