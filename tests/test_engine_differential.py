"""Differential test: ``eval_sum`` against the original dict DP, exactly.

``reference_compile_sum`` is the per-state forward loop ``compile_sum`` ran
before layers became arrays; ``compile_sum`` must build the same graph as
it, array for array, and ``_canon_array`` must round every float the way
the scalar ``round(x, 12) + 0.0`` does, bit for bit.

``reference_eval_sum`` is the layered dynamic program ``eval_sum`` used
before the compiled graph: a forward pass that lists the reachable states of
every layer and a backward pass over dicts that recomputes every transition.
The compiled engine must give the same floats bit for bit, and the same
state count, on generated small models.  Where the policy-enumeration oracle
applies, the engine must also agree with it to 1e-12, plus what the 1e-12
merge grid can move when the scaled supports sit off it.  The four axioms of
a sub-linear expectation are checked on sums as well.

The shortcuts callers take are held to the same exactness: one compiled
graph evaluated for several functionals, in either order, gives what
separate ``eval_sum`` calls give; a row graph's ``prefix(M)`` gives what a
compile of ``model.prefix(M)`` gives; ``marginals`` gives what the per-index
``eval_index`` loop gives, on iid, moving-window and unequal-set models, and
the summation helpers add those values left to right from 0.0.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sublexp as sl
import sublexp.engine as eng
from sublexp.engine import KIND_INDEPENDENT, KIND_MOVING_WINDOW, SequenceModel
from sublexp.errors import StateCapError, ValidationError

# ---------------------------------------------------------------------------
# Reference: the original dict DP
# ---------------------------------------------------------------------------

_KEY_DECIMALS = 12


def _canon(x: float) -> float:
    """Round onto the 1e-12 merge grid and normalize -0.0."""
    return round(x, _KEY_DECIMALS) + 0.0


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
    if model.kind == KIND_MOVING_WINDOW and m > 0:
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
    for step in range(1, model.steps + 1):
        set_ = model.set_at(step)
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
    for step in range(model.steps, 0, -1):
        set_ = model.set_at(step)
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
    indices=None,
    x_clip: float | None = None,
    track_max: bool = False,
    state_cap: int = eng.DEFAULT_STATE_CAP,
) -> eng.EvalResult:
    mask = None if indices is None else frozenset(indices)
    layers = _forward_layers(model, mask, x_clip, track_max, state_cap)

    def payoff(state: tuple[float, ...]) -> float:
        return f.phi(state[-1])

    upper, lower = _backward_values(model, layers, payoff, mask, x_clip, track_max)
    return eng.EvalResult(upper, lower, sum(len(layer) for layer in layers))


def reference_compile_sum(
    model: SequenceModel,
    *,
    indices=None,
    x_clip: float | None = None,
    track_max: bool = False,
    state_cap: int = eng.DEFAULT_STATE_CAP,
) -> eng.Graph:
    """The per-state forward loop: a dict per layer, keyed by state tuples."""
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
    steps: list[eng._Step] = []
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
        steps.append(eng._Step(
            np.array(child, dtype=np.int32).reshape(len(layer), len(values)), laws))
        layer = list(nxt)
        args.append(np.array([state[-1] for state in layer], dtype=float))
    return eng.Graph(tuple(steps), tuple(args), model.steps - model.n)


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
        return SequenceModel.independent(sets, scale)
    m = draw(st.integers(0, 2))
    weights = draw(st.lists(st.sampled_from((-1.0, 0.5, 1.0, 0.7)),
                            min_size=m + 1, max_size=m + 1))
    return SequenceModel.moving_window(draw(ambiguity_sets(pool)), weights, n, scale)


FUNCTIONALS = (
    eng.square(),
    eng.identity(),
    eng.cosine(),
    eng.ramp(0.0),
    eng.ramp(0.5),
    eng.abs_power(3.0),
    eng.neg_square(),
)


@st.composite
def options(draw, model: SequenceModel) -> dict:
    opts: dict = {}
    if draw(st.booleans()):
        opts["indices"] = draw(st.sets(st.integers(1, model.n)))
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
    "neg_square": lambda R: 2.0 * R,
    "identity": lambda R: 1.0,
    "cos": lambda R: 1.0,
    "ramp@0": lambda R: 1.0,
    "ramp@0.5": lambda R: 1.0,
    "abspow@3": lambda R: 3.0 * R * R,
}


def _oracle_applies(model: SequenceModel, opts: dict) -> bool:
    """No mask, clip or running max, and few enough histories to enumerate."""
    paths = math.prod(len(model.set_at(t).support) for t in range(1, model.steps + 1))
    return not opts and paths <= ORACLE_PATHS


def _grid_error(model: SequenceModel, f: eng.Functional) -> float:
    """How far the 1e-12 merge grid can move the DP's value away from the oracle's.

    When every product weight x support point x scale is a multiple of 1/64,
    all partial sums are exact and the merge grid moves nothing.  Otherwise
    each completed coordinate rounds the partial sum by at most 5e-13, and
    phi turns the total into at most its Lipschitz constant on the reachable
    range times that.
    """
    weights = model.weights or (1.0,)
    supports = {v for t in range(1, model.steps + 1) for v in model.set_at(t).support}
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
    got = eng.eval_sum(model, f, **opts)
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
    for f in (eng.square(), eng.cosine(), eng.ramp(0.5)):
        got = eng.eval_sum(model, f)
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
    if iid and model.kind == KIND_INDEPENDENT:
        model = SequenceModel.iid(model.sets[0], model.n, model.scale)
    want = reference_compile_sum(model, **opts)
    assert_same_graph(eng.compile_sum(model, **opts), want)
    # renumbering the packed key before every pack changes no state and no order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "_PACK_LIMIT", 2)
        assert_same_graph(eng.compile_sum(model, **opts), want)


def test_reference_and_engine_agree_on_the_flagship_model():
    model = SequenceModel.moving_window(
        sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)]),
        (1.0, 1.0), 8, scale=1.0 / math.sqrt(8))
    for opts in ({}, {"track_max": True}, {"x_clip": 0.5, "indices": (1, 2, 5, 8)}):
        assert_same_graph(eng.compile_sum(model, **opts), reference_compile_sum(model, **opts))
        for f in FUNCTIONALS:
            got = eng.eval_sum(model, f, **opts)
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
        assert eng.eval_sum(model, eng.square(), state_cap=total, **opts).state_count == total
        for cap in (total - 1, 5, 1):
            with pytest.raises(StateCapError) as want:
                reference_eval_sum(model, eng.square(), state_cap=cap, **opts)
            with pytest.raises(StateCapError) as want_graph:
                reference_compile_sum(model, state_cap=cap, **opts)
            with pytest.raises(StateCapError) as got:
                eng.eval_sum(model, eng.square(), state_cap=cap, **opts)
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

    got = eng.evaluate(graph, eng.Functional("square", phi, eng.GROWTH_QUADRATIC))
    assert sorted(seen) == sorted(set(graph.args[-1].tolist()))
    assert len(seen) < len(graph.args[-1])
    want = reference_eval_sum(model, eng.square(), track_max=True)
    assert (got.upper, got.lower, got.state_count) == (want.upper, want.lower, want.state_count)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(models(), st.sampled_from(FUNCTIONALS), st.sampled_from(FUNCTIONALS),
       st.sampled_from((-1.5, 0.0, 2.0)), st.sampled_from((0.0, 0.5, 3.0)))
def test_sublinear_axioms_hold_on_sums(model, f, g, c, lam):
    def upper(phi: Callable[[float], float]) -> float:
        return eng.eval_sum(model, eng.Functional("h", phi, eng.GROWTH_QUADRATIC)).upper

    def le(a: float, b: float) -> bool:
        return a <= b + 1e-12 * max(1.0, abs(a), abs(b))

    def eq(a: float, b: float) -> bool:
        return le(a, b) and le(b, a)

    res = eng.eval_sum(model, f)
    up_f, up_g = res.upper, upper(g.phi)
    assert le(up_f, upper(lambda s: f.phi(s) + abs(g.phi(s))))       # monotonicity
    assert eq(upper(lambda s: c), c)                                  # constants
    assert eq(upper(lambda s: f.phi(s) + c), up_f + c)                # translation
    assert le(upper(lambda s: f.phi(s) + g.phi(s)), up_f + up_g)      # sub-additivity
    assert eq(upper(lambda s: lam * f.phi(s)), lam * up_f)            # homogeneity
    assert res.lower == -eng.eval_sum(model, eng.negated(f)).upper   # conjugacy, exact


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

    The per-k reference for ``marginals``: one ``eval_window`` call per index
    and bound, with no same-law shortcut.
    """
    up = eng.eval_window(model, (k,), lambda xs: phi(xs[0]), x_clip=x_clip)
    lo = eng.eval_window(model, (k,), lambda xs: phi(xs[0]), x_clip=x_clip, lower=True)
    return up, lo


@st.composite
def marginal_models(draw) -> SequenceModel:
    """``models()``, with half of the independent ones made iid (equal sets)."""
    model = draw(models())
    if model.kind == KIND_INDEPENDENT and draw(st.booleans()):
        return SequenceModel.iid(model.sets[0], model.n, model.scale)
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
    got = eng.marginals(model, phi, lower=lower, x_clip=x_clip)
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
    assert eng.mean_spread(model, x_clip=x_clip) == spread


def test_ordered_sum_adds_left_to_right():
    # compensated summation (builtin sum from Python 3.12 on) gives 1.0 here
    assert eng.ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert eng.ordered_sum(x for x in ()) == 0.0


def test_marginals_evaluate_one_index_only_under_one_law(monkeypatch):
    calls: list[tuple[int, ...]] = []
    window = eng.eval_window

    def counting(model, indices, psi, **kwargs):
        calls.append(tuple(indices))
        return window(model, indices, psi, **kwargs)

    monkeypatch.setattr(eng, "eval_window", counting)
    a = sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)])
    b = sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])
    for model, expected in (
        (SequenceModel.iid(a, 5), [(1,)]),
        (SequenceModel.moving_window(a, (1.0, 0.5), 5), [(1,)]),
        (SequenceModel.independent((a, b, a, b, a)), [(1,), (2,), (3,), (4,), (5,)]),
    ):
        calls.clear()
        assert len(eng.marginals(model, lambda x: x * x, lower=True)) == 5
        assert calls == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases())
def test_one_graph_serves_many_functionals_in_any_order(case):
    model, _, opts = case
    graph = eng.compile_sum(model, **opts)
    want = [eng.eval_sum(model, f, **opts) for f in FUNCTIONALS]
    # evaluate only reads the graph: reversing the order changes nothing
    assert [eng.evaluate(graph, f) for f in FUNCTIONALS] == want
    assert [eng.evaluate(graph, f) for f in reversed(FUNCTIONALS)] == want[::-1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases())
def test_prefix_graph_equals_the_prefix_compile(case):
    model, f, opts = case
    graph = eng.compile_sum(model, **opts)
    mask = opts.get("indices")
    for M in range(1, model.n + 1):
        # the prefix model takes the part of the mask within 1..M
        sub = opts if mask is None else {**opts, "indices": {k for k in mask if k <= M}}
        got = eng.evaluate(graph.prefix(M), f)
        want = eng.evaluate(eng.compile_sum(model.prefix(M), **sub), f)
        assert (got.upper, got.lower, got.state_count) == (
            want.upper, want.lower, want.state_count)
    for M in (0, model.n + 1):
        with pytest.raises(ValidationError):
            graph.prefix(M)
