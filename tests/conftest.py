"""Shared model builders for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import sublexp as sl
import sublexp.engine as eng
import sublexp.gnormal as gn


def pm1_uncertain() -> sl.AmbiguitySet:
    """The mean-uncertain two-point set p(X=1) in {0.4, 0.6}."""
    return sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])


def variance_uncertain() -> sl.AmbiguitySet:
    """Certain-zero-mean innovations with E[x^2] in {0.49, 1}."""
    return sl.ambiguity([sl.centered_three_point_law(0.49), sl.centered_three_point_law(1.0)])


def stationary_1dep(n: int) -> sl.SequenceModel:
    return sl.SequenceModel.moving_window(variance_uncertain(), (1.0, 1.0), n)


def certain_pm1_iid(n: int, scale: float = 1.0) -> sl.SequenceModel:
    return sl.SequenceModel.iid(sl.singleton(sl.two_point_law(1.0)), n, scale)


_LAW_POOL_VALUES = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def random_law(rng: random.Random, max_support: int = 3) -> sl.DiscreteLaw:
    k = rng.randint(1, max_support)
    values = sorted(rng.sample(_LAW_POOL_VALUES, k))
    weights = [rng.randint(1, 4) for _ in range(k)]
    total = sum(weights)
    return sl.DiscreteLaw(tuple(values), tuple(w / total for w in weights))


def random_set(rng: random.Random, max_laws: int = 3, max_support: int = 3) -> sl.AmbiguitySet:
    return sl.ambiguity(random_law(rng, max_support) for _ in range(rng.randint(1, max_laws)))


def random_model(rng: random.Random, max_n: int = 4) -> sl.SequenceModel:
    n = rng.randint(1, max_n)
    scale = rng.choice((1.0, 0.5, 1.0 / math.sqrt(n)))
    if rng.random() < 0.5:
        sets = tuple(random_set(rng) for _ in range(n))
        return sl.SequenceModel(sets, scale=scale)
    m = rng.randint(0, 2)
    weights = tuple(rng.choice((-1.0, 0.5, 1.0)) for _ in range(m + 1))
    return sl.SequenceModel.moving_window(random_set(rng), weights, n, scale)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(90210)


TEST_FUNCTIONALS = (
    eng.square(),
    eng.identity(),
    eng.cosine(),
    eng.ramp(0.0),
    eng.ramp(0.5),
)


#: The engine entry points ``engine_calls`` spies on.
SPIED = ("compile_sum", "sweep_columns", "window_columns")


@pytest.fixture
def engine_calls(monkeypatch) -> dict[str, list[dict]]:
    """The keyword arguments of every call one test makes to each of ``SPIED``, in order.

    ``len(engine_calls["compile_sum"])`` counts compiles.  Every call goes
    through to the engine, and the functions are restored after the test.
    """
    calls: dict[str, list[dict]] = {name: [] for name in SPIED}
    for name, seen in calls.items():
        def spy(*args, _fn=getattr(eng, name), _seen=seen, **kwargs):
            _seen.append(kwargs)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(eng, name, spy)
    return calls


def count_step_widths(monkeypatch, nx: int) -> list[int]:
    """The number of columns ``solve_gheats`` steps at each step of every call at ``nx``.

    A counting proxy stands in for numpy inside ``gnormal`` until
    ``monkeypatch`` undoes it.  Its ``subtract`` runs once per step, on
    ``d2``, which holds one value per interior node of each live column.
    """
    widths: list[int] = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def subtract(a, b, out):
            widths.append(out.size // (nx - 2))
            return np.subtract(a, b, out)

    monkeypatch.setattr(gn, "np", CountingNumpy())
    return widths
