"""Single-variable sub-linear calculus: examples, axioms, capacities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sublexp as sl
from sublexp.errors import ValidationError

TOL = 1e-12


def pm1_uncertain() -> sl.AmbiguitySet:
    return sl.ambiguity([sl.bernoulli_pm1(0.4), sl.bernoulli_pm1(0.6)])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_law_rejects_bad_prob_sum():
    with pytest.raises(ValidationError):
        sl.DiscreteLaw((0.0, 1.0), (0.4, 0.5))


def test_law_renormalizes_tiny_drift():
    law = sl.DiscreteLaw((0.0, 1.0), (0.5, 0.5 + 5e-13))
    assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-15)


def test_law_rejects_unsorted_support():
    with pytest.raises(ValidationError):
        sl.DiscreteLaw((1.0, 0.0), (0.5, 0.5))
    with pytest.raises(ValidationError):
        sl.DiscreteLaw((1.0, 1.0), (0.5, 0.5))


def test_empty_ambiguity_set_rejected():
    with pytest.raises(ValidationError):
        sl.AmbiguitySet(())


# ---------------------------------------------------------------------------
# Upper/lower expectation examples
# ---------------------------------------------------------------------------


def test_singleton_square_is_classical():
    set_ = sl.singleton(sl.two_point_law(1.0))
    assert sl.upper_expect(set_, lambda x: x * x) == pytest.approx(1.0, abs=TOL)


def test_mean_uncertain_upper_and_lower():
    set_ = pm1_uncertain()
    # max over the two laws of 2p - 1
    assert sl.upper_expect(set_, lambda x: x) == pytest.approx(0.2, abs=TOL)
    assert sl.lower_expect(set_, lambda x: x) == pytest.approx(-0.2, abs=TOL)


def test_constant_preserving():
    set_ = pm1_uncertain()
    assert sl.upper_expect(set_, lambda x: 3.25) == pytest.approx(3.25, abs=TOL)


def test_singleton_upper_equals_lower():
    set_ = sl.singleton(sl.bernoulli_pm1(0.3))
    for phi in (lambda x: x, lambda x: x * x, math.cos):
        assert sl.upper_expect(set_, phi) == pytest.approx(sl.lower_expect(set_, phi), abs=TOL)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def test_truncate_clamps_support():
    set_ = sl.singleton(sl.DiscreteLaw((-3.0, 1.0), (0.5, 0.5)))
    out = sl.truncate(set_, 2.0)
    assert out.laws[0].values == (-2.0, 1.0)
    assert out.laws[0].probs == (0.5, 0.5)


def test_truncate_identity_when_wide():
    set_ = pm1_uncertain()
    out = sl.truncate(set_, 5.0)
    assert out == set_


def test_truncate_merges_masses():
    set_ = sl.singleton(sl.DiscreteLaw((-3.0, -2.5, 4.0), (0.25, 0.25, 0.5)))
    out = sl.truncate(set_, 2.5)
    assert out.laws[0].values == (-2.5, 2.5)
    assert out.laws[0].probs == (0.5, 0.5)


def test_truncate_rejects_nonpositive_level():
    with pytest.raises(ValidationError):
        sl.truncate(pm1_uncertain(), 0.0)


def test_truncate_idempotent_and_monotone_in_c():
    set_ = sl.singleton(sl.DiscreteLaw((-3.0, -1.0, 2.0, 5.0), (0.25, 0.25, 0.25, 0.25)))
    once = sl.truncate(set_, 1.5)
    assert sl.truncate(once, 1.5) == once
    prev = -math.inf
    for c in (0.5, 1.0, 2.0, 3.0, 5.0, 6.0):
        m2 = sl.moments(sl.truncate(set_, c)).upper_m2
        assert m2 >= prev - TOL
        prev = m2


# ---------------------------------------------------------------------------
# Capacities
# ---------------------------------------------------------------------------


def test_capacity_two_law_example():
    set_ = pm1_uncertain()
    event = sl.Event("ge", 1.0)
    assert sl.upper_capacity(set_, event) == pytest.approx(0.6, abs=TOL)
    assert sl.lower_capacity(set_, event) == pytest.approx(0.4, abs=TOL)


def test_capacity_certain_event():
    set_ = pm1_uncertain()
    assert sl.upper_capacity(set_, sl.Event("ge", -1.0)) == pytest.approx(1.0, abs=TOL)
    assert sl.lower_capacity(set_, sl.Event("ge", -1.0)) == pytest.approx(1.0, abs=TOL)


def test_capacity_singleton_is_classical():
    law = sl.DiscreteLaw((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3))
    set_ = sl.singleton(law)
    assert sl.upper_capacity(set_, sl.Event("gt", 0.0)) == pytest.approx(0.3, abs=TOL)
    assert sl.upper_capacity(set_, sl.Event("abs_gt", 0.5)) == pytest.approx(0.5, abs=TOL)


def test_capacity_monotone_and_subadditive():
    set_ = sl.ambiguity([sl.DiscreteLaw((-2.0, 0.0, 1.0), (0.3, 0.4, 0.3)),
                         sl.DiscreteLaw((-2.0, 0.0, 1.0), (0.1, 0.6, 0.3))])
    # {X >= a} shrinks as a grows
    prev = 1.0
    for a in (-3.0, -1.0, 0.0, 0.5, 2.0):
        v = sl.upper_capacity(set_, sl.Event("ge", a))
        assert v <= prev + TOL
        prev = v
    # union of thresholds: {X >= a} u {X >= b} = {X >= min(a,b)}
    for a, b in ((-1.0, 0.5), (0.0, 1.0)):
        union = sl.upper_capacity(set_, sl.Event("ge", min(a, b)))
        va = sl.upper_capacity(set_, sl.Event("ge", a))
        vb = sl.upper_capacity(set_, sl.Event("ge", b))
        assert union <= va + vb + TOL
        lower_union = sl.lower_capacity(set_, sl.Event("ge", min(a, b)))
        assert lower_union <= sl.lower_capacity(set_, sl.Event("ge", a)) + vb + TOL


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_moments_two_point():
    ms = sl.moments(sl.singleton(sl.two_point_law(1.0)))
    assert ms.upper_m2 == ms.lower_m2 == pytest.approx(1.0, abs=TOL)
    assert ms.upper_mean == ms.lower_mean == pytest.approx(0.0, abs=TOL)


def test_moments_variance_interval():
    set_ = sl.ambiguity([sl.two_point_law(0.7), sl.two_point_law(1.0)])
    ms = sl.moments(set_)
    assert ms.upper_m2 == pytest.approx(1.0, abs=TOL)
    assert ms.lower_m2 == pytest.approx(0.49, abs=TOL)
    assert ms.upper_mean == ms.lower_mean == pytest.approx(0.0, abs=TOL)


def test_moments_fourth_power():
    ms = sl.moments(sl.singleton(sl.two_point_law(1.0)), p=4.0)
    assert ms.upper_abs_p == pytest.approx(1.0, abs=TOL)


def test_moments_rejects_small_p():
    with pytest.raises(ValidationError):
        sl.moments(pm1_uncertain(), p=1.5)


# ---------------------------------------------------------------------------
# Axiom suite (property-based)
# ---------------------------------------------------------------------------

_vals = st.lists(
    st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]),
    min_size=1, max_size=4, unique=True,
).map(sorted)


@st.composite
def ambiguity_sets(draw) -> sl.AmbiguitySet:
    values = tuple(draw(_vals))
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
        total = sum(weights)
        laws.append(sl.DiscreteLaw(values, tuple(w / total for w in weights)))
    return sl.ambiguity(laws)


@st.composite
def set_with_tables(draw):
    """An ambiguity set plus two table functions on its union support."""
    set_ = draw(ambiguity_sets())
    support = set_.support
    table = st.lists(
        st.floats(-4.0, 4.0, allow_nan=False), min_size=len(support), max_size=len(support)
    )
    phi_t = dict(zip(support, draw(table)))
    psi_t = dict(zip(support, draw(table)))
    return set_, phi_t, psi_t


@settings(derandomize=True, max_examples=200, deadline=None)
@given(set_with_tables())
def test_axioms(data):
    set_, phi_t, psi_t = data
    phi = phi_t.__getitem__
    psi = psi_t.__getitem__
    up_phi = sl.upper_expect(set_, phi)
    up_psi = sl.upper_expect(set_, psi)

    # monotonicity: phi <= phi + |psi| pointwise
    dominating = lambda v: phi(v) + abs(psi(v))
    assert up_phi <= sl.upper_expect(set_, dominating) + TOL

    # sub-additivity
    both = lambda v: phi(v) + psi(v)
    assert sl.upper_expect(set_, both) <= up_phi + up_psi + TOL

    # positive homogeneity
    for lam in (0.0, 0.5, 3.0):
        assert sl.upper_expect(set_, lambda v: lam * phi(v)) == pytest.approx(
            lam * up_phi, abs=TOL
        )

    # translation
    assert sl.upper_expect(set_, lambda v: phi(v) + 1.75) == pytest.approx(
        up_phi + 1.75, abs=TOL
    )

    # conjugacy
    lo_phi = sl.lower_expect(set_, phi)
    assert lo_phi <= up_phi + TOL
    assert lo_phi == pytest.approx(-sl.upper_expect(set_, lambda v: -phi(v)), abs=0.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ambiguity_sets(), st.floats(-3.0, 3.0, allow_nan=False))
def test_constant_preserving_property(set_, c):
    assert sl.upper_expect(set_, lambda v: c) == pytest.approx(c, abs=TOL)
    assert sl.lower_expect(set_, lambda v: c) == pytest.approx(c, abs=TOL)
