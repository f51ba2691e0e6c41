"""Every value type of the package behaves as a frozen dataclass, and is built by ``@frozen``."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pickle
import pkgutil
import re

import pytest

import sublexp
import sublexp._frozen as fz
import sublexp.blocking as blk
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.experiments as exp
import sublexp.gnormal as gn
import sublexp.mdep as mdep
from sublexp.errors import ValidationError
from sublexp.laws import Event, ambiguity, centered_three_point_law, moments

MODEL = eng.SequenceModel.moving_window(
    ambiguity([centered_three_point_law(0.49), centered_three_point_law(1.0)]), (1.0, 1.0), 8)


def value_types() -> list[type]:
    """Every dataclass defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(sublexp.__path__):
        mod = importlib.import_module(f"sublexp.{info.name}")
        found += [obj for obj in vars(mod).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == mod.__name__]
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


VALUE_TYPES = value_types()

#: The types that hold numpy arrays, or a dict: equal to themselves alone, hashed by identity.
IDENTITY_TYPES = {eng.Graph, eng.DenseSum, cond.RowContext}


@functools.cache
def samples() -> dict[type, object]:
    """One instance of every value type, from the package's own functions where it has one."""
    ctx = cond.row_context(MODEL, 8, tau=1.0, M_grid=(2, 4))
    plan = blk.build_plan(ctx, 2)
    report = cond.build_report(ctx)
    graph = eng.compile_sum(MODEL)
    gp = gn.GParams(0.5, 1.0)
    found = [
        MODEL.sets[0].laws[0], MODEL.sets[0], moments(MODEL.sets[0], 3.0),
        Event("ge", 0.5), eng.cosine(), MODEL, ctx.m2, graph,
        eng.row_sums(MODEL),
        gp, gn.PDEGrid(), exp.ModelSpec(builder="iid-peng"), exp.GnormalSettings(),
        exp.ConditionSettings(), exp.BlockingSettings(), exp.reference_experiments()["iid-peng"],
        report.trunc, report, ctx, plan,
        blk.diagnostics(ctx, plan), mdep.ResidueDecomposition(1, 6),
        mdep.rosenthal_checks([(MODEL, 8, 2.0)])[0], mdep.rosenthal_battery()[0],
        mdep.z_reduce(MODEL), mdep.three_part_split(MODEL, 8, 2),
    ]
    return {type(value): value for value in found}


def field_values(value: object) -> list[object]:
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


def test_every_value_type_has_a_sample():
    assert VALUE_TYPES and set(samples()) == set(VALUE_TYPES)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__qualname__)
def test_methods_come_from_frozen_not_from_generated_source(cls):
    # a plain @dataclass(frozen=True) would exec-compile these from source
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        assert getattr(cls, name).__code__.co_filename == fz.__file__, name
    assert not cls.__dataclass_params__.frozen
    # without a docstring, dataclass calls inspect.signature to write one
    assert cls.__doc__ and not re.fullmatch(rf"{cls.__name__}\(.*\)", cls.__doc__)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__qualname__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = samples()[cls]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__qualname__)
def test_equal_values_hash_equally_and_other_classes_differ(cls):
    value = samples()[cls]
    twin = cls(*field_values(value))
    if cls in IDENTITY_TYPES:
        # the same field objects make another value, which has its own hash
        assert twin is not value and twin != value and not twin == value
        assert value == value and hash(value) == hash(value) != hash(twin)
        return
    assert twin is not value and twin == value and not twin != value
    try:
        digest = hash(tuple(field_values(value)))
    except TypeError:  # an array or a mapping field: unhashable, as a frozen dataclass is
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == digest
        assert hash(value) == digest  # cached
    # the same fields on a different class
    Other = fz.frozen(type(cls.__name__, (), {
        "__doc__": "Another class with the same fields.",
        "__annotations__": {f.name: "object" for f in dataclasses.fields(cls)},
    }))
    other = Other(*field_values(value))
    assert value != other and other != value
    assert value.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__qualname__)
def test_missing_surplus_and_unknown_arguments_raise_type_error(cls):
    value = samples()[cls]
    values = field_values(value)
    names = [f.name for f in dataclasses.fields(cls)]
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    rebuilt = cls(**dict(zip(names, values)))
    if cls in IDENTITY_TYPES:
        assert all(a is b for a, b in zip(field_values(rebuilt), values))
    else:
        assert rebuilt == value
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **{names[0]: values[0]})
    if required:
        with pytest.raises(TypeError, match=repr(required[-1].name)):
            cls(*values[:len(required) - 1])


DEFAULTED = [(cls, f.name) for cls in VALUE_TYPES for f in dataclasses.fields(cls)
             if f.default is not dataclasses.MISSING]

#: Fields whose default the class rejects alongside the other values of its sample.
INVALID_DEFAULTS = {(exp.ModelSpec, "builder")}


@pytest.mark.parametrize("cls, name", DEFAULTED,
                         ids=[f"{cls.__qualname__}.{name}" for cls, name in DEFAULTED])
def test_an_absent_argument_takes_its_default(cls, name):
    value = samples()[cls]
    (field,) = [f for f in dataclasses.fields(cls) if f.name == name]
    others = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls) if f.name != name}
    if (cls, name) in INVALID_DEFAULTS:
        with pytest.raises(ValidationError):
            cls(**others)
        return
    first, second = cls(**others), cls(**others)
    assert getattr(first, name) == getattr(second, name) == field.default


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__qualname__)
def test_repr_lists_the_fields(cls):
    value = samples()[cls]
    shown = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in dataclasses.fields(cls))
    assert repr(value) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("value, changes", [
    (gn.GParams(0.5, 1.0), {"sigma_lo2": 2.0}),
    (gn.PDEGrid(), {"nx": 2}),
    (centered_three_point_law(0.49), {"probs": (0.5, 0.5, 0.5)}),
    (MODEL, {"sets": MODEL.sets[:1]}),
    (MODEL, {"weights": ()}),
    (exp.reference_experiments()["iid-peng"], {"state_cap": 0}),
    (exp.reference_experiments()["iid-peng"], {"n_list": (16, 8)}),
    (exp.BlockingSettings(), {"tol": 0.0}),
], ids=["GParams", "PDEGrid", "DiscreteLaw", "SequenceModel-n", "SequenceModel-weights",
        "ExperimentConfig-state_cap", "ExperimentConfig-n_list", "BlockingSettings"])
def test_replace_validates_again(value, changes):
    with pytest.raises(ValidationError):
        dataclasses.replace(value, **changes)


def test_replace_asdict_and_fields_work():
    law = centered_three_point_law(0.49)
    moved = dataclasses.replace(law, values=[-2, 0, 2])
    assert moved.values == (-2.0, 0.0, 2.0) and moved.probs == law.probs  # post-init ran
    assert dataclasses.asdict(gn.GParams(0.5, 1.0)) == {"sigma_lo2": 0.5, "sigma_hi2": 1.0}
    assert [f.name for f in dataclasses.fields(eng.EvalResult)] == [
        "upper", "lower", "state_count"]


def test_pickling_drops_the_cached_hash():
    # str hashes differ between processes, so a cached hash must not travel
    cfg = exp.reference_experiments()["iid-peng"]
    hash(cfg)
    assert "_frozen_hash" in vars(cfg)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and "_frozen_hash" not in vars(back)
    assert hash(back) == hash(cfg)


def test_a_field_option_other_than_a_default_is_refused():
    with pytest.raises(TypeError, match="takes only a default"):
        @fz.frozen
        class Hidden:
            """A value type with a field left out of equality."""

            x: int = dataclasses.field(default=0, compare=False)


def test_a_default_factory_is_refused():
    # every default is an immutable value, which one instance serves
    with pytest.raises(TypeError, match="takes only a default"):
        @fz.frozen
        class Made:
            """A value type whose field default is made per instance."""

            x: tuple = dataclasses.field(default_factory=tuple)


def test_array_holding_types_compare_and_hash_by_identity():
    # their fields compare arrays elementwise, so field equality would raise;
    # a row context's moments are a dict, which does not hash
    for tau in (None, 1.0):  # the dense layers, then the compiled graph
        (a_sums, (a,)), (b_sums, (b,)) = (cond.row_contexts(MODEL, (8,), tau=tau)
                                          for _ in range(2))
        assert a.model == b.model and type(a_sums) is type(b_sums)
        assert a != b and not a == b and a_sums != b_sums
        assert a == a and a_sums == a_sums and b == b
        assert hash(a) == hash(a) and hash(a_sums) == hash(a_sums) and hash(b) == hash(b)
        assert len({a, b, a}) == 2
