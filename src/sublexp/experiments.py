"""Experiment configuration, built-in reference models, and config loading.

Configs are plain YAML documents; the schema is documented in the README.
A model is given either explicitly (laws, weights, scaling rule) or by
naming a built-in family via ``model.builder``; built-ins may vary with the
row length n (the heavy-tailed family scales its tail mass like 1/n^2).
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Mapping

from . import conditions as cond
from ._frozen import frozen
from .engine import DEFAULT_STATE_CAP, SequenceModel, catalog_by_name
from .errors import ValidationError
from .gnormal import GParams
from .laws import (
    AmbiguitySet,
    DiscreteLaw,
    ambiguity,
    bernoulli_pm1,
    centered_three_point_law,
)

MODES = ("eval", "clt_sweep", "gnormal_eval", "rosenthal", "blocking_inspect", "conditions")
#: The scaling rules of an explicit model: name -> the scale of its row of length n.
SCALINGS: Mapping[str, Callable[[int], float]] = {
    "none": lambda n: 1.0,
    "inv_sqrt_n": lambda n: 1.0 / math.sqrt(n),
    "inv_n": lambda n: 1.0 / n,
}
KINDS = ("independent", "moving_window")

DEFAULT_N_LIST = (8, 16, 32, 48)
DEFAULT_FUNCTIONALS = ("cos", "ramp@0")


# ---------------------------------------------------------------------------
# Built-in model families
# ---------------------------------------------------------------------------


def _stationary_1dep(n: int) -> SequenceModel:
    innovation = ambiguity(
        [centered_three_point_law(0.49), centered_three_point_law(1.0)]
    )
    return SequenceModel.moving_window(innovation, (1.0, 1.0), n)


def _iid_peng(n: int) -> SequenceModel:
    set_ = ambiguity([centered_three_point_law(0.49), centered_three_point_law(1.0)])
    return SequenceModel.iid(set_, n)


def _mean_uncertain_fail(n: int) -> SequenceModel:
    set_ = ambiguity([bernoulli_pm1(0.4), bernoulli_pm1(0.6)])
    return SequenceModel.iid(set_, n, scale=1.0 / math.sqrt(n))


HEAVY_POINT = 8.0
HEAVY_MASS_COEFF = 0.5


def _truncated_heavy(n: int) -> SequenceModel:
    """Symmetric lattice laws plus one heavy support point of mass ~1/n^2."""
    pi = HEAVY_MASS_COEFF / (n * n)
    laws = []
    for q in (0.49, 1.0):
        laws.append(
            DiscreteLaw(
                (-1.0, 0.0, 1.0, HEAVY_POINT),
                (q * (1 - pi) / 2, (1 - q) * (1 - pi), q * (1 - pi) / 2, pi),
            )
        )
    return SequenceModel.iid(ambiguity(laws), n, scale=1.0 / math.sqrt(n))


BUILDERS: Mapping[str, Callable[[int], SequenceModel]] = {
    "stationary-1dep": _stationary_1dep,
    "iid-peng": _iid_peng,
    "mean-uncertain-fail": _mean_uncertain_fail,
    "truncated-heavy": _truncated_heavy,
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@frozen
class ModelSpec:
    """The ``model`` section: a built-in family by name, or laws, weights and scaling."""

    builder: str | None = None
    kind: str = "independent"
    scaling: str = "none"
    weights: tuple[float, ...] = ()
    laws: tuple[DiscreteLaw, ...] = ()

    def __post_init__(self) -> None:
        if self.builder is not None:
            if self.builder not in BUILDERS:
                raise ValidationError(f"unknown model builder {self.builder!r}")
            others = [f.name for f in fields(self)
                      if f.name != "builder" and getattr(self, f.name) != f.default]
            if others:
                raise ValidationError(f"model 'builder' takes no other model field: {others}")
            return
        if self.kind not in KINDS:
            raise ValidationError(f"unknown model 'kind' {self.kind!r}; use one of {KINDS}")
        if self.scaling not in SCALINGS:
            raise ValidationError(f"unknown scaling rule {self.scaling!r}")
        if not self.laws:
            raise ValidationError("explicit model needs at least one law")
        if self.kind == "moving_window" and not self.weights:
            raise ValidationError("moving-window model needs 'weights'")
        if self.kind == "independent" and self.weights:
            raise ValidationError("model 'weights' needs kind: moving_window")

    def build(self, n: int) -> SequenceModel:
        if self.builder is not None:
            return BUILDERS[self.builder](n)
        return SequenceModel.moving_window(AmbiguitySet(self.laws), self.weights or (1.0,), n,
                                           SCALINGS[self.scaling](n))


@frozen
class GnormalSettings:
    """The ``gnormal`` section: variance interval, PDE grid and horizon.

    The horizon is 1.0 and nothing else: the Peng columns, the quadrature
    and the DP column of ``phi(S_n / B_n)`` are all the G-normal law at t = 1.
    """

    sigma_lo2: float | None = None  # None: use the variance-ratio plateau
    sigma_hi2: float = 1.0
    half_width: float = 8.0
    nx: int = 801
    time: float = 1.0

    def __post_init__(self) -> None:
        # checked at load, before any row compiles; a None sigma_lo2 is only
        # known once the rows have, so GParams checks 0 in its place
        GParams(0.0 if self.sigma_lo2 is None else self.sigma_lo2, self.sigma_hi2)
        if self.time != 1.0:
            raise ValidationError(f"gnormal.time must be 1.0, got {self.time!r}: the Peng, "
                                  "quadrature and CLT columns are the G-normal law at t = 1")


@frozen
class ConditionSettings:
    """The ``conditions`` section: the grids of the hypotheses and the truncation level."""

    eps: tuple[float, ...] = cond.DEFAULT_EPS_GRID
    M: tuple[int, ...] | None = None
    p: tuple[float, ...] = cond.DEFAULT_P_GRID
    tau: float | None = None


@frozen
class BlockingSettings:
    """The ``blocking`` section: block sizes per n, or the tolerance of their search."""

    pn_list: tuple[int, ...] | None = None  # None: choose_pn(tol) per n
    tol: float = 0.1

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValidationError("blocking.tol must be > 0")


@frozen
class ExperimentConfig:
    """One experiment: a config file or a built-in, checked when it is built."""

    name: str
    mode: str
    model: ModelSpec
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    functionals: tuple[str, ...] = DEFAULT_FUNCTIONALS
    gnormal: GnormalSettings = GnormalSettings()
    conditions: ConditionSettings = ConditionSettings()
    blocking: BlockingSettings = BlockingSettings()
    rosenthal_seed: int = 20240901
    peng_n: tuple[int, ...] = (8, 16, 32, 64)
    state_cap: int = DEFAULT_STATE_CAP
    mean_unc_flag: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not self.n_list or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValidationError("n_list must be non-empty and strictly increasing")
        if any(n < 1 for n in self.n_list):
            raise ValidationError("n_list entries must be >= 1")
        if self.blocking.pn_list is not None and len(self.blocking.pn_list) != len(self.n_list):
            raise ValidationError("pn_list must align with n_list")
        if any(p < 2 or p % 2 for p in self.blocking.pn_list or ()):
            raise ValidationError("pn_list entries must be even and >= 2")
        if any(not 1 <= M <= self.n_list[0] for M in self.conditions.M or ()):
            raise ValidationError(f"conditions.M entries must lie in 1..{self.n_list[0]}")
        if self.conditions.tau is not None and not self.conditions.tau > 0.0:
            raise ValidationError("conditions.tau must be > 0")
        if any(not eps > 0.0 for eps in self.conditions.eps):
            raise ValidationError("conditions.eps entries must be > 0")
        if any(not p >= 2.0 for p in self.conditions.p):
            raise ValidationError("conditions.p entries must be >= 2")
        if any(n < 1 for n in self.peng_n):
            raise ValidationError("peng_n entries must be >= 1")
        if self.state_cap < 1:
            raise ValidationError("state_cap must be >= 1")
        for name in self.functionals:
            catalog_by_name(name)  # a malformed name fails at load, in every mode

    def model_for(self, n: int) -> SequenceModel:
        return self.model.build(n)


def reference_experiments() -> dict[str, ExperimentConfig]:
    """The built-in configs the acceptance experiments run."""
    return {
        "stationary-1dep": ExperimentConfig(
            name="stationary-1dep",
            mode="clt_sweep",
            model=ModelSpec(builder="stationary-1dep"),
            n_list=(8, 16, 32, 48),
            blocking=BlockingSettings(pn_list=(2, 4, 6, 8)),
        ),
        "iid-peng": ExperimentConfig(
            name="iid-peng",
            mode="clt_sweep",
            model=ModelSpec(builder="iid-peng"),
            n_list=(8, 16, 32, 48),
        ),
        "mean-uncertain-fail": ExperimentConfig(
            name="mean-uncertain-fail",
            mode="clt_sweep",
            model=ModelSpec(builder="mean-uncertain-fail"),
            n_list=(8, 16, 32),
        ),
        "truncated-heavy": ExperimentConfig(
            name="truncated-heavy",
            mode="clt_sweep",
            model=ModelSpec(builder="truncated-heavy"),
            n_list=(8, 16, 32, 48),
            conditions=ConditionSettings(tau=1.0),
        ),
    }


# ---------------------------------------------------------------------------
# YAML loading
# ---------------------------------------------------------------------------


def _law_from_mapping(raw: object) -> DiscreteLaw:
    if not isinstance(raw, Mapping) or "values" not in raw or "probs" not in raw:
        raise ValidationError("a law needs 'values' and 'probs' lists")
    reals = _tuple_of(_real)
    return DiscreteLaw(reals(raw["values"]), reals(raw["probs"]))


def _fields(raw: object, where: str, convert: Mapping[str, Callable]) -> dict[str, object]:
    """The keys of section ``where`` that are present, converted; a null section has none."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ValidationError(f"'{where}' must be a mapping")
    unknown = set(raw) - set(convert)
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(map(str, unknown))}")
    fields = {}
    for key, value in raw.items():
        try:
            fields[key] = convert[key](value)
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed {where} key {key!r}: {exc}") from exc
    return fields


def _optional(convert: Callable) -> Callable:
    return lambda v: None if v is None else convert(v)


def _integer(v: object) -> int:
    """An int, or a float with an integral value; a bool, string or fraction is malformed."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{v!r} is not an integer")


def _real(v: object) -> float:
    """An int or a float; a bool, string or list is malformed."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if isinstance(v, str):
        try:
            float(v)
        except ValueError:
            pass
        else:
            # PyYAML reads 1e-3 and 1.0e3 as strings
            raise ValueError(f"{v!r} is a string, not a number: write it unquoted, and give "
                             f"an exponent a decimal point and a sign (1.0e-3, not 1e-3)")
    raise ValueError(f"{v!r} is not a number")


def _text(v: object) -> str:
    """A string; a number, bool or list is malformed."""
    if isinstance(v, str):
        return v
    raise ValueError(f"{v!r} is not a string")


def _tuple_of(convert: Callable) -> Callable:
    def convert_all(v: object) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"{v!r} is not a list")
        return tuple(convert(x) for x in v)
    return convert_all


def _model_spec(raw: object) -> ModelSpec:
    laws = _optional(_tuple_of(_law_from_mapping))
    fields = _fields(raw, "model", {
        "builder": _optional(_text), "kind": _text, "scaling": _text,
        "weights": _tuple_of(_real), "laws": laws, "innovation": laws,
    })
    if fields.get("builder") is not None and len(fields) > 1:
        raise ValidationError(f"model 'builder' takes no other model key: "
                              f"{sorted(set(fields) - {'builder'})}")
    innovation = "innovation" in fields
    if innovation:
        if "laws" in fields:
            raise ValidationError("model 'laws' and 'innovation' are alternatives: give one")
        fields["laws"] = fields.pop("innovation")
    spec = ModelSpec(**fields)
    if innovation and spec.kind != "moving_window":
        raise ValidationError("model 'innovation' needs kind: moving_window")
    return spec


def config_from_mapping(raw: Mapping, *, default_name: str = "experiment") -> ExperimentConfig:
    """The config from the keys present; each absent key keeps its field default.

    An unknown key or a malformed value, in any section, raises ``ValidationError``.
    """
    fields = _fields(raw, "config", {
        "name": _text, "mode": _text, "model": _model_spec,
        "n_list": _tuple_of(_integer), "functionals": _tuple_of(_text),
        "gnormal": lambda v: GnormalSettings(**_fields(v, "gnormal", {
            "sigma_lo2": _optional(_real), "sigma_hi2": _real, "half_width": _real,
            "nx": _integer, "time": _real})),
        "conditions": lambda v: ConditionSettings(**_fields(v, "conditions", {
            "eps": _tuple_of(_real), "M": _optional(_tuple_of(_integer)),
            "p": _tuple_of(_real), "tau": _optional(_real)})),
        "blocking": lambda v: BlockingSettings(**_fields(v, "blocking", {
            "pn_list": _optional(_tuple_of(_integer)), "tol": _real})),
        "rosenthal_seed": _integer, "peng_n": _tuple_of(_integer),
        "state_cap": _integer, "mean_unc_flag": _real,
    })
    if "model" not in fields:
        raise ValidationError("config needs a 'model' section")
    return ExperimentConfig(**{"name": default_name, "mode": "eval", **fields})


def load_config(path: str | Path) -> ExperimentConfig:
    import yaml  # here, not at module level: runs of a built-in experiment never read YAML

    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ValidationError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raise ValidationError("config file is empty")
    return config_from_mapping(raw, default_name=p.stem)


def resolve_config(config: str | None, experiment: str | None) -> ExperimentConfig:
    """Resolve the --config / --experiment pair into one config."""
    if (config is None) == (experiment is None):
        raise ValidationError("give exactly one of --config PATH or --experiment NAME")
    if config is not None:
        return load_config(config)
    refs = reference_experiments()
    if experiment not in refs:
        raise ValidationError(
            f"unknown experiment {experiment!r}; available: {sorted(refs)}"
        )
    return refs[experiment]


def with_overrides(
    cfg: ExperimentConfig,
    *,
    grid_nx: int | None = None,
    grid_L: float | None = None,
    state_cap: int | None = None,
    tol: float | None = None,
) -> ExperimentConfig:
    def given(value, **changes):
        """``value`` with each change that is not None."""
        return replace(value, **{k: v for k, v in changes.items() if v is not None})

    return given(cfg, gnormal=given(cfg.gnormal, nx=grid_nx, half_width=grid_L),
                 blocking=given(cfg.blocking, tol=tol), state_cap=state_cap)
