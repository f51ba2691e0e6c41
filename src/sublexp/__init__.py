"""Exact sub-linear expectation calculus and CLT convergence experiments.

The package evaluates upper/lower expectations of functionals of sums of
independent and m-dependent sequences over finite ambiguity sets by exact
backward induction, solves the G-heat equation defining the G-normal limit
law, and ships the blocking, truncation, and moment-inequality diagnostics
needed to check every hypothesis of the underlying limit theorems at desk
scale.

Importing the package loads none of its modules, and so not numpy: each
name below is imported from its module on first access (PEP 562), and so
is each submodule reached as an attribute, such as ``sublexp.engine``.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": (
        "GuardError",
        "PDENumericsError",
        "StateCapError",
        "SublexpError",
        "ValidationError",
    ),
    "laws": (
        "AmbiguitySet",
        "DiscreteLaw",
        "Event",
        "MomentSummary",
        "ambiguity",
        "bernoulli_pm1",
        "centered_three_point_law",
        "lower_capacity",
        "lower_expect",
        "moments",
        "point_mass",
        "singleton",
        "truncate",
        "two_point_law",
        "upper_capacity",
        "upper_expect",
    ),
    "engine": (
        "EvalResult",
        "Functional",
        "SequenceModel",
        "catalog",
        "catalog_by_name",
        "compile_sum",
        "evaluate_columns",
        "marginal_columns",
        "oracle_policy_enum",
        "row_sums",
        "scaled",
        "window_columns",
    ),
    "gnormal": (
        "G",
        "GParams",
        "PDEGrid",
        "gnormal_references",
        "peng_oracles",
        "solve_gheats",
    ),
    "experiments": (
        "ExperimentConfig",
        "load_config",
        "reference_experiments",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("blocking", "cli", "conditions", "engine", "errors", "experiments", "gnormal",
               "laws", "mdep")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
