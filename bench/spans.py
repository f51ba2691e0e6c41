"""Call spans around the public functions of sublexp, and the layer metrics they give.

A ``Tracer`` replaces every public module-level function of the traced
modules by a wrapper that records one span per call: name, start, end and
the enclosing span.  The wrapper is bound under every module attribute that
held the original function, so calls between modules (``conditions`` into
``engine.eval_sum``) and inside one module (``eval_index`` into
``eval_window``) are both captured.  Spans stay in memory and are written
once, when the process ends.

Sizes are recorded next to the times: DP states and the graph identity for
``engine.eval_sum``, grid cell updates for ``gnormal.solve_gheat``, and
bytes written for ``cli.run``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import statistics
import time
from typing import Any, Callable, Iterable

#: Modules whose public functions are wrapped in a traced run.  ``laws`` is
#: left out: no CLI command spends measurable time in it.
TRACED_MODULES = ("engine", "gnormal", "mdep", "conditions", "blocking", "cli", "experiments")

#: The two functions every run wraps, traced or not: they bound set-up
#: (process start to resolved config) and wall time (``cli.run``).
TIMED_FUNCTIONS = (("experiments", "resolve_config"), ("cli", "run"))


def _eval_sum_size(args: tuple, kwargs: dict, out: Any, tracer: "Tracer") -> dict:
    model = args[0]
    indices = kwargs.get("indices")
    key = (model, None if indices is None else tuple(sorted(set(indices))),
           kwargs.get("x_clip"), kwargs.get("track_max", False))
    graph = tracer.graph_ids.get(key)
    if graph is None:
        graph = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
        tracer.graph_ids[key] = graph
    return {"states": out.state_count, "graph": graph}


def _solve_gheat_size(args: tuple, kwargs: dict, out: Any, tracer: "Tracer") -> dict:
    # the step count exactly as solve_gheat derives it from t and the grid
    grid = args[2]
    t = args[3] if len(args) > 3 else kwargs.get("t", 1.0)
    n_steps = max(1, math.ceil(t / grid.dt - 1e-12))
    return {"cell_updates": (grid.nx - 2) * n_steps}


def _run_size(args: tuple, kwargs: dict, out: Any, tracer: "Tracer") -> dict:
    return {"bytes": sum(path.stat().st_size for path in out)}


SIZES: dict[str, Callable[..., dict]] = {
    "engine.eval_sum": _eval_sum_size,
    "gnormal.solve_gheat": _solve_gheat_size,
    "cli.run": _run_size,
}


class Tracer:
    """Span recorder for one process; ``run_id`` ties its spans to one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.graph_ids: dict[tuple, str] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"run": self.run_id, "id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            if size is not None:
                span.update(size(args, kwargs, out, self))
            return out

        return wrapper

    def install(self, package: Any, full: bool) -> None:
        """Wrap the timed functions, or with ``full`` every public function.

        Every attribute of the package's modules that is bound to a wrapped
        function is rebound, and so are the ``cli.RUNNERS`` entries.
        """
        modules = {name: getattr(package, name) for name in TRACED_MODULES}
        if full:
            targets = [
                (layer, name, fn)
                for layer, mod in modules.items()
                for name, fn in vars(mod).items()
                if inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == mod.__name__ and name != "main"
            ]
        else:
            targets = [(layer, name, getattr(modules[layer], name))
                       for layer, name in TIMED_FUNCTIONS]
        wrapped = {id(fn): self.wrap(f"{layer}.{name}", fn) for layer, name, fn in targets}
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
        runners = modules["cli"].RUNNERS
        for mode, fn in runners.items():
            runners[mode] = wrapped.get(id(fn), fn)

    def write(self, path: str) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: Iterable[dict]) -> dict[tuple[str, int], float]:
    """Duration of each span minus the time its direct children cover."""
    spans = list(spans)
    own = {(s["run"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[(s["run"], s["parent"])] -= s["end"] - s["start"]
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one traced workload repetition."""
    by_key = {(s["run"], s["id"]): s for s in spans}
    own = self_times(spans)

    def parent(s: dict) -> dict | None:
        return None if s["parent"] is None else by_key[(s["run"], s["parent"])]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(items: Iterable[dict]) -> float:
        return math.fsum(s["end"] - s["start"] for s in items)

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    out: dict[str, float] = {}
    sums = named("engine.eval_sum")
    sum_s = total(sums)
    states = sum(s["states"] for s in sums)
    graphs = len({s["graph"] for s in sums})
    out.update({
        "engine.eval_sum.calls": len(sums),
        "engine.eval_sum.time_s": sum_s,
        "engine.eval_sum.states": states,
        "engine.eval_sum.states_per_s": per_s(states, sum_s),
        "engine.eval_sum.distinct_graphs": graphs,
        "engine.eval_sum.useful_ratio": graphs / len(sums) if sums else 0.0,
        "engine.eval_window.calls": len(named("engine.eval_window")),
        "engine.eval_window.time_s": total(named("engine.eval_window")),
    })

    solves = named("gnormal.solve_gheat")
    solve_s = total(solves)
    cells = sum(s["cell_updates"] for s in solves)
    out.update({
        "gnormal.solve_gheat.calls": len(solves),
        "gnormal.solve_gheat.time_s": solve_s,
        "gnormal.solve_gheat.cell_updates": cells,
        "gnormal.solve_gheat.cell_updates_per_s": per_s(cells, solve_s),
        "gnormal.peng_oracle.time_s": total(named("gnormal.peng_oracle")),
        "gnormal.gnormal_reference.time_s": total(named("gnormal.gnormal_reference")),
    })

    checks = named("mdep.rosenthal_check")
    durations = sorted(s["end"] - s["start"] for s in checks)
    out.update({
        "mdep.rosenthal_check.calls": len(checks),
        "mdep.rosenthal_check.self_s": math.fsum(own[(s["run"], s["id"])] for s in checks),
        "mdep.rosenthal_check.call_s.p50": statistics.median(durations) if durations else 0.0,
        "mdep.rosenthal_check.call_s.p95":
            statistics.quantiles(durations, n=20)[18] if len(durations) > 1 else 0.0,
    })

    for layer in ("conditions", "blocking"):
        mine = [s for s in spans if _layer(s["name"]) == layer]
        outer = [s for s in mine if parent(s) is None or _layer(parent(s)["name"]) != layer]
        out.update({
            f"{layer}.time_s": total(outer),
            f"{layer}.self_s": math.fsum(own[(s["run"], s["id"])] for s in mine),
            f"{layer}.eval_sum.calls": sum(
                1 for s in sums if parent(s) is not None and _layer(parent(s)["name"]) == layer
            ),
        })

    runs = named("cli.run")
    runners = [s for s in spans if parent(s) is not None and parent(s)["name"] == "cli.run"]
    out.update({
        "cli.runner.time_s": total(runners),
        "cli.write_csv_s": total(runs) - total(runners),
        "cli.bytes_written": sum(s["bytes"] for s in runs),
        "experiments.resolve_config_s": total(named("experiments.resolve_config")),
    })
    return out
