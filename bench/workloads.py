"""The benchmark's workloads: seeded config generation and output checks.

Each workload is a list of sublexp CLI subcommands run on one generated
YAML config.  The seed varies only free probabilities or variance
endpoints, never supports, horizons or grids, so every seed costs the same
work; ``selftest.py`` asserts that from the traced state and cell-update
counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

import yaml

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Tolerance for identities between printed columns (12 significant digits).
PRINT_TOL = 1e-9
#: The PDE must match the Gauss-Hermite reference this closely wherever the
#: reference is defined (convex or concave functionals).
PDE_REF_TOL = 1e-3

#: The CLI subcommands of each workload, run in order on its generated
#: config.  Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "clt-flagship": ("clt-sweep",),
    "rosenthal-battery": ("rosenthal",),
    "gnormal-fine": ("gnormal",),
    "diagnostics-heavy": ("conditions", "blocking-inspect"),
}


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def config(name: str, seed: int) -> dict:
    """The YAML config of one workload for one seed."""
    if name == "clt-flagship":
        # lower innovation variance q; any q in (0, 1) keeps every support
        # point reachable, so the DP graph does not depend on it
        q = 0.49 if seed == DEFAULT_SEED else _rng(seed, name).uniform(0.2, 0.8)
        return {
            "name": name, "mode": "clt_sweep",
            "model": {
                "kind": "moving_window", "weights": [1.0, 1.0], "scaling": "none",
                "innovation": [
                    {"values": [-1.0, 0.0, 1.0], "probs": [q / 2.0, 1.0 - q, q / 2.0]},
                    {"values": [-1.0, 0.0, 1.0], "probs": [0.5, 0.0, 0.5]},
                ],
            },
            "n_list": [8, 16, 32, 48], "functionals": ["cos", "ramp@0"],
        }
    if name == "gnormal-fine":
        # sigma_lo2 = 0.49 would put sigma_lo = 0.7 on the unit lattice, where
        # peng_oracle merges sums a generic sigma keeps apart (9129 against
        # 12529 states at n = 32), so every seed, the default too, draws a
        # generic value and does the same DP work
        s2 = 0.5 if seed == DEFAULT_SEED else _rng(seed, name).uniform(0.3, 0.7)
        return {
            "name": name, "mode": "gnormal_eval", "model": {"builder": "iid-peng"},
            "functionals": ["square", "identity", "cos", "ramp@0", "abspow@3"],
            "gnormal": {"sigma_lo2": s2, "sigma_hi2": 1.0, "half_width": 8.0,
                        "nx": 1601, "time": 1.0},
            "peng_n": [8, 16, 32],
        }
    if name == "rosenthal-battery":
        # the battery seed picks supports and weights (331k to 775k DP
        # states over seeds 1-3), so it stays at the built-in value
        return {"name": name, "mode": "rosenthal", "model": {"builder": "stationary-1dep"},
                "rosenthal_seed": 20240901}
    if name == "diagnostics-heavy":
        # the built-in family fixes its laws; n <= 32 keeps a run to seconds
        return {"name": name, "mode": "conditions", "model": {"builder": "truncated-heavy"},
                "n_list": [8, 16, 32], "conditions": {"tau": 1.0}}
    raise KeyError(name)


def write_config(name: str, seed: int, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config(name, seed), fh, sort_keys=False)


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _rows(path: str) -> list[dict[str, float | str]]:
    def num(v: str) -> float | str:
        try:
            return float(v)
        except ValueError:
            return v

    with open(path, newline="") as fh:
        return [{k: num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PRINT_TOL * max(1.0, abs(a), abs(b))


def check(name: str, seed: int, out_dir: str) -> tuple[list[str], float | None]:
    """Problems found in the CSVs of one repetition, and the PDE reference error.

    Where the seed's config equals the default seed's, every CSV must match
    the recorded SHA-256; for any seed the invariants below must hold.
    """
    problems: list[str] = []
    if config(name, seed) == config(name, DEFAULT_SEED):
        with open(DIGESTS_PATH) as fh:
            expected = json.load(fh)[name]
        got = digests(out_dir)
        if got != expected:
            problems.append(f"CSV digests differ: {sorted(set(got.items()) ^ set(expected.items()))}")

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    def csv_path(suffix: str) -> str:
        return os.path.join(out_dir, f"{name}_{suffix}.csv")

    ref_err = None
    if name == "clt-flagship":
        rows = _rows(csv_path("clt_sweep"))
        need(len(rows) == 8, f"clt_sweep has {len(rows)} rows, not 8")
        for r in rows:
            tag = f"n={r['n']:g} {r['functional']}"
            need(r["upper"] >= r["lower"], f"{tag}: upper < lower")
            need(r["gnormal_upper"] >= r["gnormal_lower"], f"{tag}: gnormal_upper < gnormal_lower")
            need(_close(r["abs_err_upper"], abs(r["upper"] - r["gnormal_upper"])),
                 f"{tag}: abs_err_upper != |upper - gnormal_upper|")
            need(_close(r["abs_err_lower"], abs(r["lower"] - r["gnormal_lower"])),
                 f"{tag}: abs_err_lower != |lower - gnormal_lower|")
    elif name == "gnormal-fine":
        rows = _rows(csv_path("gnormal"))
        need(len(rows) == 5, f"gnormal has {len(rows)} rows, not 5")
        errs = []
        for r in rows:
            need(r["pde_upper"] >= r["pde_lower"], f"{r['functional']}: pde_upper < pde_lower")
            if not math.isnan(r["quad_ref"]):
                errs.append(abs(r["pde_upper"] - r["quad_ref"]))
                need(errs[-1] <= PDE_REF_TOL,
                     f"{r['functional']}: |pde_upper - quad_ref| = {errs[-1]:.3g} > {PDE_REF_TOL}")
        need(bool(errs), "no functional has a quadrature reference")
        ref_err = max(errs, default=None)
    elif name == "rosenthal-battery":
        rows = _rows(csv_path("rosenthal"))
        need(len(rows) == 243, f"rosenthal has {len(rows)} rows, not 243")
        for r in rows:
            rhs = r["term_moments"] + r["term_variance"] + r["term_means"]
            need(r["lhs"] >= 0.0, f"{r['ident']}: negative lhs")
            need(_close(r["fitted_C"], r["lhs"] / rhs), f"{r['ident']}: fitted_C != lhs / rhs")
    elif name == "diagnostics-heavy":
        for suffix in ("conditions", "condition_trends", "blocking", "blocking_plan"):
            need(bool(_rows(csv_path(suffix))), f"{suffix} CSV is empty")
        for r in _rows(csv_path("blocking")):
            need(r["Btilde2_over_B2"] >= r["btilde2_over_B2"],
                 f"n={r['n']:g}: upper block mass < lower block mass")
    return problems, ref_err
