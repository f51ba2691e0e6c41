"""Self-test of the benchmark itself (about a minute, single-threaded).

    python3 bench/selftest.py

Checks that
* BENCHMARK.json lists exactly the workloads and layer metrics the code has;
* two traced repetitions of a workload with one seed give exactly equal
  counts, and with two seeds equal work (DP states, graphs, calls, PDE cell
  updates), which is what lets the seed vary;
* the self times of the layers add up to the traced wall time;
* the output check rejects corrupted CSVs, by digest and by invariant;
* host-speed scaling leaves a reference-speed interval as it is, halves
  one measured at half speed, and leaves out the sampler's own time;
* the benchmark fails, printing no result, in a tree without the sources.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import hostspeed
import run
import spans
import workloads

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    names = set(spans.layer_metrics([])) | {"trace.overhead_s", "gnormal.ref_abs_err"}
    expect({m["name"] for m in spec["per_layer"]} == names,
           "BENCHMARK.json per_layer matches the traced metrics")
    with open(os.path.join(run.HERE, "context.json")) as fh:
        context = json.load(fh)
    expect(set(context["per_layer_moves"]) == names
           and set(context["workloads"]) == set(workloads.WORKLOADS),
           "context.json maps every layer metric and describes every workload")


def check_self_times(name: str, spans_path: str) -> None:
    recorded = spans.read_spans(spans_path)
    by_key = {(s["run"], s["id"]): s for s in recorded}

    def root(s: dict) -> dict:
        while s["parent"] is not None:
            s = by_key[(s["run"], s["parent"])]
        return s

    own = spans.self_times(recorded)
    layers: dict[str, float] = {}
    for s in recorded:
        if root(s)["name"] == "cli.run":
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own[(s["run"], s["id"])]
    wall = sum(s["end"] - s["start"] for s in recorded if s["name"] == "cli.run")
    expect(abs(sum(layers.values()) - wall) <= 1e-6,
           f"{name}: layer self times {sum(layers.values()):.6f} s add up to traced wall "
           f"{wall:.6f} s")


def check_counts() -> dict[tuple[str, int], str]:
    """Traced repetitions: seed 0 twice on one workload, seeds 0 and 1 on all."""
    good_outputs = {}
    for name in workloads.WORKLOADS:
        counts = {}
        for seed in (workloads.DEFAULT_SEED, 1):
            runner = run.Runner(name, seed)
            rep = runner.repetition(traced=True)
            expect(rep["ok"], f"{name} seed {seed}: traced repetition passes its output check")
            if not rep["ok"]:
                return good_outputs
            counts[seed] = {k: rep["layers"][k] for k in run.EXACT_COUNTS}
            good_outputs[(name, seed)] = os.path.join(runner.dir, "out-1")
            check_self_times(f"{name} seed {seed}", os.path.join(runner.dir, "spans-1.jsonl"))
            if name == "diagnostics-heavy" and seed == workloads.DEFAULT_SEED:
                again = runner.repetition(traced=True)["layers"]
                expect({k: again[k] for k in run.EXACT_COUNTS} == counts[seed],
                       f"{name}: two traced repetitions give equal counts")
        work = [k for k in run.EXACT_COUNTS if k != "cli.bytes_written"]
        expect(all(counts[0][k] == counts[1][k] for k in work),
               f"{name}: seeds 0 and 1 give equal work "
               f"({counts[0]['engine.eval_sum.states']} DP states, "
               f"{counts[0]['gnormal.solve_gheat.cell_updates']} cell updates)")
    return good_outputs


def _corrupted(src: str, dst: str, edit) -> str:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    (path,) = [os.path.join(dst, f) for f in os.listdir(dst) if edit[0] in f]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit[1](rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


def check_rejects(good: dict) -> None:
    scratch = os.path.join(run.WORK, "selftest")

    def bump(rows: list[list[str]]) -> None:
        rows[1][-1] = rows[1][-1] + "1"

    def swap_bounds(rows: list[list[str]]) -> None:
        up, lo = rows[0].index("upper"), rows[0].index("lower")
        rows[1][up], rows[1][lo] = rows[1][lo], rows[1][up]

    def coarse_pde(rows: list[list[str]]) -> None:
        col = rows[0].index("pde_upper")
        rows[1][col] = repr(float(rows[1][col]) + 0.01)

    cases = (
        ("diagnostics-heavy", workloads.DEFAULT_SEED, ("_blocking.csv", bump), "digest"),
        ("clt-flagship", 1, ("clt_sweep", swap_bounds), "upper < lower"),
        ("gnormal-fine", 1, ("gnormal", coarse_pde), "PDE against quadrature"),
    )
    for name, seed, edit, what in cases:
        if (name, seed) not in good:
            continue
        problems, _ = workloads.check(name, seed, good[(name, seed)])
        expect(not problems, f"{name} seed {seed}: output check accepts the real CSVs")
        bad = _corrupted(good[(name, seed)], os.path.join(scratch, name), edit)
        problems, _ = workloads.check(name, seed, bad)
        expect(bool(problems), f"{name} seed {seed}: output check rejects a CSV ({what})")


def check_bare_tree() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clt-flagship", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def check_hostspeed() -> None:
    ref = hostspeed.REF_KERNEL_S

    def samples(kernel_s: float) -> list[list[float]]:
        return [[t, t + kernel_s] for t in (0.1 * k for k in range(1, 10))]

    at_ref = hostspeed.scaled(samples(ref), 0.0, 1.0)
    expect(abs(at_ref - (1.0 - 9 * ref)) < 1e-12,
           "host-speed scaling keeps a reference-speed interval, less the samples")
    slow = hostspeed.scaled(samples(2 * ref), 0.0, 1.0, seconds=0.6)
    expect(abs(slow - (0.6 - 18 * ref) / 2) < 1e-12,
           "host-speed scaling halves a time measured at half speed")
    hit = samples(ref) + [[0.95, 0.95 + 20 * ref]]
    expect(abs(hostspeed.factor(hit, 0.0, 1.0) - 1.0) < 1e-12,
           "host-speed factor leaves out the slowest tenth of the samples")
    expect(abs(hostspeed.scaled(samples(2 * ref), 0.91, 0.99) - 0.04) < 1e-12,
           "host-speed scaling uses all samples for an interval without one")


def main() -> int:
    check_spec()
    check_hostspeed()
    check_bare_tree()
    check_rejects(check_counts())
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
