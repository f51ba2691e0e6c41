"""sublexp benchmark: run one CLI workload for a fixed time and report its metrics.

    python3 bench/run.py --workload clt-flagship --seed 0 --seconds 30 --trace 0

Run from the repository root; the CLI runs from ``src/`` of the same tree.
Each repetition of a workload runs its CLI subcommands one after another,
each in its own single-threaded process (a closed loop with one client),
and checks every CSV it writes (``workloads.check``).  Repetitions continue
while the next one is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each
the median over the run.  Wall, CPU and set-up times are reported at a
fixed reference host speed (``hostspeed``): every CLI process samples the
speed of the core it runs on while it runs, and each interval it is timed
over (set-up, every ``cli.run``, the whole process for CPU time) is scaled
by the speed measured inside that interval.  On the machine of
``context.json``, a 2-vCPU KVM guest on a host shared with other tenants,
the raw times of one commit drifted by up to 46% between sets of runs; the
raw medians and the speed factors are printed too.  Peak RSS is not scaled.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (``spans.layer_metrics``, median over
them, raw times); ``trace.overhead_s`` is the median traced minus the
median untraced wall time, both at reference speed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

#: Set-up-only processes per run, after one discarded warm-up.
SETUP_PROBES = 5
#: Per-process limit; a run must end within 180 s.
CHILD_TIMEOUT_S = 150
#: Traced metrics that must repeat exactly across repetitions.
EXACT_COUNTS = (
    "engine.eval_sum.calls", "engine.eval_sum.states", "engine.eval_sum.distinct_graphs",
    "engine.eval_window.calls", "gnormal.solve_gheat.calls",
    "gnormal.solve_gheat.cell_updates", "mdep.rosenthal_check.calls",
    "conditions.eval_sum.calls", "blocking.eval_sum.calls", "cli.bytes_written",
)


class Runner:
    """Runs the repetitions of one workload for one seed inside ``.bench_work``."""

    def __init__(self, workload: str, seed: int) -> None:
        self.name = workload
        self.commands = workloads.WORKLOADS[workload]
        self.seed = seed
        self.dir = os.path.join(WORK, f"{workload}-{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, f"{workload}.yaml")
        workloads.write_config(workload, seed, self.config)
        self.count = 0

    def _process(self, command: str, out: str, spans_path: str, setup_only: bool) -> dict | None:
        run_id = f"{self.name}-{self.seed}-{self.count}-{command}"
        tail = [run_id, spans_path, "1" if setup_only else "0",
                "--", command, "--config", self.config, "--out", out]
        launched = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, repr(launched), *tail],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"{run_id}: killed after {CHILD_TIMEOUT_S} s\n")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or result["exit"] != 0:
            sys.stderr.write(f"{run_id}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return None
        result["process"] = [launched, time.monotonic()]
        return result

    def setup_probe(self) -> dict | None:
        return self._process(self.commands[0], self.dir, "-", setup_only=True)

    def repetition(self, traced: bool) -> dict:
        """Run every subcommand once; ``ok`` is false on any failure or bad output."""
        self.count += 1
        out = os.path.join(self.dir, f"out-{self.count}")
        spans_path = os.path.join(self.dir, f"spans-{self.count}.jsonl") if traced else "-"
        results = [self._process(c, out, spans_path, setup_only=False)
                   for c in self.commands]
        rep = {"ok": None not in results, "ref_abs_err": None}
        if not rep["ok"]:
            return rep
        try:
            problems, rep["ref_abs_err"] = workloads.check(self.name, self.seed, out)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        for problem in problems:
            sys.stderr.write(f"{self.name} seed {self.seed}: {problem}\n")
        rep.update(
            ok=not problems,
            processes=results,
            wall_s=sum(r["wall_s"] for r in results),
            cpu_s=sum(r["cpu_s"] for r in results),
            peak_rss_mb=max(r["peak_rss_mb"] for r in results),
        )
        if traced:
            rep["layers"] = spans.layer_metrics(spans.read_spans(spans_path))
        return rep


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
    """Repetitions (untraced, or untraced/traced pairs) and set-up-only processes."""
    deadline = time.monotonic() + seconds
    setups: list[dict | None] = []
    if not traced:
        runner.setup_probe()
        setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    longest = 0.0
    while not reps or time.monotonic() + longest <= deadline:
        started = time.monotonic()
        reps.append(runner.repetition(traced=False))
        if traced:
            reps.append(runner.repetition(traced=True))
        longest = max(longest, time.monotonic() - started)
    return reps, [s for s in setups if s is not None]


def at_reference_speed(reps: list[dict], setups: list[dict]) -> None:
    """Add ``ref`` (wall, CPU and set-up times at reference speed, and the
    process's speed factor) to each set-up process and timed repetition's
    processes."""
    for proc in setups + [p for r in reps if "wall_s" in r for p in r["processes"]]:
        samples = proc["samples"]
        launched, exited = proc["process"]
        proc["ref"] = {
            "setup_s": hostspeed.scaled(samples, launched, proc["config_done"]),
            "cpu_s": hostspeed.scaled(samples, launched, exited, proc["cpu_s"]),
            "wall_s": math.fsum(hostspeed.scaled(samples, a, b) for a, b in proc["runs"]),
            "factor": hostspeed.factor(samples, launched, exited),
        }


def end_to_end(reps: list[dict], setups: list[dict]) -> dict[str, float]:
    timed = [r for r in reps if "wall_s" in r]

    def total(r: dict, key: str) -> float:
        return math.fsum(p["ref"][key] for p in r["processes"])

    return {
        "wall_s": _median([total(r, "wall_s") for r in timed]),
        "setup_s": _median([p["ref"]["setup_s"]
                            for p in setups + [p for r in timed for p in r["processes"]]]),
        "cpu_s": _median([total(r, "cpu_s") for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
    }


def raw_summary(reps: list[dict]) -> str:
    """Raw (unscaled) medians and the host-speed factors, for the log."""
    timed = [r for r in reps if "wall_s" in r]
    factors = [p["ref"]["factor"] for r in timed for p in r["processes"]]
    return (f"raw wall_s median {_median([r['wall_s'] for r in timed]):.4g} s, raw cpu_s "
            f"median {_median([r['cpu_s'] for r in timed]):.4g} s; host-speed factor "
            f"median {_median(factors):.4g} (min {min(factors):.4g}, max {max(factors):.4g})")


def per_layer(reps: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median of each layer metric over the traced repetitions, and count mismatches."""
    traced = [r["layers"] for r in reps if "layers" in r]
    out = {k: _median([t[k] for t in traced]) for k in (traced[0] if traced else {})}
    problems = [f"{k} differs across traced repetitions: {[t[k] for t in traced]}"
                for k in EXACT_COUNTS if len({t[k] for t in traced}) > 1]
    at_reference_speed(reps, [])
    walls = {True: [], False: []}
    for r in reps:
        if "wall_s" in r:
            walls["layers" in r].append(math.fsum(p["ref"]["wall_s"] for p in r["processes"]))
    out["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
    errs = [r["ref_abs_err"] for r in reps if r["ref_abs_err"] is not None]
    out["gnormal.ref_abs_err"] = _median(errs)
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "sublexp", "cli.py")):
        print(f"error: no sublexp sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    import numpy
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} workload={args.workload} seed={args.seed}")
    runner = Runner(args.workload, args.seed)
    reps, setups = measure(runner, args.seconds, traced=bool(args.trace))
    if not any("wall_s" in r for r in reps):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        values, problems = per_layer(reps)
        listed = spec["per_layer"]
    else:
        at_reference_speed(reps, setups)
        values, problems = end_to_end(reps, setups), []
        listed = spec["end_to_end"]
    for problem in problems:
        sys.stderr.write(problem + "\n")
    if set(values) != {m["name"] for m in listed}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in listed})} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1

    failed = min(len(reps), sum(1 for r in reps if not r["ok"]) + bool(problems))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    walls = " ".join(f"{r['wall_s']:.4g}" for r in reps if "wall_s" in r)
    if not args.trace:
        walls += "; at reference speed: " + " ".join(
            f"{math.fsum(p['ref']['wall_s'] for p in r['processes']):.4g}"
            for r in reps if "wall_s" in r)
        print(raw_summary(reps))
    print(f"{'failed_share':42s} {failed / len(reps):.6g} ({failed} of {len(reps)} "
          f"repetitions; wall_s of each: {walls})")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
