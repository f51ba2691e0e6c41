"""One sublexp CLI invocation, timed from process start to the last CSV written.

Usage (from the repository root):

    python3 bench/child.py T0 RUN_ID SPANS|- SETUP_ONLY -- <sublexp CLI arguments>

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up includes interpreter start.  ``SPANS`` is the file the
call spans are appended to; ``-`` runs untraced, with only the two timing
wrappers installed.  With ``SETUP_ONLY`` = 1 the process stops once the
config is resolved.  The last stdout line is a JSON object with
``exit``, ``setup_s``, ``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and the
``time.monotonic()`` intervals they cover: ``config_done`` (set-up is
``T0`` to it) and ``runs`` (one ``[start, end]`` per ``cli.run``), and the
host-speed ``samples`` taken from the start of this script to its end
(``hostspeed.Sampler``).
"""

import json
import os
import resource
import sys
import time

from hostspeed import Sampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sampler = Sampler()
    sampler.start()
    t0, run_id, spans_path, setup_only = sys.argv[1:5]
    cli_args = sys.argv[6:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sublexp  # noqa: E402
    import sublexp.cli  # noqa: E402

    if not os.path.abspath(sublexp.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported sublexp from {sublexp.__file__}, not from this checkout")
    from spans import Tracer

    tracer = Tracer(run_id)
    tracer.install(sublexp, full=spans_path != "-")
    if setup_only == "1":
        sublexp.cli.run = lambda cfg, out_dir, mode=None: []
    code = sublexp.cli.main(cli_args)

    config_done = [s["end"] for s in tracer.spans if s["name"] == "experiments.resolve_config"]
    runs = [s for s in tracer.spans if s["name"] == "cli.run"]
    sampler.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if spans_path != "-":
        tracer.write(spans_path)
    print(json.dumps({
        "exit": code,
        "setup_s": config_done[0] - float(t0) if config_done else None,
        "wall_s": sum(s["end"] - s["start"] for s in runs),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "config_done": config_done[0] if config_done else None,
        "runs": [[s["start"], s["end"]] for s in runs],
        "samples": sampler.samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
