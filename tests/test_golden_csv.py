"""Byte identity of the built-in reports: SHA-256 of every CSV they write.

``golden_csv.json`` maps ``<file name>`` to the SHA-256 of the CSV that
``cli.run`` writes for:

* each built-in experiment in the ``eval``, ``clt_sweep``, ``conditions``
  and ``blocking_inspect`` modes;
* the ``rosenthal`` mode once (the battery does not depend on the model);
* one small ``gnormal_eval`` config on ``iid-peng`` (``GNORMAL_CONFIG``).

Any change to the numbers, their formatting or the column order shows up
here as a digest mismatch.  Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden_csv.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import sublexp.cli as cli
from sublexp.experiments import GnormalSettings, reference_experiments

GOLDEN = Path(__file__).with_name("golden_csv.json")
MODES = ("eval", "clt_sweep", "conditions", "blocking_inspect")
ROSENTHAL_EXPERIMENT = "stationary-1dep"


def _gnormal_config():
    base = reference_experiments()["iid-peng"]
    return replace(base, mode="gnormal_eval", peng_n=(8, 16),
                   gnormal=GnormalSettings(sigma_lo2=0.5, nx=401))


def report_digests(out_dir: Path) -> dict[str, str]:
    runs = [(cfg, mode) for _, cfg in sorted(reference_experiments().items())
            for mode in MODES]
    runs.append((reference_experiments()[ROSENTHAL_EXPERIMENT], "rosenthal"))
    runs.append((_gnormal_config(), "gnormal_eval"))
    digests = {}
    for cfg, mode in runs:
        for path in cli.run(cfg, out_dir / mode, mode=mode):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_builtin_reports_are_byte_identical(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    assert report_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(report_digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
    print()
