"""Regenerate ``references.json`` from the library in ``src/``.

    python3 perfbench/make_references.py

Stores, per scan command, each lattice point's verdict and fitted slopes
(default lattice order), and the unit-amplitude values of the default-seed
reference block of point queries.  Run it only when a change is meant to
alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run

for var in run.BLAS_THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(run.SRC))

import queries as Q  # noqa: E402
from workloads import REFERENCE_SEED, REFERENCES, import_library, run_cli  # noqa: E402

COLUMNS = {
    "scan-stft": ("classified", "slope_a", "slope_b"),
    "scan-locop": ("classified", "slope"),
    "scan-locop-lq": ("classified", "slope"),
}


def main() -> None:
    lib = import_library()
    refs = {}
    for command, cols in COLUMNS.items():
        out = run.OUT / "references" / command
        code, _, _ = run_cli(lib, [command], out)
        if code != 0:
            raise SystemExit(f"{command} exited with {code}")
        summary = json.loads((out / f"{command}_summary.json").read_text(encoding="utf-8"))
        first, second = summary["columns"][:2]
        refs[command] = {
            f"{rec[first]},{rec[second]}": {c: rec[c] for c in cols} for rec in summary["records"]
        }
    refs["point-queries"] = [
        Q.digest(Q.evaluate(lib, q, Q.make_inputs(lib, q))) for q in Q.query_block(REFERENCE_SEED, 0)
    ]
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
