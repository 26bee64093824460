"""Run every workload over ten seeds, twice, and record the baseline of this commit.

    python3 perfbench/baseline.py

Each run is ``run.py`` in its own process, one after another: first one set
of seeds 1..10 on every workload in ``BENCHMARK.json``, then a second set of
the same seeds.  For every end-to-end metric and set the script prints the
median, the quartiles and their spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them) next to the
metric's bound, flags a spread above a third of the bound, and gives the
shift of the second set's median from the first's (positive is worse).  It
then makes one traced run per workload and writes everything to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list, bound: float) -> dict:
    """Median, quartiles, and the interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound, "values": values}


def main() -> None:
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]
    sets = [{w: [run_once(w, seed, 0) for seed in SEEDS] for w in workloads} for _ in range(SETS)]

    baseline = {"seeds": SEEDS, "sets": SETS, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = [r for s in sets for r in s[workload]]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} failed {entry['failed']}/{entry['attempted']}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [summarise([r["metrics"][name]["value"] for r in s[workload]], bound) for s in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            shift = (last - first) / first * (1 if m["better"] == "lower" else -1)
            entry["end_to_end"][name] = {"unit": m["unit"], "sets": per_set, "median_shift": shift}
            for i, st in enumerate(per_set, 1):
                flag = "  (above bound/3)" if st["spread"] >= bound / 3 else ""
                print(f"  {name:13s} set {i}: median {st['median']:.6g}  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}"
                      f"  spread {st['spread']:.4f}  bound {bound}{flag}")
            print(f"  {name:13s} median shift {shift:+.4f}{'  (above bound)' if shift > bound else ''}")
        traced = run_once(workload, SEEDS[0], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
