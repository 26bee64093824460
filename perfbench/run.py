"""Benchmark for tfamalgam: region scans, the verify battery and point queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload region-stft --seed 1 --seconds 15 --trace 0

Each workload runs closed-loop with a single client in this process, with
the BLAS thread count pinned to 1.  The library is imported from ``src/`` of
the checkout; without it the run exits with code 2 and prints no result.

``--trace 0`` runs passes until the next one would overrun ``--seconds``
(but at least the workload's ``min_passes``), sets up ``SETUP_REPEATS``
times spread over the run (median ``setup_s``) and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of passes
untraced and the same passes traced (spans around every public library
function), then one more pass under ``tracemalloc`` for the allocation
peaks, and reports the per-layer metrics per pass.  It also checks the traced call counts against
the counts each workload expects per pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failures at an
extreme amplitude in ``point-queries`` (a defect of the library, not of the
benchmark) count in ``failed`` and ``ok_frac`` but leave ``correct`` true;
every other failed check makes ``correct`` false.  A record of the run, with
the environment, pass times and check notes, is written to
``.perfbench-out/<workload>/run-trace<0|1>.json`` (and the spans of a traced
run next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc sysconf names for the data cache sizes (not in os.sysconf_names)
_SC_CACHE = {"l1d": 188, "l2": 191, "l3": 194}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    caches = {}
    for level, code in _SC_CACHE.items():
        try:
            caches[level] = os.sysconf(code)
        except (ValueError, OSError):
            caches[level] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "tfamalgam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# numpy and the library load only inside these functions: main() first pins the
# BLAS thread count and puts the checkout's src/ on the path.


def measure(wl, seed: int, seconds: float, out: Path) -> tuple:
    """Untraced run: passes for ``seconds``, set-up repeated across it; end-to-end metrics."""
    from workloads import PassResult, import_library, library_modules

    setup_times = []

    def timed_setup() -> None:
        """Set up afresh and time it, then put back the modules the passes use."""
        kept = library_modules()
        start = time.perf_counter()
        wl.setup(import_library(), seed, out)
        setup_times.append(time.perf_counter() - start)
        for name in library_modules():
            del sys.modules[name]
        sys.modules.update(kept)

    # The host's speed drifts over seconds, so the repeats are spread over
    # the run (repeat k is due at k/SETUP_REPEATS of it) instead of sampling
    # one instant.  Every pass uses the first set-up's library: its functions
    # import library names at call time, so sys.modules must hold the same
    # modules again after each repeat.
    begin = time.perf_counter()
    lib = import_library()
    state = wl.setup(lib, seed, out)
    setup_times.append(time.perf_counter() - begin)
    totals = PassResult(0.0, [])
    pass_s, walls, latencies = [], [], []
    index = 0
    min_passes = getattr(wl, "min_passes", 1)
    while True:
        start = time.perf_counter()
        result = wl.run_pass(lib, state, index)
        walls.append(time.perf_counter() - start)
        pass_s.append(result.seconds)
        latencies.extend(result.latencies)
        totals.add(result)
        index += 1
        while len(setup_times) < SETUP_REPEATS and time.perf_counter() - begin >= seconds * len(setup_times) / SETUP_REPEATS:
            timed_setup()
        if index >= min_passes and time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    if hasattr(wl, "final_check"):
        totals.add(wl.final_check(lib, state))

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - totals.failed / totals.attempted, "frac"),
        "query_p50_ms": (1e3 * _quantile(latencies, 0.5), "ms"),
        "query_p90_ms": (1e3 * _quantile(latencies, 0.9), "ms"),
    }
    record = {
        "setup_times_s": setup_times,
        "pass_times_s": pass_s,
        "pass_walls_s": walls,
        "query_samples": len(latencies),
    }
    return metrics, totals, record


def traced(wl, seed: int, out: Path) -> tuple:
    """Traced run: the same passes untraced, traced and under tracemalloc; per-layer metrics."""
    import tracemalloc

    from spans import Tracer
    from workloads import PassResult, import_library

    lib = import_library()
    state = wl.setup(lib, seed, out)
    passes = range(wl.traced_passes)
    totals = PassResult(0.0, [])

    plain = []
    for i in passes:
        result = wl.run_pass(lib, state, i)
        plain.append(result.seconds)
        totals.add(result)

    tracer = Tracer(lib)
    tracer.install()
    state.tracer = tracer
    written = 0
    timed = []
    try:
        tracer.active = True
        for i in passes:
            result = wl.run_pass(lib, state, i)
            timed.append(result.seconds)
            written += result.bytes_written
            totals.add(result)
        tracer.active = False
        summary = tracer.summary()
        spans = [(tracer.names[n], s, e, p) for n, s, e, p in tracer.spans]

        tracer.reset()
        tracer.track_memory = True
        tracemalloc.start()
        try:
            tracer.active = True
            totals.add(wl.run_pass(lib, state, 0))
        finally:
            tracer.active = False
            tracemalloc.stop()
        peaks = tracer.summary()["peak_alloc_mb"]
    finally:
        tracer.uninstall()
        state.tracer = None
    if hasattr(wl, "final_check"):
        totals.add(wl.final_check(lib, state))

    n = len(passes)
    calls, busy, self_s = summary["calls"], summary["busy_s"], summary["self_s"]
    mismatched = {
        name: (calls.get(name, 0) / n, want)
        for name, want in wl.expected_calls.items()
        if calls.get(name, 0) != want * n
    }
    if mismatched:
        totals.hard_failed += 1
        totals.notes.append(f"traced call counts per pass differ from the expected ones: {mismatched}")

    def per_pass(table, key):
        return table.get(key, 0) / n

    entries, distinct = summary["norms_entries"], summary["norms_distinct_inputs"]
    metrics = {
        "grid.sample.calls": (per_pass(calls, "grid.sample"), "count"),
        "grid.sample.busy_s": (per_pass(busy, "grid.sample"), "s"),
        "grid.phase_space_symbol.busy_s": (per_pass(busy, "grid.phase_space_symbol"), "s"),
        "families.sharpness_symbol.calls": (per_pass(calls, "families.sharpness_symbol"), "count"),
        "families.sharpness_symbol.busy_s": (per_pass(busy, "families.sharpness_symbol"), "s"),
        "transforms.stft.calls": (per_pass(calls, "transforms.stft"), "count"),
        "transforms.stft.busy_s": (per_pass(busy, "transforms.stft"), "s"),
        "transforms.stft.cells": (summary["stft_cells"] / n, "count"),
        "transforms.synthesis.calls": (per_pass(calls, "transforms.synthesis"), "count"),
        "transforms.synthesis.busy_s": (per_pass(busy, "transforms.synthesis"), "s"),
        "transforms.fourier.busy_s": (per_pass(busy, "transforms.fourier"), "s"),
        "transforms.peak_alloc_mb": (peaks.get("transforms", 0.0), "MB"),
        "norms.calls": (entries / n, "count"),
        "norms.busy_s": (per_pass(busy, "norms"), "s"),
        "norms.amalgam_norm.busy_s": (per_pass(busy, "norms.amalgam_norm"), "s"),
        "norms.lp_norm.busy_s": (per_pass(busy, "norms.lp_norm"), "s"),
        "norms.modulation_norm_triebel.busy_s": (per_pass(busy, "norms.modulation_norm_triebel"), "s"),
        "norms.bytes_read": (summary["norms_bytes"] / n, "B_computed"),
        "norms.calls_per_input": (entries / distinct if distinct else 0.0, "calls/input"),
        "norms.peak_alloc_mb": (peaks.get("norms", 0.0), "MB"),
        "locop.apply_locop.busy_s": (per_pass(busy, "locop.apply_locop"), "s"),
        "locop.apply_locop.self_s": (per_pass(self_s, "locop.apply_locop"), "s"),
        "locop.build_kernel.calls": (per_pass(calls, "locop.build_kernel"), "count"),
        "locop.build_kernel.busy_s": (per_pass(busy, "locop.build_kernel"), "s"),
        "locop.opnorm_l2.busy_s": (per_pass(busy, "locop.opnorm_l2"), "s"),
        "locop.schur_report.busy_s": (per_pass(busy, "locop.schur_report"), "s"),
        "locop.kernel_action.busy_s": (per_pass(busy, "locop.kernel_action"), "s"),
        "experiments.fit_scaling.busy_s": (per_pass(busy, "experiments.fit_scaling"), "s"),
        "experiments.self_s": (per_pass(self_s, "experiments"), "s"),
        "cli.self_s": (per_pass(self_s, "cli"), "s"),
        "cli.bytes_written": (written / n, "B"),
        "trace.overhead_frac": (statistics.median(timed) / statistics.median(plain) - 1.0, "ratio"),
    }
    record = {
        "untraced_pass_s": plain,
        "traced_pass_s": timed,
        "calls_per_pass": {k: v / n for k, v in sorted(calls.items())},
        "busy_s_per_pass": {k: v / n for k, v in sorted(busy.items())},
        "self_s_per_pass": {k: v / n for k, v in sorted(self_s.items())},
        "peak_alloc_mb": peaks,
        "note": (
            "norms.bytes_read and cli.bytes_written are computed from array and file sizes. "
            "The 4096^2 complex symbol of scan-stft is 256 MiB, close to the last-level "
            "cache size in cache_bytes.l3, so passes over it run mostly from memory."
        ),
    }
    (out / "spans-trace1.json").write_text(json.dumps({"passes": n, "spans": spans}) + "\n")
    return metrics, totals, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tfamalgam" / "__init__.py").is_file():
        return _fail(f"library source not found under {SRC}")
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import tfamalgam
    from workloads import WORKLOADS

    if Path(tfamalgam.__file__).resolve().parent != (SRC / "tfamalgam").resolve():
        return _fail(f"imported tfamalgam from {tfamalgam.__file__}, not from {SRC}")
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)

    if args.trace:
        metrics, totals, record = traced(wl, args.seed, out)
    else:
        metrics, totals, record = measure(wl, args.seed, args.seconds, out)

    env = environment(args.seed, args.workload)
    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(
        environment=env,
        metrics=named,
        attempted=totals.attempted,
        failed=totals.failed,
        hard_failed=totals.hard_failed,
        notes=totals.notes,
    )
    (out / f"run-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    if not args.trace:
        print(f"# query samples: {record['query_samples']}, passes: {len(record['pass_times_s'])}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:.6g} {unit}")
    print(f"# fail_frac {totals.failed}/{totals.attempted}; notes: {len(totals.notes)}")
    for note in totals.notes[:10]:
        print(f"perfbench: {note}", file=sys.stderr)
    result = {
        "correct": totals.hard_failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": named,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
