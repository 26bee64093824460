#!/usr/bin/env python3
"""Record end-to-end and per-layer timings of a checkout in a BENCH_<n>.json file.

Usage, from the root of a checkout:

    python3 scripts/bench.py --out BENCH_1.json
    python3 scripts/bench.py --root ../parent --out BENCH_0.json

End to end: ``perfbench/run.py --trace 0`` runs once per workload of
``BENCHMARK.json`` and per seed (1, 2, 3), each as its own subprocess for the
``run_seconds`` of ``BENCHMARK.json``; the metrics of its last output line are
kept, with their median over the seeds.  The Tier-1 suite is timed too.

Layers: calls of ``sample``, ``dft_centered``, ``stft``,
``synthesis``, ``apply_locop``, ``amalgam_norm``, ``lp_norm``,
``modulation_norm_triebel`` and ``mixed_lpq`` of an unformed STFT, whose
rows the reduction forms (one row of cubes, so its blocks are the tasks),
at N = 2048 and 4096, and of ``build_kernel``
and ``opnorm_l2`` at N = 512 and 1024 (a dense kernel is N^2 and
``opnorm_l2`` is O(N^3), so N = 4096 would need over a gigabyte).  At
N = 2048, ``sharpness_symbol`` and ``apply_locop`` are also timed as the
two region-locop scans call them (``L=4``: bump windows on the 4 x 512
grid, ``L=8``: Gaussian windows on the 8 x 256 grid, lambda 16).  ``stft``
is timed with the read of its samples, which it forms on that read; the
inputs of ``synthesis`` and the norms are formed outside the timer.
``stft tables`` times ``stft`` followed by the cube tables of the five
lattice exponents, as ``scan_stft`` asks for them: the smooth probe at
N = 2048 and the chirp probe at N = 4096, on the scan's grids.  At N = 512
and 1024, the calls that take most of the ``point-queries`` workload are
timed on its (16, N/16) grids, each layer name ending in ``L=16``:
``stft`` with the read of its samples, ``mixed_lpq`` of an unformed STFT,
whose rows the reduction forms, ``symbol_mixed_norm``, ``apply_locop`` of
a sharpness symbol and ``modulation_norm_triebel``.  Each layer is called
5 times, each on a fresh input, so no cube table kept from an earlier call
can hide their cost (an unformed lazy symbol keeps its tables, and so may
more inputs of a ``--root`` checkout); the record holds the best time and,
next to it, the spread (slowest minus fastest), which bounds the noise
in a delta between two records.  One more, untimed call of each layer,
after the timed ones, runs under ``tracemalloc``: its peak, in MiB above
what the input holds, is the layer's ``layers_peak_alloc_mb``.

``--root`` measures another checkout (its ``src/`` and ``perfbench/``) with
this script.  The record holds that checkout's git SHA, whether its tree
differs from HEAD, digests of its ``src/tfamalgam`` and of its ``tests``
(so records of one library under two test suites can be told apart), the
numpy version, the core count and the BLAS thread setting (pinned to 1 for
every part).  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (1, 2, 3)
REPEATS = 5  # timed calls per layer
LAYER_SIZES = (2048, 4096)
KERNEL_SIZES = (512, 1024)
LOCOP_SIZE = 2048  # the N of the region-locop scans
POINT_QUERY_SIZES = (512, 1024)  # the largest phase-space N of the point-queries calls


def _timings(call, make_input, repeats: int) -> list[float]:
    """Seconds of ``repeats`` timed calls, each on an input built outside the timer."""
    out = []
    for _ in range(repeats):
        arg = make_input()
        start = time.perf_counter()
        call(arg)
        out.append(time.perf_counter() - start)
        del arg
    return out


def _peak_alloc_mb(call, make_input) -> float:
    """The tracemalloc peak of one untimed call, in MiB, on an input built before tracing starts."""
    arg = make_input()
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _time_each(layers: dict, repeats: int, peaks: dict | None) -> dict:
    """``_timings`` of every ``name: (call, make_input)``; with a ``peaks`` dict, each call's peak too."""
    out = {}
    for name, (call, make) in layers.items():
        out[name] = _timings(call, make, repeats)
        if peaks is not None:
            peaks[name] = _peak_alloc_mb(call, make)
    return out


def _summary(timings: dict, reduce) -> dict:
    return {size: {name: reduce(secs) for name, secs in layers.items()} for size, layers in timings.items()}


def time_layers(sizes=LAYER_SIZES, kernel_sizes=KERNEL_SIZES, repeats: int = REPEATS) -> dict:
    """Best-of-``repeats`` seconds per layer call, keyed by ``N=<size>`` then layer name."""
    return _summary(layer_timings(sizes, kernel_sizes, repeats), min)


def layer_timings(sizes=LAYER_SIZES, kernel_sizes=KERNEL_SIZES, repeats: int = REPEATS, peaks=None) -> dict:
    """Seconds of every timed layer call, keyed by ``N=<size>`` then layer name.

    A ``peaks`` dict receives the tracemalloc peaks (MiB) under the same keys.
    """
    # the library loads here, after main() has pinned the BLAS threads and put
    # the measured checkout's src/ first on the path
    from tfamalgam import (
        KernelMatrix,
        amalgam_norm,
        apply_locop,
        build_kernel,
        bump,
        chirped_gaussian,
        lp_norm,
        make_grid,
        make_signal,
        max_alias_free_lambda,
        modulation_norm_triebel,
        opnorm_l2,
        phase_space_symbol,
        sample,
        sharpness_symbol,
        standard_window,
        stft,
        synthesis,
    )
    from tfamalgam.families import SYMBOL_EVALUATORS
    from tfamalgam.transforms import dft_centered

    out: dict = {}
    for n in sizes:
        grid = make_grid(8, n // 8)
        window = standard_window(grid)
        f = sample(chirped_gaussian(2.0, 3.0), grid)
        locop_grid = make_grid(4, n // 4)
        bump_window = sample(bump(0.0, 1.0), locop_grid)
        lam = min(16.0, max_alias_free_lambda(locop_grid, 1.0))

        # every input is built afresh outside the timer: a new object keeps no cube table
        def signal():
            return make_signal(grid, f.samples.copy())

        def symbol():
            v = stft(f, window)
            v.samples  # formed here, outside the timer
            return v

        layers = {
            "sample": (lambda spec: sample(spec, grid), lambda: chirped_gaussian(2.0, 3.0)),
            "dft_centered": (lambda x: dft_centered(x, grid.m), lambda: f.samples.copy()),
            "stft": (lambda x: stft(x, window).samples, signal),
            "synthesis": (lambda a: synthesis(a, window), symbol),
            "apply_locop": (
                lambda a: apply_locop(a, bump_window, bump_window, bump_window),
                lambda: sharpness_symbol(bump(0.0, 1.0), lam, locop_grid),
            ),
            "amalgam_norm": (lambda a: amalgam_norm(a, 1, 2), symbol),
            "lp_norm": (lambda a: lp_norm(a, "4/3"), symbol),
            "modulation_norm_triebel": (lambda x: modulation_norm_triebel(x, 2, 1), signal),
        }
        key = f"N={n}"
        out[key] = _time_each(layers, repeats, None if peaks is None else peaks.setdefault(key, {}))
    for n in kernel_sizes:
        grid = make_grid(8, n // 8)
        window = standard_window(grid)

        def gaussian_symbol():
            return phase_space_symbol(grid, SYMBOL_EVALUATORS["gaussian"])

        entries = build_kernel(gaussian_symbol(), window, window).entries
        layers = {
            "build_kernel": (lambda a: build_kernel(a, window, window), gaussian_symbol),
            "opnorm_l2": (opnorm_l2, lambda: KernelMatrix(grid, entries.copy())),
        }
        key = f"N={n}"
        out.setdefault(key, {}).update(
            _time_each(layers, repeats, None if peaks is None else peaks.setdefault(key, {}))
        )
        del entries
    return out


def mixed_lpq_timings(sizes=LAYER_SIZES, repeats: int = REPEATS, peaks=None) -> dict:
    """Seconds of ``mixed_lpq`` of an unformed STFT on the grids of ``layer_timings``, keyed by ``N=<size>``.

    A ``peaks`` dict receives the tracemalloc peaks (MiB) under the same keys.
    """
    from tfamalgam import chirped_gaussian, make_grid, mixed_lpq, sample, standard_window, stft

    out = {}
    for n in sizes:
        grid = make_grid(8, n // 8)
        window = standard_window(grid)
        f = sample(chirped_gaussian(2.0, 3.0), grid)
        layers = {"mixed_lpq": (lambda v: mixed_lpq(v, "4/3", 2), lambda: stft(f, window))}
        key = f"N={n}"
        out[key] = _time_each(layers, repeats, None if peaks is None else peaks.setdefault(key, {}))
    return out


def region_locop_timings(n: int = LOCOP_SIZE, repeats: int = REPEATS, peaks=None) -> dict:
    """Seconds of ``sharpness_symbol`` and ``apply_locop`` calls as the region-locop scans make them.

    A sharpness symbol keeps its two factors and forms its samples only when
    they are read, and the scans never read them.  So ``sharpness_symbol L=``
    times building the factors (sampling h and the chirp, one inverse
    transform), and ``apply_locop L=`` includes the row products
    h(x) freq(w) that weight the STFT.  A ``peaks`` dict receives the
    tracemalloc peaks (MiB) under the same keys.
    """
    from tfamalgam import (
        apply_locop,
        bump,
        chirp_family,
        make_grid,
        make_signal,
        max_alias_free_lambda,
        sample,
        sharpness_symbol,
        standard_window,
    )

    out = {}
    profile = bump(0.0, 1.0)
    for cubes, window_of in ((4, lambda g: sample(profile, g)), (8, standard_window)):
        grid = make_grid(cubes, n // cubes)
        window = window_of(grid)
        lam = min(16.0, max_alias_free_lambda(grid, 1.0))
        f = make_signal(grid, sample(chirp_family(profile, lam), grid).samples.conj())
        layers = {
            f"sharpness_symbol L={cubes}": (lambda rate: sharpness_symbol(profile, rate, grid), lambda: lam),
            f"apply_locop L={cubes}": (
                lambda a: apply_locop(a, window, window, f), lambda: sharpness_symbol(profile, lam, grid)
            ),
        }
        out.update(_time_each(layers, repeats, peaks))
    return out


def stft_table_timings(repeats: int = REPEATS, peaks=None) -> dict:
    """Seconds of ``stft`` then the cube tables of the five lattice exponents, as ``scan_stft`` makes them.

    Keyed by ``N=<size>``: the smooth probe (a dilated Gaussian) at N = 2048
    and the chirp probe at N = 4096, both at lambda 32 on the grids of
    ``StftScanSettings``.  Each call takes a fresh signal, so its STFT has
    no tables yet.  A ``peaks`` dict receives the tracemalloc peaks (MiB)
    under the same keys.
    """
    from tfamalgam import StftScanSettings, bump, chirp_family, gaussian_family, make_signal, sample, standard_window, stft
    from tfamalgam.grid import as_exponent
    from tfamalgam.norms import _fill_cube_tables

    settings = StftScanSettings()
    exponents = [as_exponent(p) for p in ("1", "4/3", "2", "4", "inf")]
    out = {}
    for grid, spec in (
        (settings.smooth_grid, gaussian_family(32.0)),
        (settings.chirp_grid, chirp_family(bump(0.0, 1.0), 32.0)),
    ):
        window = standard_window(grid)
        probe = sample(spec, grid).samples
        layers = {
            "stft tables": (
                lambda x: _fill_cube_tables(stft(x, window), exponents),
                lambda: make_signal(grid, probe.copy()),
            )
        }
        key = f"N={grid.N}"
        out[key] = _time_each(layers, repeats, None if peaks is None else peaks.setdefault(key, {}))
    return out


def point_query_timings(sizes=POINT_QUERY_SIZES, repeats: int = REPEATS, peaks=None) -> dict:
    """Seconds of the calls that take most of ``point-queries``, keyed by ``N=<size>`` then layer name.

    Each runs on the (16, N/16) grid of that workload, with its standard
    window.  ``mixed_lpq`` takes an STFT whose samples are not formed, as
    ``modulation_norm`` makes it, and ``apply_locop`` a sharpness symbol of
    the largest alias-free rate up to 16.  A ``peaks`` dict receives the
    tracemalloc peaks (MiB) under the same keys.
    """
    from tfamalgam import (
        apply_locop,
        bump,
        chirped_gaussian,
        gaussian_stft_symbol,
        make_grid,
        make_signal,
        max_alias_free_lambda,
        mixed_lpq,
        modulation_norm_triebel,
        sample,
        sharpness_symbol,
        standard_window,
        stft,
        symbol_mixed_norm,
    )

    out = {}
    for n in sizes:
        grid = make_grid(16, n // 16)
        window = standard_window(grid)
        f = sample(chirped_gaussian(2.0, 3.0), grid)
        lam = min(16.0, max_alias_free_lambda(grid, 1.0))

        def signal():
            return make_signal(grid, f.samples.copy())

        layers = {
            "stft L=16": (lambda x: stft(x, window).samples, signal),
            "mixed_lpq L=16": (lambda v: mixed_lpq(v, "4/3", 2), lambda: stft(signal(), window)),
            "symbol_mixed_norm L=16": (
                lambda a: symbol_mixed_norm(a, 2, 1, "4/3", 4), lambda: gaussian_stft_symbol(2.0, grid)
            ),
            "apply_locop L=16": (
                lambda a: apply_locop(a, window, window, f), lambda: sharpness_symbol(bump(0.0, 1.0), lam, grid)
            ),
            "modulation_norm_triebel L=16": (lambda x: modulation_norm_triebel(x, 2, 1), signal),
        }
        key = f"N={n}"
        out[key] = _time_each(layers, repeats, None if peaks is None else peaks.setdefault(key, {}))
    return out


def run_workloads(root: Path, workloads, seeds, seconds: float) -> dict:
    """Untraced perfbench runs, one subprocess per workload and seed."""
    out = {}
    for name in workloads:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
            result = json.loads(lines[-1])
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics})
        median = {k: statistics.median(r["metrics"][k] for r in runs) for k in runs[0]["metrics"]}
        out[name] = {"runs": runs, "median": median}
    return out


def run_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def _git(root: Path, *args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _sha256_of(directory: Path) -> str:
    """One digest of the names and bytes of the ``*.py`` files in ``directory``, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy as np
    import tfamalgam

    if Path(tfamalgam.__file__).resolve().parent != (root / "src" / "tfamalgam").resolve():
        raise RuntimeError(f"imported tfamalgam from {tfamalgam.__file__}, not from {root}")

    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _sha256_of(root / "src" / "tfamalgam"),
        "tests_sha256": _sha256_of(root / "tests"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--root", default=str(ROOT), help="checkout to measure (default: this one)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))

    record = {"environment": environment(root), "seeds": SEEDS, "seconds": benchmark["run_seconds"],
              "layer_repeats": REPEATS}
    record["tier1"] = run_tier1(root)
    record["workloads"] = run_workloads(
        root, [w["name"] for w in benchmark["workloads"]], SEEDS, benchmark["run_seconds"]
    )
    peaks: dict = {}
    timings = layer_timings(peaks=peaks)
    timings[f"N={LOCOP_SIZE}"].update(region_locop_timings(peaks=peaks[f"N={LOCOP_SIZE}"]))
    for size, layers in mixed_lpq_timings(peaks=peaks).items():
        timings.setdefault(size, {}).update(layers)
    for size, layers in stft_table_timings(peaks=peaks).items():
        timings[size].update(layers)
    for size, layers in point_query_timings(peaks=peaks).items():
        timings.setdefault(size, {}).update(layers)
    record["layers_s"] = _summary(timings, min)
    record["layers_spread_s"] = _summary(timings, lambda secs: max(secs) - min(secs))
    record["layers_peak_alloc_mb"] = peaks
    record["layers_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"tier1 {record['tier1']['wall_s']:.1f} s: {record['tier1']['summary']}")
    for name, wl in record["workloads"].items():
        print(f"{name:16s} pass_s {wl['median']['pass_s']:.4g}  peak_rss_mb {wl['median']['peak_rss_mb']:.4g}")
    for size, layers in record["layers_s"].items():
        spread = record["layers_spread_s"][size]
        print(size, " ".join(f"{k}={v:.4g}(+{spread[k]:.2g})" for k, v in layers.items()))
        print(size, "peak MiB", " ".join(f"{k}={v:.3g}" for k, v in record["layers_peak_alloc_mb"][size].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
