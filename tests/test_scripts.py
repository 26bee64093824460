import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_scaling_laws_exits_1_when_a_fit_is_off(monkeypatch, capsys):
    script = _load("fit_scaling_laws")
    real = script.predicted_exponent

    def one_fit_off(claim, **exponents):
        shift = 1.0 if (claim, exponents) == ("chirp-ft", {"q": 1}) else 0.0
        return real(claim, **exponents) + shift

    monkeypatch.setattr(script, "predicted_exponent", one_fit_off)
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    flags = [line.split("]")[0].strip() for line in lines if "[" in line]
    assert flags.count("[OFF") == 1
    assert flags.count("[ok") == len(flags) - 1


def test_fit_scaling_laws_runs_as_documented():
    # from the repository root with PYTHONPATH=src, as the README runs it
    done = subprocess.run(
        [sys.executable, "scripts/fit_scaling_laws.py"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "[ok" in done.stdout
    assert "[OFF" not in done.stdout


def test_bench_layer_timer_runs_at_a_tiny_size():
    bench = _load("bench")
    timings = bench.time_layers(sizes=(64,), kernel_sizes=(32,), repeats=1)
    assert set(timings) == {"N=64", "N=32"}
    assert set(timings["N=64"]) == {
        "sample", "dft_centered", "stft", "synthesis", "apply_locop",
        "amalgam_norm", "lp_norm", "modulation_norm_triebel",
    }
    assert set(timings["N=32"]) == {"build_kernel", "opnorm_l2"}
    assert all(0.0 < t < 60.0 for layer in timings.values() for t in layer.values())


def test_bench_region_locop_timer_keeps_every_call_at_a_tiny_size():
    bench = _load("bench")
    timings = bench.region_locop_timings(n=64, repeats=2)
    assert set(timings) == {"sharpness_symbol L=4", "apply_locop L=4", "sharpness_symbol L=8", "apply_locop L=8"}
    assert all(len(secs) == 2 and all(0.0 < s < 60.0 for s in secs) for secs in timings.values())
    spread = bench._summary({"N=64": timings}, lambda secs: max(secs) - min(secs))
    assert all(s >= 0.0 for s in spread["N=64"].values())


def test_bench_stft_table_timer_times_both_scan_probes():
    bench = _load("bench")
    timings = bench.stft_table_timings(repeats=1)
    assert set(timings) == {"N=2048", "N=4096"}
    assert all(set(layers) == {"stft tables"} and len(layers["stft tables"]) == 1 for layers in timings.values())
    assert all(0.0 < t < 60.0 for layers in timings.values() for t in layers["stft tables"])


def test_bench_records_a_peak_allocation_beside_every_layer_time():
    bench = _load("bench")
    peaks = {}
    timings = bench.layer_timings(sizes=(64,), kernel_sizes=(32,), repeats=1, peaks=peaks)
    timings["N=64"].update(bench.region_locop_timings(n=64, repeats=1, peaks=peaks["N=64"]))
    assert {k: set(v) for k, v in peaks.items()} == {k: set(v) for k, v in timings.items()}
    assert all(0.0 < mb < 16.0 for layers in peaks.values() for mb in layers.values())
    table_peaks = {}
    tables = bench.stft_table_timings(repeats=1, peaks=table_peaks)
    assert {k: set(v) for k, v in table_peaks.items()} == {k: set(v) for k, v in tables.items()}
    # the tables are streamed: far below the 256 MiB of the formed 4096^2 STFT
    assert all(0.0 < layers["stft tables"] < 64.0 for layers in table_peaks.values())


def test_bench_writes_the_peak_allocations_next_to_the_layer_times(monkeypatch, tmp_path):
    bench = _load("bench")
    layer_timings, region_locop_timings = bench.layer_timings, bench.region_locop_timings
    for var in bench.BLAS_THREAD_VARS:  # main() pins them; restored after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench, "LOCOP_SIZE", 64)
    monkeypatch.setattr(bench, "run_tier1", lambda root: {"wall_s": 0.0, "exit_code": 0, "summary": ""})
    monkeypatch.setattr(bench, "run_workloads", lambda *args: {})
    monkeypatch.setattr(
        bench, "layer_timings", lambda peaks: layer_timings(sizes=(64,), kernel_sizes=(32,), repeats=1, peaks=peaks)
    )
    monkeypatch.setattr(bench, "region_locop_timings", lambda peaks: region_locop_timings(n=64, repeats=1, peaks=peaks))
    monkeypatch.setattr(bench, "stft_table_timings", lambda peaks: {})
    out = tmp_path / "BENCH.json"
    assert bench.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    layers = {k: set(v) for k, v in record["layers_s"].items()}
    assert {k: set(v) for k, v in record["layers_peak_alloc_mb"].items()} == layers
    assert "apply_locop L=4" in layers["N=64"]


def test_bench_records_a_digest_of_the_tests_beside_that_of_the_source(tmp_path):
    bench = _load("bench")
    env = bench.environment(ROOT)
    assert env["tests_sha256"] == bench._sha256_of(ROOT / "tests") != env["src_sha256"]
    (tmp_path / "test_a.py").write_text("x = 1\n")
    one = bench._sha256_of(tmp_path)
    (tmp_path / "test_b.py").write_text("")
    assert bench._sha256_of(tmp_path) != one


def test_bitcheck_compare_names_every_entry_and_the_change_of_the_first_that_differs():
    bitcheck = _load("bitcheck")
    root = {
        "table p=1": np.array([[1.0, 2.0]]),
        "table p=4/3": np.array([4.86, 0.0]),
        "operator": np.array([1j, 0.5]),
        "verify stdout": "exit 0\nmeasured=4.86 in <out>\n",
    }
    same = {name: value.copy() if isinstance(value, np.ndarray) else value for name, value in root.items()}
    lines, code = bitcheck.compare(root, same)
    assert code == 0
    assert lines == [f"identical  {name}" for name in root] + ["4 identical, 0 differ"]

    moved = np.nextafter(4.86, np.inf)
    change = {
        **same,
        "table p=4/3": np.array([moved, 0.0]),
        "operator": np.array([1j, 0.5], dtype=np.complex64),  # same values, other bytes
        "verify stdout": "exit 0\nmeasured=4.87 in <out>\n",
        "new entry": "",
    }
    lines, code = bitcheck.compare(root, change)
    assert code == 1
    assert lines == [
        "identical  table p=1",
        "differs    table p=4/3",
        f"    max relative change {(moved - 4.86) / moved:.3g}",
        "differs    operator",
        "differs    verify stdout",
        "differs    new entry",
        "1 identical, 4 differ",
    ]
    assert bitcheck.relative_change("exit 0\nvalue 4.86\n", "exit 0\nvalue 4.87\n") == (
        f"max relative change {0.01 / 4.87:.3g}"
    )
    assert bitcheck.relative_change("a 1\n", "b 1\n") == "the text differs outside its numbers"


def test_bitcheck_exits_2_on_a_root_without_the_library(tmp_path, capsys):
    bitcheck = _load("bitcheck")
    assert bitcheck.main(["--root", str(tmp_path)]) == 2
    assert "no src/tfamalgam" in capsys.readouterr().err
