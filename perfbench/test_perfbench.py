"""Tests of the benchmark itself: seeded inputs, checks that can fail, complete tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import queries as Q  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return W.import_library()


def _state(lib, tracer=None):
    return SimpleNamespace(seed=0, references=W.load_references()["point-queries"], tracer=tracer)


def test_query_stream_repeats_for_a_seed():
    assert Q.query_block(5, 3) == Q.query_block(5, 3)
    assert Q.query_block(5, 3) != Q.query_block(6, 3)
    assert Q.query_block(5, 3) != Q.query_block(5, 4)


def test_block_composition_does_not_depend_on_the_seed():
    for seed in (0, 1, 2):
        block = Q.query_block(seed, 0)
        assert len(block) == Q.BLOCK
        assert sum(q.amplitude != 1.0 for q in block) == Q.SCALED_PER_BLOCK
        assert sorted((q.kind, q.m) for q in block) == sorted((q.kind, q.m) for q in Q.query_block(0, 0))
        for kind in Q.KINDS:
            families = [(q.signal or q.symbol)[0] for q in block if q.kind == kind]
            assert len(set(families)) == 4


def test_scaled_amplitudes_span_the_range():
    amps = [q.amplitude for i in range(50) for q in Q.query_block(0, i) if q.amplitude != 1.0]
    assert min(amps) < 1e-100 and max(amps) > 1e100


def test_stub_norm_returning_zero_is_counted_as_failed(lib, monkeypatch):
    monkeypatch.setattr(lib.norms, "evaluate_norm", lambda spec, f: 0.0)
    result = W.QueryWorkload().final_check(lib, _state(lib))
    n_norms = sum(q.kind in Q.NORM_KINDS for q in Q.query_block(W.REFERENCE_SEED, 0))
    assert result.failed == result.hard_failed == n_norms


def test_reference_block_passes_on_the_library(lib):
    result = W.QueryWorkload().final_check(lib, _state(lib))
    assert (result.attempted, result.failed) == (Q.BLOCK, 0)


def test_lp4_amplitude_defect_is_counted_not_filtered(lib):
    base = Q.Query("lp", 16, ("4",), ("gaussian", (1.0,)), None)
    queries = [base, dataclasses.replace(base, amplitude=1e100), dataclasses.replace(base, amplitude=1e-100)]
    result = W.QueryWorkload.run_queries(lib, _state(lib), queries)
    # the library's lp_norm overflows to inf at 1e100 and underflows to 0 at 1e-100
    assert result.attempted == 3
    assert result.failed == 2
    assert result.hard_failed == 0


def test_query_counts_do_not_depend_on_the_number_of_passes(lib, monkeypatch):
    base = Q.Query("lp", 16, ("4",), ("gaussian", (1.0,)), None)
    block = [base, dataclasses.replace(base, amplitude=1e100), dataclasses.replace(base, amplitude=1e-100)]
    monkeypatch.setattr(Q, "query_block", lambda seed, index: block)
    wl = W.QueryWorkload()
    monkeypatch.setattr(wl, "CYCLE", 2)
    state = _state(lib)
    state.failed_at = {}
    totals = W.PassResult(0.0, [])
    for index in range(5):
        totals.add(wl.run_pass(lib, state, index))
    # two distinct blocks of three queries, each with two defect failures; repeats add nothing
    assert (totals.attempted, totals.failed, totals.hard_failed) == (6, 4, 0)
    repeat = wl.run_pass(lib, state, 5)
    assert (repeat.attempted, repeat.failed, repeat.hard_failed) == (0, 0, 0)
    # a repeat that fails at other queries than the first time fails the run
    state.failed_at[0] = [2]
    repeat = wl.run_pass(lib, state, 6)
    assert (repeat.attempted, repeat.failed, repeat.hard_failed) == (1, 1, 1)


def test_region_check_flags_a_changed_slope(tmp_path):
    reference = {"inf,inf": {"classified": "bounded", "slope": -0.5}, "2,2": {"classified": "bounded", "slope": 0.0}}
    summary = {
        "columns": ["q", "r", "predicted", "slope", "classified", "residual", "boundary"],
        "records": [
            {"q": "inf", "r": "inf", "slope": -0.5, "classified": "bounded"},
            {"q": "2", "r": "2", "slope": 1e-6, "classified": "bounded"},
        ],
        "assertions": [{"status": "pass"}, {"status": "pass"}],
    }
    (tmp_path / "scan-locop_summary.json").write_text(json.dumps(summary))
    notes = []
    assert W.RegionWorkload.check("scan-locop", 0, tmp_path, reference, notes) == 1
    assert W.RegionWorkload.check("scan-locop", 1, tmp_path, reference, notes) == 2
    summary["records"][1]["slope"] = 0.0
    (tmp_path / "scan-locop_summary.json").write_text(json.dumps(summary))
    assert W.RegionWorkload.check("scan-locop", 0, tmp_path, reference, []) == 0


def test_tracer_sees_calls_through_imported_names(lib):
    radii = (2.0, 4.0, 8.0, 16.0)
    tracer = Tracer(lib)
    tracer.install()
    try:
        tracer.active = True
        lib.experiments.bernstein_ratio_fit(1, 2, radii, lib.grid.make_grid(16, 64))
        tracer.active = False
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["norms.lp_norm"] == 2 * len(radii)  # called as experiments.lp_norm
    assert calls["experiments.bandlimited_profile"] == len(radii)
    assert calls["experiments.fit_scaling"] == 1
    assert "wrapper" not in repr(lib.experiments.lp_norm)
    assert lib.experiments.lp_norm is lib.norms.lp_norm
