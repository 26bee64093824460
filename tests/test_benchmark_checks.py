"""The point-query checks of the benchmark in ``perfbench/``, run against a stub defect.

The library's norms stay finite at every amplitude, so these tests make a
query fail on purpose: ``evaluate_norm`` is replaced by one that returns inf
for inputs far from unit amplitude.
"""

import dataclasses
import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import queries as Q  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def lib(monkeypatch):
    # the layer modules as already imported; W.import_library would import a
    # second copy of the package under the other tests
    lib = SimpleNamespace(**{n: importlib.import_module(f"tfamalgam.{n}") for n in W.LAYER_MODULES})
    real = lib.norms.evaluate_norm

    def defective(spec, f):
        top = float(np.abs(f.samples).max())
        return math.inf if not 1e-50 < top < 1e50 else real(spec, f)

    monkeypatch.setattr(lib.norms, "evaluate_norm", defective)
    return lib


def _state():
    return SimpleNamespace(seed=0, references=W.load_references()["point-queries"], tracer=None, failed_at={})


def _block():
    base = Q.Query("lp", 16, ("4",), ("gaussian", (1.0,)), None)
    return [base, dataclasses.replace(base, amplitude=1e100), dataclasses.replace(base, amplitude=1e-100)]


def test_extreme_amplitude_failures_are_counted_not_filtered(lib):
    result = W.QueryWorkload.run_queries(lib, _state(), _block())
    assert (result.attempted, result.failed, result.hard_failed) == (3, 2, 0)
    assert result.failed_at == [1, 2]


def test_query_counts_do_not_depend_on_the_number_of_passes(lib, monkeypatch):
    monkeypatch.setattr(Q, "query_block", lambda seed, index: _block())
    wl = W.QueryWorkload()
    monkeypatch.setattr(wl, "CYCLE", 2)
    state = _state()
    totals = W.PassResult(0.0, [])
    for index in range(5):
        totals.add(wl.run_pass(lib, state, index))
    # two distinct blocks of three queries, each with two failures; repeats add nothing
    assert (totals.attempted, totals.failed, totals.hard_failed) == (6, 4, 0)
    repeat = wl.run_pass(lib, state, 5)
    assert (repeat.attempted, repeat.failed, repeat.hard_failed) == (0, 0, 0)
    # a repeat that fails at other queries than the first time fails the run
    state.failed_at[0] = [2]
    repeat = wl.run_pass(lib, state, 6)
    assert (repeat.attempted, repeat.failed, repeat.hard_failed) == (1, 1, 1)
