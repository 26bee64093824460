"""The four workloads: set-up, one pass, and the output checks of each.

A pass is the unit that is timed and repeated:

* ``region-stft``    one ``scan-stft`` command (5x5 lattice, seeded order);
* ``region-locop``   ``scan-locop`` then ``scan-locop-lq`` (same lattice);
* ``verify-battery`` one ``verify`` command with a battery seed drawn from the run seed;
* ``point-queries``  one block of 40 one-off evaluations (see ``queries``);
  the passes cycle through the first ``QueryWorkload.CYCLE`` blocks.

Commands run in-process through ``tfamalgam.cli.main``.  Every operation is
checked: a lattice point against the stored verdict and slopes, a verify
check against its own pass/fail, a query for finiteness, homogeneity in the
amplitude and, for the default-seed reference block, its stored value.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import queries as Q

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
LAYER_MODULES = ("grid", "families", "transforms", "norms", "locop", "experiments", "cli")
SLOPE_ATOL = 1e-9
QUERY_RTOL = 1e-9
REFERENCE_SEED = 0


def library_modules() -> dict:
    """The tfamalgam modules in ``sys.modules``, by name."""
    return {n: m for n, m in sys.modules.items() if n == "tfamalgam" or n.startswith("tfamalgam.")}


def import_library() -> SimpleNamespace:
    """Import tfamalgam afresh (dropping any earlier import) and return its layer modules."""
    for name in library_modules():
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"tfamalgam.{name}") for name in LAYER_MODULES}
    )


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


@dataclass
class PassResult:
    seconds: float  # timed part of the pass
    latencies: list  # seconds per request (command, battery or query)
    attempted: int = 0
    failed: int = 0
    hard_failed: int = 0  # failures that make the run incorrect
    bytes_written: int = 0
    notes: list = field(default_factory=list)
    failed_at: list = field(default_factory=list)  # positions of the failed operations in the pass

    def add(self, other: "PassResult") -> None:
        """Fold another result's counts and notes into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.hard_failed += other.hard_failed
        self.bytes_written += other.bytes_written
        self.notes.extend(other.notes)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_cli(lib, argv, out: Path) -> tuple[int, float, int]:
    """Run one command in-process; return (exit code, seconds, bytes written)."""
    out.mkdir(parents=True, exist_ok=True)
    for p in out.iterdir():
        p.unlink()
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = lib.cli.main(list(argv) + ["--out", str(out)])
    seconds = time.perf_counter() - start
    return code, seconds, _dir_bytes(out)


# ---------------------------------------------------------------------------
# region scans


class RegionWorkload:
    """Region scans through the CLI; the seed permutes the order of the lattice points."""

    def __init__(self, name: str, commands: tuple, expected_calls: dict, traced_passes: int):
        self.name = name
        self.commands = commands
        self.expected_calls = expected_calls
        self.traced_passes = traced_passes

    def setup(self, lib, seed: int, out: Path):
        rng = np.random.default_rng(seed)
        lattice = [float(v) for v in rng.permutation(lib.experiments.INVERSE_LATTICE)]
        state = SimpleNamespace(
            lattice=" ".join(repr(v) for v in lattice),
            references=load_references(),
            out=out,
        )
        self._warm_up(lib, out)
        return state

    def _warm_up(self, lib, out: Path) -> None:
        """One small scan of each kind on coarse grids, plus one small CLI command."""
        ex, grid = lib.experiments, lib.grid
        if "scan-stft" in self.commands:
            settings = ex.StftScanSettings(
                lambdas_smooth=(1.0, 2.0, 4.0, 8.0),
                lambdas_chirp=(2.0, 4.0, 8.0, 16.0),
                smooth_grid=grid.make_grid(16, 16),
                chirp_grid=grid.make_grid(8, 64),
            )
            ex.scan_stft([(2, 2), ("inf", 1)], settings)
        if "scan-locop" in self.commands:
            ex.scan_locop([(2, 2)], ex.LocopScanSettings(lambdas=(2.0, 4.0, 8.0, 16.0), grid=grid.make_grid(4, 64)))
            lq = ex.LocopScanSettings(lambdas=(1.0, 2.0, 4.0, 8.0), grid=grid.make_grid(8, 32), window="gaussian")
            ex.scan_locop_lq([(2, 2)], lq)
        run_cli(lib, ["norm", "--kind", "amalgam"], out / "warm-up")

    def run_pass(self, lib, state, index: int) -> PassResult:
        result = PassResult(0.0, [])
        for command in self.commands:
            out = state.out / command
            n_points = len(state.references[command])
            try:
                code, seconds, written = run_cli(lib, [command, "--lattice", state.lattice], out)
            except Exception as exc:  # a crashing command fails all its points
                result.notes.append(f"{command} raised {exc!r}")
                result.attempted += n_points
                result.failed += n_points
                result.hard_failed += n_points
                continue
            result.seconds += seconds
            result.latencies.append(seconds)
            result.bytes_written += written
            bad = self.check(command, code, out, state.references[command], result.notes)
            result.attempted += n_points
            result.failed += bad
            result.hard_failed += bad
        return result

    @staticmethod
    def check(command: str, code: int, out: Path, reference: dict, notes: list) -> int:
        """Number of lattice points whose assertion, verdict or slopes disagree."""
        try:
            summary = json.loads((out / f"{command}_summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            notes.append(f"{command}: no summary ({exc})")
            return len(reference)
        first, second = summary["columns"][:2]
        seen = set()
        bad = 0
        for rec, assertion in zip(summary["records"], summary["assertions"]):
            key = f"{rec[first]},{rec[second]}"
            seen.add(key)
            ref = reference.get(key)
            ok = assertion["status"] == "pass" and ref is not None and rec["classified"] == ref["classified"]
            if ok:
                for col, want in ref.items():
                    if col == "classified":
                        continue
                    got = rec[col]
                    if isinstance(want, str) or isinstance(got, str):
                        ok = ok and got == want
                    else:
                        ok = ok and abs(got - want) <= SLOPE_ATOL
            if not ok:
                notes.append(f"{command}: point {key} disagrees: {rec}")
                bad += 1
        missing = len(set(reference) - seen)
        if missing:
            notes.append(f"{command}: {missing} lattice points missing")
        if code != 0:
            notes.append(f"{command}: exit code {code}")
        return min(len(reference), bad + missing) if code == 0 else len(reference)


# ---------------------------------------------------------------------------
# verify battery


class VerifyWorkload:
    name = "verify-battery"
    traced_passes = 8
    # 4 Schur-suite kernels + kernel-vs-operator; locop-identity, kernel-vs-operator (2), weak-pairing
    expected_calls = {"locop.build_kernel": 5, "locop.apply_locop": 4, "cli.main": 1}
    CHECKS = 22

    @staticmethod
    def battery_seed(seed: int, index: int) -> int:
        return int(np.random.default_rng([seed, index]).integers(2**31))

    def setup(self, lib, seed: int, out: Path):
        state = SimpleNamespace(seed=seed, out=out)
        run_cli(lib, ["verify", "--seed", "0"], out / "warm-up")
        return state

    def run_pass(self, lib, state, index: int) -> PassResult:
        out = state.out / "verify"
        argv = ["verify", "--seed", str(self.battery_seed(state.seed, index))]
        result = PassResult(0.0, [], attempted=self.CHECKS)
        try:
            code, seconds, written = run_cli(lib, argv, out)
        except Exception as exc:
            result.notes.append(f"verify raised {exc!r}")
            result.failed = result.hard_failed = self.CHECKS
            return result
        result.seconds = seconds
        result.latencies.append(seconds)
        result.bytes_written = written
        try:
            summary = json.loads((out / "verify_summary.json").read_text(encoding="utf-8"))
            passed = sum(a["status"] == "pass" for a in summary["assertions"])
        except (OSError, ValueError) as exc:
            result.notes.append(f"verify: no summary ({exc})")
            passed = 0
        if code != 0 or passed != self.CHECKS:
            result.notes.append(f"verify {argv}: exit {code}, {passed}/{self.CHECKS} checks passed")
        result.failed = result.hard_failed = self.CHECKS - passed if code == 0 else self.CHECKS
        return result


# ---------------------------------------------------------------------------
# point queries


class QueryWorkload:
    """Point queries, block by block.

    The passes cycle through blocks 0 .. CYCLE-1 of the run seed, on fresh
    inputs each time.  A query counts in ``attempted`` and ``failed`` the first
    time it runs only, so both depend on the seed and not on how many passes
    fit into the run.  A repeated block must fail at the same queries as the
    first time; one that does not fails the run.
    """

    name = "point-queries"
    traced_passes = 3
    CYCLE = 40  # blocks; one cycle takes about 28 s on a 2-vCPU VM
    min_passes = CYCLE
    # per block of 40: 32 norm queries, 4 stft + 4 apply_locop + 4 modulation_stft STFTs
    expected_calls = {
        "norms.evaluate_norm": 32,
        "norms.modulation_norm_triebel": 4,
        "norms.symbol_mixed_norm": 4,
        "transforms.stft": 12,
        "transforms.synthesis": 4,
        "locop.apply_locop": 4,
    }

    def setup(self, lib, seed: int, out: Path):
        state = SimpleNamespace(
            seed=seed, references=load_references()["point-queries"], tracer=None, failed_at={}
        )
        # warm-up: every kind once on the smallest grid
        for q in Q.query_block(REFERENCE_SEED, 0):
            if q.m == min(Q.LINE_GRID_M):
                Q.evaluate(lib, q, Q.make_inputs(lib, q))
        return state

    def run_pass(self, lib, state, index: int) -> PassResult:
        block = index % self.CYCLE
        result = self.run_queries(lib, state, Q.query_block(state.seed, block))
        first = state.failed_at.setdefault(block, result.failed_at)
        if first is result.failed_at:
            return result
        repeat = PassResult(result.seconds, result.latencies)
        if result.failed_at != first:
            repeat.attempted = repeat.failed = repeat.hard_failed = 1
            repeat.notes.append(f"block {block} failed at queries {result.failed_at} on a repeat, {first} at first")
        return repeat

    @staticmethod
    def run_queries(lib, state, queries) -> PassResult:
        """Time each query on fresh inputs; check it is finite and homogeneous in the amplitude."""
        result = PassResult(0.0, [])
        for position, q in enumerate(queries):
            inputs = Q.make_inputs(lib, q)
            args = Q.scaled(inputs, q) if q.amplitude != 1.0 else inputs
            result.attempted += 1
            start = time.perf_counter()
            value = error = None
            try:
                value = Q.evaluate(lib, q, args)
            except Exception as exc:
                error = exc
            seconds = time.perf_counter() - start
            result.seconds += seconds
            result.latencies.append(seconds)
            ok = value is not None and Q.finite(value)
            if ok and q.amplitude != 1.0:
                with _paused(state.tracer):
                    try:
                        ok = Q.homogeneous(value, Q.evaluate(lib, q, inputs), q.amplitude, QUERY_RTOL)
                    except Exception as exc:
                        ok, error = False, exc
            if not ok:
                result.failed += 1
                result.hard_failed += q.amplitude == 1.0
                result.failed_at.append(position)
                result.notes.append(f"query failed: {q} -> {repr(error) if value is None else value}")
        return result

    def final_check(self, lib, state) -> PassResult:
        """Unit-amplitude values of the reference block against the stored ones."""
        result = PassResult(0.0, [])
        block = Q.query_block(REFERENCE_SEED, 0)
        for q, want in zip(block, state.references):
            result.attempted += 1
            try:
                got = Q.digest(Q.evaluate(lib, q, Q.make_inputs(lib, q)))
            except Exception as exc:
                got = f"raised {exc!r}"
            if not (isinstance(got, float) and abs(got - want) <= QUERY_RTOL * abs(want)):
                result.failed += 1
                result.hard_failed += 1
                result.notes.append(f"reference query {q}: got {got}, stored {want}")
        return result


@contextlib.contextmanager
def _paused(tracer):
    """Keep the homogeneity twin evaluation out of the trace."""
    if tracer is None or not tracer.active:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


WORKLOADS = {
    "region-stft": RegionWorkload(
        "region-stft",
        ("scan-stft",),
        # 5+5 STFTs; 25 points x (2 amalgam norms x 5 lambdas) + 10 points with p > q x 5 chirp lambdas
        {"transforms.stft": 10, "norms.amalgam_norm": 300, "norms.lp_norm": 50, "cli.main": 1},
        traced_passes=1,
    ),
    "region-locop": RegionWorkload(
        "region-locop",
        ("scan-locop", "scan-locop-lq"),
        # one operator per sweep value: 5 (bump windows) + 4 (Gaussian windows)
        {"locop.apply_locop": 9, "transforms.stft": 9, "transforms.synthesis": 9, "families.sharpness_symbol": 9, "cli.main": 2},
        traced_passes=2,
    ),
    "verify-battery": VerifyWorkload(),
    "point-queries": QueryWorkload(),
}
