#!/usr/bin/env python3
"""Show whether a change moves any output bit against another checkout, such as its parent.

Usage, from the root of a checkout:

    python3 scripts/bitcheck.py --root ../parent

This script records each side, the checkout at ``--root`` and this one, in
a fresh process on this host that imports that side's ``src/``, with the
BLAS threads pinned to 1.  A record holds:

- the cube tables of the 10 ``scan-stft`` probes (the smooth probe at each
  ``lambdas_smooth``, the chirp probe at each guarded ``lambdas_chirp``),
  one entry per probe and exponent p in {1, 4/3, 2, 4, inf}, from ``stft``
  and ``norms._fill_cube_tables``;
- the outputs of the 9 operators that ``scan-locop`` and ``scan-locop-lq``
  apply;
- the exit code and stdout of ``verify``, ``scan-stft``, ``scan-locop`` and
  ``scan-locop-lq``, each run as ``python -m tfamalgam COMMAND --out DIR``
  in its own process, and every artefact in DIR, with DIR replaced by
  ``<out>``.

Entries are compared by the sha256 of their bytes, dtype and shape
included.  Each is printed as ``identical`` or ``differs``.  The first that
differs also gets its largest relative change, over the array's values or
over the numbers of a text whose other characters match.  Exit code: 0 when
every entry is identical, 1 when one differs, 2 on a usage error or when a
side cannot be recorded.  A run takes a few seconds per side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("verify", "scan-stft", "scan-locop", "scan-locop-lq")
EXPONENTS = ("1", "4/3", "2", "4", "inf")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def tables_and_operators() -> dict:
    """The cube tables of the scan-stft probes and the outputs of the scan operators, by entry name."""
    from tfamalgam import (
        LocopScanSettings,
        StftScanSettings,
        apply_locop,
        bump,
        chirp_family,
        gaussian_family,
        make_signal,
        sample,
        sharpness_symbol,
        standard_window,
        stft,
    )
    from tfamalgam.experiments import DEFAULT_LQ_SETTINGS, WINDOWS, _guarded
    from tfamalgam.grid import as_exponent
    from tfamalgam.norms import _fill_cube_tables

    out = {}
    exponents = [as_exponent(p) for p in EXPONENTS]
    settings = StftScanSettings()
    profile = bump(0.0, 1.0)
    probes = [("smooth", settings.smooth_grid, lam, gaussian_family(lam)) for lam in settings.lambdas_smooth]
    probes += [
        ("chirp", settings.chirp_grid, lam, chirp_family(profile, lam))
        for lam in _guarded(settings.lambdas_chirp, settings.chirp_grid)
    ]
    for probe, grid, lam, spec in probes:
        tables = _fill_cube_tables(stft(sample(spec, grid), standard_window(grid)), exponents)
        for p, table in zip(EXPONENTS, tables):
            out[f"scan-stft table {probe} lam={lam:g} p={p}"] = table
    for command, locop_settings in (("scan-locop", LocopScanSettings()), ("scan-locop-lq", DEFAULT_LQ_SETTINGS)):
        grid = locop_settings.grid
        window = WINDOWS[locop_settings.window](grid)
        for lam in _guarded(locop_settings.lambdas, grid):
            f = make_signal(grid, np.conj(sample(chirp_family(profile, lam), grid).samples))
            a = sharpness_symbol(profile, lam, grid)
            out[f"{command} operator lam={lam:g}"] = apply_locop(a, window, window, f).samples
    return out


def cli_outputs(work: Path) -> dict:
    """Exit code and stdout of each command, then each of its artefacts, with its ``--out`` path as ``<out>``."""
    out = {}
    for command in COMMANDS:
        out_dir = work / command
        done = subprocess.run(
            [sys.executable, "-m", "tfamalgam", command, "--out", str(out_dir)],
            capture_output=True, text=True, check=False,
        )
        out[f"{command} stdout"] = f"exit {done.returncode}\n" + done.stdout.replace(str(out_dir), "<out>")
        for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
            out[f"{command} {path.name}"] = path.read_text(encoding="utf-8").replace(str(out_dir), "<out>")
    return out


def record(directory: Path) -> None:
    """Write the entries of the library this interpreter imports to ``directory``."""
    import tfamalgam

    src = Path(tfamalgam.__file__).resolve().parent
    if src != (Path.cwd() / "src" / "tfamalgam").resolve():
        raise RuntimeError(f"imported tfamalgam from {src}, not from {Path.cwd()}")
    arrays = tables_and_operators()
    texts = cli_outputs(directory / "cli")
    np.savez(directory / "arrays.npz", *arrays.values())
    (directory / "entries.json").write_text(json.dumps({"arrays": list(arrays), "texts": texts}))


def load(directory: Path) -> dict:
    """The entries ``record`` wrote, by name, arrays first."""
    entries = json.loads((directory / "entries.json").read_text())
    with np.load(directory / "arrays.npz") as npz:
        arrays = {name: npz[f"arr_{i}"] for i, name in enumerate(entries["arrays"])}
    return {**arrays, **entries["texts"]}


def _digest(value) -> str:
    digest = hashlib.sha256()
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str} {value.shape}\0".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(value.encode())
    return digest.hexdigest()


def relative_change(old, new) -> str:
    """The largest change from ``old`` to ``new`` relative to the larger magnitude, or why there is none."""
    if isinstance(old, str) != isinstance(new, str):
        return "one side is a text, the other an array"
    if isinstance(old, str):
        if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
            return "the text differs outside its numbers"
        old, new = (np.array([float(x) for x in _NUMBER.findall(text)]) for text in (old, new))
    elif old.shape != new.shape:
        return f"shape {old.shape} -> {new.shape}"
    scale = np.maximum(np.abs(old), np.abs(new))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > 0.0, np.abs(new - old) / scale, 0.0)
    return f"max relative change {rel.max():.3g}"


def compare(root: dict, change: dict) -> tuple[list[str], int]:
    """A line per entry of either record, ``identical`` or ``differs``, and the exit code: 1 if any differs."""
    names = dict.fromkeys([*root, *change])
    lines, differing = [], 0
    for name in names:
        old, new = root.get(name), change.get(name)
        if old is not None and new is not None and _digest(old) == _digest(new):
            lines.append(f"identical  {name}")
            continue
        lines.append(f"differs    {name}")
        if not differing:
            if old is None or new is None:
                lines.append(f"    only in {'this checkout' if old is None else 'the --root checkout'}")
            else:
                lines.append(f"    {relative_change(old, new)}")
        differing += 1
    lines.append(f"{len(names) - differing} identical, {differing} differ")
    return lines, int(differing > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = ap.add_mutually_exclusive_group(required=True)
    side.add_argument("--root", help="the checkout to compare this one against, such as a clone of the parent")
    side.add_argument("--record", help=argparse.SUPPRESS)  # one side: write its entries to this directory
    args = ap.parse_args(argv)
    if args.record:
        record(Path(args.record))
        return 0

    root = Path(args.root).resolve()
    if not (root / "src" / "tfamalgam").is_dir():
        print(f"bitcheck: {root} has no src/tfamalgam", file=sys.stderr)
        return 2
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for checkout, name in ((root, "root"), (ROOT, "change")):
            directory = Path(tmp) / name
            directory.mkdir()
            env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--record", str(directory)],
                cwd=checkout, env=env, capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                print(f"bitcheck: recording {checkout} failed:\n{done.stderr}", file=sys.stderr)
                return 2
            records.append(load(directory))
    lines, code = compare(*records)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
