"""Configuration-driven command line front end.

Commands

    verify          run the invariant battery (transforms, norms, operators)
    scan-stft       STFT boundedness region scan over an exponent lattice
    scan-locop      localization-operator sharpness scan (bump windows)
    scan-locop-lq   same scan with plain L^q symbol norms, Gaussian windows
    norm            evaluate one norm of one family member
    stft            norms/diagnostics of one STFT
    locop           apply one localization operator and report output norms

Options come from an INI-style config file (flat key=value sections) and are
overridden by command-line flags.  Every run writes one primary table (csv or
json) plus a machine-readable JSON summary; scans additionally write the
per-(point, lambda) sample records.  Exit code 0 means every enabled
assertion passed, 1 an assertion failure, 2 a configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import platform
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    DEFAULT_LQ_SETTINGS,
    INVERSE_LATTICE,
    LocopScanSettings,
    StftScanSettings,
    default_lattice,
    scan_locop,
    scan_locop_lq,
    scan_stft,
    verification_suite,
)
from .families import (
    SYMBOL_EVALUATORS,
    bump,
    chirp_family,
    gaussian_family,
    indicator,
    sharpness_symbol,
)
from .grid import as_exponent, make_grid, phase_space_symbol, sample
from .locop import apply_locop
from .norms import (
    NORM_ARITY,
    NormSpec,
    amalgam_norm,
    evaluate_norm,
    lp_norm,
    standard_window,
    unit_standard_window,
)
from .transforms import stft

COMMANDS = ("verify", "scan-stft", "scan-locop", "scan-locop-lq", "norm", "stft", "locop")


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    out: str = "tfamalgam-out"
    format: str = "csv"  # primary table format: csv | json
    grid_l: int = 16
    grid_m: int = 16
    lambdas: tuple | None = None
    lattice: tuple | None = None  # reciprocal exponent values of the scan lattice
    margin: float | None = None
    kind: str = "lp"
    family: str = "gaussian"
    window: str = "gaussian"
    symbol: str = "unit"
    lam: float = 1.0
    p: str = "2"
    q: str = "2"
    r: str = "2"
    s: str = "2"


def _parse_floats(text: str) -> tuple:
    items = text.replace(",", " ").split()
    return tuple(float(x) for x in items)


_FIELD_PARSERS = {
    "seed": int,
    "grid_l": int,
    "grid_m": int,
    "lambdas": _parse_floats,
    "lattice": _parse_floats,
    "margin": float,
    "lam": float,
}

_CONFIG_SECTIONS = {
    "run": ("command", "seed", "out", "format"),
    "grid": ("grid_l", "grid_m"),
    "sweep": ("lambdas",),
    "scan": ("lattice", "margin"),
    "op": ("kind", "family", "window", "symbol", "lam", "p", "q", "r", "s"),
}

_SECTION_KEY_ALIASES = {("grid", "l"): "grid_l", ("grid", "m"): "grid_m"}

_EXPONENT_FIELDS = ("p", "q", "r", "s")
_SCAN_FIELDS = ("lambdas", "lattice", "margin")
_SIGNAL_FIELDS = ("grid_l", "grid_m", "family", "lam")

# the fields each command reads, beside command, out and format
_COMMAND_FIELDS = {
    "verify": ("seed",),
    "scan-stft": _SCAN_FIELDS,
    "scan-locop": _SCAN_FIELDS,
    "scan-locop-lq": _SCAN_FIELDS,
    "norm": (*_SIGNAL_FIELDS, "kind", *_EXPONENT_FIELDS, "symbol"),
    "stft": (*_SIGNAL_FIELDS, "window"),
    "locop": (*_SIGNAL_FIELDS, "window", "symbol"),
}


def load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values: dict = {}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            name = _SECTION_KEY_ALIASES.get((section, key), key)
            if name not in _CONFIG_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[name] = raw
    return values


def _coerce(values: dict) -> dict:
    out = {}
    for name, raw in values.items():
        if raw is None:
            continue
        parser_fn = _FIELD_PARSERS.get(name)
        try:
            out[name] = parser_fn(raw) if parser_fn and isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigError(f"invalid value for field {name!r}: {raw!r} ({exc})") from exc
    return out


def _exponent(config_value: str, field_name: str):
    try:
        return as_exponent(config_value)
    except ValueError as exc:
        raise ConfigError(f"invalid exponent for field {field_name!r}: {config_value!r} ({exc})") from exc


def _fields_used(cfg: RunConfig) -> set:
    """The config fields the command of ``cfg`` reads, given its kind, family and symbol."""
    used = {"command", "out", "format", *_COMMAND_FIELDS[cfg.command]}
    if cfg.command == "norm":
        kind = cfg.kind.replace("-", "_")
        used -= set(_EXPONENT_FIELDS[NORM_ARITY.get(kind, len(_EXPONENT_FIELDS)) :])
        if kind != "symbol_mixed":
            used.discard("symbol")
    # lam sets the gaussian and chirp families and the sharpness symbol
    if cfg.family in ("bump", "indicator") and not ("symbol" in used and cfg.symbol == "sharpness"):
        used.discard("lam")
    return used


def build_config(argv) -> RunConfig:
    ap = argparse.ArgumentParser(prog="tfamalgam", description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", help="INI config file; flags override file keys")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--format", choices=("csv", "json"))
    ap.add_argument("--grid-l", type=int, dest="grid_l")
    ap.add_argument("--grid-m", type=int, dest="grid_m")
    ap.add_argument("--lambdas", help="sweep values, e.g. '4 8 16 32'")
    ap.add_argument("--lattice", help="reciprocal lattice values, e.g. '0 0.5 1'")
    ap.add_argument("--margin", type=float)
    ap.add_argument("--kind", choices=[k.replace("_", "-") for k in NORM_ARITY])
    ap.add_argument("--family", choices=("gaussian", "chirp", "bump", "indicator"))
    ap.add_argument("--window", choices=("gaussian", "gaussian-unit", "bump"))
    ap.add_argument("--symbol", choices=(*SYMBOL_EVALUATORS, "sharpness"))
    ap.add_argument("--lam", type=float)
    ap.add_argument("--p")
    ap.add_argument("--q")
    ap.add_argument("--r")
    ap.add_argument("--s")
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        raise ConfigError("invalid command line") from exc

    merged: dict = {}
    if ns.config:
        merged.update(load_config_file(ns.config))
    for f in fields(RunConfig):
        flag_value = getattr(ns, f.name, None)
        if flag_value is not None:
            merged[f.name] = flag_value
    merged["command"] = ns.command
    merged = _coerce(merged)
    cfg = RunConfig(**merged)
    used = _fields_used(cfg)
    unused = [f.name for f in fields(RunConfig) if f.name not in used and getattr(ns, f.name) is not None]
    if unused:
        flags = ", ".join("--" + name.replace("_", "-") for name in unused)
        what = f"norm --kind {cfg.kind}" if cfg.command == "norm" else cfg.command
        raise ConfigError(f"{flags} not used by {what} (fields {', '.join(map(repr, unused))})")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    if cfg.lattice is not None and any(not 0.0 <= v <= 1.0 for v in cfg.lattice):
        raise ConfigError("lattice values are reciprocal exponents and must lie in [0, 1]")
    if cfg.lambdas is not None and (
        any(v <= 0 for v in cfg.lambdas) or list(cfg.lambdas) != sorted(cfg.lambdas)
    ):
        raise ConfigError("lambdas must be positive and ascending")
    return cfg


# ---------------------------------------------------------------------------
# table rendering


def _native(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _fmt_cell(v) -> str:
    v = _native(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(columns, records) -> str:
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_fmt_cell(rec[c]) for c in columns))
    return "\n".join(lines) + "\n"


def table_from_summary(summary: dict) -> str:
    """Regenerate the primary CSV from a parsed JSON summary (byte-identical)."""
    return render_csv(summary["columns"], summary["records"])


def _clean_record(rec: dict) -> dict:
    return {k: _native(v) for k, v in rec.items()}


@dataclass
class RunResult:
    columns: list
    records: list
    assertions: list
    sample_columns: list | None = None
    sample_records: list | None = None


def _assertion(name, status, measured, expected, tolerance) -> dict:
    return {
        "name": name,
        "status": status,
        "measured": _native(measured),
        "expected": _native(expected),
        "tolerance": _native(tolerance),
    }


# ---------------------------------------------------------------------------
# command implementations


def _family_window(cfg: RunConfig):
    if cfg.family == "gaussian":
        return gaussian_family(cfg.lam)
    if cfg.family == "chirp":
        return chirp_family(bump(0.0, 1.0), cfg.lam)
    if cfg.family == "bump":
        return bump(0.0, 1.0)
    if cfg.family == "indicator":
        return indicator(0.0, 1.0)
    raise ConfigError(f"unknown family {cfg.family!r}")


def _inputs(cfg: RunConfig):
    """The grid of the run and the family member sampled on it."""
    grid = make_grid(cfg.grid_l, cfg.grid_m)
    return grid, sample(_family_window(cfg), grid)


def _analysis_window(cfg: RunConfig, grid):
    if cfg.window == "gaussian":
        return standard_window(grid)
    if cfg.window == "gaussian-unit":
        return unit_standard_window(grid)
    if cfg.window == "bump":
        return sample(bump(0.0, 1.0), grid)
    raise ConfigError(f"unknown window {cfg.window!r}")


def _symbol(cfg: RunConfig, grid):
    if cfg.symbol in SYMBOL_EVALUATORS:
        return phase_space_symbol(grid, SYMBOL_EVALUATORS[cfg.symbol])
    if cfg.symbol == "sharpness":
        return sharpness_symbol(bump(0.0, 1.0), cfg.lam, grid)
    raise ConfigError(f"unknown symbol {cfg.symbol!r}")


def _run_verify(cfg: RunConfig) -> RunResult:
    records = []
    assertions = []
    for check in verification_suite(seed=cfg.seed):
        row = {
            "name": check.name,
            "status": check.status,
            "measured": check.measured,
            "expected": check.expected,
            "tolerance": check.tolerance,
        }
        records.append(row)
        assertions.append(_assertion(**row))
    columns = ["name", "status", "measured", "expected", "tolerance"]
    return RunResult(columns, records, assertions)


def _scan_settings(cfg: RunConfig, which: str):
    if which == "stft":
        settings = StftScanSettings()
        if cfg.lambdas is not None:
            settings = replace(settings, lambdas_smooth=cfg.lambdas, lambdas_chirp=cfg.lambdas)
        if cfg.margin is not None:
            settings = replace(settings, margin=cfg.margin)
        return settings
    settings = LocopScanSettings() if which == "locop" else DEFAULT_LQ_SETTINGS
    if cfg.lambdas is not None:
        settings = replace(settings, lambdas=cfg.lambdas)
    if cfg.margin is not None:
        settings = replace(settings, margin=cfg.margin)
    return settings


def _run_scan(cfg: RunConfig) -> RunResult:
    pairs = default_lattice(cfg.lattice if cfg.lattice is not None else INVERSE_LATTICE)
    if cfg.command == "scan-stft":
        # pairs are (p, q); lattice iterates (1/p, 1/q)
        verdicts = scan_stft(pairs, _scan_settings(cfg, "stft"))
        first, second = "p", "q"
        probe_names = ("stft_amalgam_ratio", "chirp_lq_ratio")
    else:
        verdicts = (scan_locop if cfg.command == "scan-locop" else scan_locop_lq)(
            pairs, _scan_settings(cfg, "locop" if cfg.command == "scan-locop" else "lq")
        )
        first, second = "q", "r"
        probe_names = ("sharpness_ratio",)

    columns = [first, second, "predicted"]
    if len(probe_names) == 2:
        columns += ["slope_a", "slope_b"]
    else:
        columns += ["slope"]
    columns += ["classified", "residual", "boundary"]

    records, samples, assertions = [], [], []
    for v in verdicts:
        fit_main = v.fits[probe_names[0]]
        row = {first: v.exponents[0], second: v.exponents[1], "predicted": v.predicted}
        if len(probe_names) == 2:
            fit_b = v.fits.get(probe_names[1])
            row["slope_a"] = fit_main.slope
            row["slope_b"] = fit_b.slope if fit_b else ""
        else:
            row["slope"] = fit_main.slope
        residual = max(f.max_residual for f in v.fits.values())
        row.update(
            classified=v.classified,
            residual=residual,
            boundary="excluded" if v.boundary_excluded else "",
        )
        records.append(row)
        for probe, fit in v.fits.items():
            for lam, value in zip(fit.lambdas, fit.values):
                samples.append(
                    {
                        first: v.exponents[0],
                        second: v.exponents[1],
                        "probe": probe,
                        "kind": "sample",
                        "lambda": lam,
                        "value": value,
                        "slope": "",
                    }
                )
            samples.append(
                {
                    first: v.exponents[0],
                    second: v.exponents[1],
                    "probe": probe,
                    "kind": "fit",
                    "lambda": "",
                    "value": "",
                    "slope": fit.slope,
                }
            )
        ok = v.boundary_excluded or v.predicted == v.classified
        assertions.append(
            _assertion(
                f"region[{first}={v.exponents[0]},{second}={v.exponents[1]}]",
                "pass" if ok else "fail",
                v.measured_slope,
                v.predicted_growth,
                v.margin,
            )
        )
    sample_columns = [first, second, "probe", "kind", "lambda", "value", "slope"]
    return RunResult(columns, records, assertions, sample_columns, samples)


def _run_norm(cfg: RunConfig) -> RunResult:
    grid, f = _inputs(cfg)
    kind = cfg.kind.replace("-", "_")
    if kind not in NORM_ARITY:
        raise ConfigError(f"unknown norm kind {cfg.kind!r}")
    # every exponent must parse, also one a config file sets for another kind;
    # the kind uses the first NORM_ARITY[kind]
    parsed = {name: _exponent(getattr(cfg, name), name) for name in _EXPONENT_FIELDS}
    names = tuple(parsed)[: NORM_ARITY[kind]]
    spec = NormSpec(kind, tuple(parsed[name] for name in names))
    if kind == "symbol_mixed":
        target = _symbol(cfg, grid)
    elif kind.startswith("mixed"):
        # mixed norms live on phase space; evaluate them on the STFT of f
        target = stft(f, standard_window(grid))
    else:
        target = f
    value = evaluate_norm(spec, target)
    exponents = {name: str(parsed[name]) for name in names}
    columns = ["kind", "family", "lam", *names, "value"]
    records = [{"kind": cfg.kind, "family": cfg.family, "lam": cfg.lam, **exponents, "value": value}]
    return RunResult(columns, records, [])


def _run_stft(cfg: RunConfig) -> RunResult:
    grid, f = _inputs(cfg)
    window = _analysis_window(cfg, grid)
    v = stft(f, window)
    ortho = lp_norm(v, 2) / (lp_norm(f, 2) * lp_norm(window, 2))
    columns = ["quantity", "value"]
    records = [
        {"quantity": "l2_norm", "value": lp_norm(v, 2)},
        {"quantity": "sup_norm", "value": lp_norm(v, "inf")},
        {"quantity": "amalgam_22", "value": amalgam_norm(v, 2, 2)},
        {"quantity": "orthogonality_ratio", "value": ortho},
    ]
    assertions = [
        _assertion("stft-orthogonality", "pass" if abs(ortho - 1) < 1e-6 else "fail", ortho, 1.0, 1e-6)
    ]
    return RunResult(columns, records, assertions)


def _run_locop(cfg: RunConfig) -> RunResult:
    grid, f = _inputs(cfg)
    window = _analysis_window(cfg, grid)
    a = _symbol(cfg, grid)
    out = apply_locop(a, window, window, f)
    columns = ["quantity", "value"]
    records = [
        {"quantity": "output_l2", "value": lp_norm(out, 2)},
        {"quantity": "output_sup", "value": lp_norm(out, "inf")},
        {"quantity": "input_l2", "value": lp_norm(f, 2)},
    ]
    assertions = []
    if cfg.symbol == "unit" and cfg.window == "gaussian-unit":
        residual = float(np.abs(out.samples - f.samples).max() / np.abs(f.samples).max())
        records.append({"quantity": "identity_residual", "value": residual})
        assertions.append(
            _assertion(
                "locop-identity", "pass" if residual < 1e-6 else "fail", residual, 0.0, 1e-6
            )
        )
    return RunResult(columns, records, assertions)


_RUNNERS = {
    "verify": _run_verify,
    "scan-stft": _run_scan,
    "scan-locop": _run_scan,
    "scan-locop-lq": _run_scan,
    "norm": _run_norm,
    "stft": _run_stft,
    "locop": _run_locop,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; write artifacts; return the exit code."""
    if cfg.command not in _RUNNERS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    try:
        result = _RUNNERS[cfg.command](cfg)
    except ValueError as exc:  # a domain error in the configured values
        raise ConfigError(str(exc)) from exc
    records = [_clean_record(r) for r in result.records]

    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out!r}: {exc}") from exc

    summary = {
        "command": cfg.command,
        "config": {f.name: _native(getattr(cfg, f.name)) for f in fields(RunConfig)},
        "assertions": result.assertions,
        "columns": result.columns,
        "records": records,
        "versions": {
            "tfamalgam": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    # tuples serialize as lists; normalize for byte-stable round trips
    summary["config"] = {
        k: list(v) if isinstance(v, tuple) else v for k, v in summary["config"].items()
    }

    table_name = f"{cfg.command}.{cfg.format}"
    if cfg.format == "csv":
        (out_dir / table_name).write_text(render_csv(result.columns, records), encoding="utf-8")
    else:
        (out_dir / table_name).write_text(
            json.dumps({"columns": result.columns, "records": records}, indent=2) + "\n",
            encoding="utf-8",
        )
    if result.sample_records is not None:
        sample_records = [_clean_record(r) for r in result.sample_records]
        summary["sample_columns"] = result.sample_columns
        summary["sample_records"] = sample_records
        (out_dir / f"{cfg.command}_samples.csv").write_text(
            render_csv(result.sample_columns, sample_records), encoding="utf-8"
        )
    (out_dir / f"{cfg.command}_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )

    failed = [a for a in result.assertions if a["status"] != "pass"]
    for a in result.assertions:
        print(f"[{a['status']}] {a['name']}: measured={a['measured']:.6g}")
    print(f"{cfg.command}: {len(result.assertions) - len(failed)}/{len(result.assertions)} assertions passed; artifacts in {out_dir}")
    return 1 if failed else 0


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
