"""Configuration-driven command line front end.

Commands

    verify          run the invariant battery (transforms, norms, operators)
    scan-stft       STFT boundedness region scan over an exponent lattice
    scan-locop      localization-operator sharpness scan (bump windows)
    scan-locop-lq   same scan with Gaussian windows on a coarser grid
    norm            evaluate one norm of one family member
    stft            norms/diagnostics of one STFT
    locop           apply one localization operator and report output norms

Both locop scans measure each symbol factor in W(L^q, L^q) = L^q.
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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    DEFAULT_LQ_SETTINGS,
    INVERSE_LATTICE,
    WINDOWS,
    CheckRecord,
    LocopScanSettings,
    StftScanSettings,
    default_lattice,
    locop_identity_check,
    scan_locop,
    scan_locop_lq,
    scan_stft,
    stft_orthogonality_check,
    verification_suite,
)
from .families import (
    SYMBOL_EVALUATORS,
    UNIT_BUMP,
    chirp_family,
    gaussian_family,
    indicator,
    sharpness_symbol,
)
from .grid import as_exponent, make_grid, phase_space_symbol, sample
from .locop import apply_locop
from .norms import NORM_ARITY, NormSpec, _fill_cube_tables, amalgam_norm, evaluate_norm, lp_norm, standard_window
from .transforms import stft


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


# Every table entry looks its function up when it is called: a table that held
# the function object would bypass a wrapper installed on the module later.

# family: (the window spec of the member with parameter lam, whether it reads lam)
_FAMILIES = {
    "gaussian": (lambda lam: gaussian_family(lam), True),
    "chirp": (lambda lam: chirp_family(UNIT_BUMP, lam), True),
    "bump": (lambda lam: UNIT_BUMP, False),
    "indicator": (lambda lam: indicator(0.0, 1.0), False),
}

# symbol: (the symbol sampled on a grid, from lam and the grid, whether it reads lam)
_SYMBOLS = {
    **{
        name: (lambda lam, grid, name=name: phase_space_symbol(grid, SYMBOL_EVALUATORS[name]), False)
        for name in SYMBOL_EVALUATORS
    },
    "sharpness": (lambda lam, grid: sharpness_symbol(UNIT_BUMP, lam, grid), True),
}

# output format: the text of the primary table, from its columns and records
_FORMATS = {
    "csv": lambda columns, records: render_csv(columns, records),
    "json": lambda columns, records: json.dumps({"columns": columns, "records": records}, indent=2) + "\n",
}


def _lookup(table: dict, name: str, what: str):
    """The entry of ``table`` for ``name``; a name the table lacks is a configuration error."""
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}")
    return table[name]


def _parse_floats(text: str) -> tuple:
    items = text.replace(",", " ").split()
    return tuple(float(x) for x in items)


def _option(section: str, default, parse=str, **flag):
    """A ``RunConfig`` field: its default, the config-file section that sets it,
    the parser of its text (from a flag or a file) and its extra argparse keywords."""
    return field(default=default, metadata={"section": section, "parse": parse, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    command: str = _option("run", MISSING)
    seed: int = _option("run", 0, int)
    out: str = _option("run", "tfamalgam-out")
    format: str = _option("run", "csv", choices=tuple(_FORMATS))  # primary table format
    grid_l: int = _option("grid", 16, int)
    grid_m: int = _option("grid", 16, int)
    lambdas: tuple | None = _option("sweep", None, _parse_floats, help="sweep values, e.g. '4 8 16 32'")
    # reciprocal exponent values of the scan lattice
    lattice: tuple | None = _option("scan", None, _parse_floats, help="reciprocal lattice values, e.g. '0 0.5 1'")
    margin: float | None = _option("scan", None, float)
    kind: str = _option("op", "lp", choices=[k.replace("_", "-") for k in NORM_ARITY])
    family: str = _option("op", "gaussian", choices=tuple(_FAMILIES))
    window: str = _option("op", "gaussian", choices=tuple(WINDOWS))
    symbol: str = _option("op", "unit", choices=tuple(_SYMBOLS))
    lam: float = _option("op", 1.0, float)
    p: str = _option("op", "2")
    q: str = _option("op", "2")
    r: str = _option("op", "2")
    s: str = _option("op", "2")


_EXPONENT_FIELDS = ("p", "q", "r", "s")
_SCAN_FIELDS = ("lambdas", "lattice", "margin")
_SIGNAL_FIELDS = ("grid_l", "grid_m", "family", "lam")


def load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    sections = {f.name: f.metadata["section"] for f in fields(RunConfig)}
    values: dict = {}
    for section in parser.sections():
        if section not in sections.values():
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if sections.get(key) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = raw
    return values


def _coerce(values: dict) -> dict:
    """Parse the text of each field, from a flag or a config file, with the parser it declares."""
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    out = {}
    for name, raw in values.items():
        try:
            out[name] = parsers[name](raw)
        except ValueError as exc:
            raise ConfigError(f"invalid value for field {name!r}: {raw!r} ({exc})") from exc
    return out


def _exponent(config_value: str, field_name: str):
    try:
        return as_exponent(config_value)
    except ValueError as exc:
        raise ConfigError(f"invalid exponent for field {field_name!r}: {config_value!r} ({exc})") from exc


def _reads_lam(table: dict, name: str) -> bool:
    # a name the table lacks may read lam; its lookup reports it
    return name not in table or table[name][1]


def _fields_used(cfg: RunConfig) -> set:
    """The config fields the command of ``cfg`` reads, given its kind, family and symbol."""
    used = {"command", "out", "format", *_COMMANDS[cfg.command][1]}
    if cfg.command == "norm":
        kind = cfg.kind.replace("-", "_")
        used -= set(_EXPONENT_FIELDS[NORM_ARITY.get(kind, len(_EXPONENT_FIELDS)) :])
        if kind != "symbol_mixed":
            used.discard("symbol")
    # lam is read by the families and symbols whose table entry says so
    if not (_reads_lam(_FAMILIES, cfg.family) or ("symbol" in used and _reads_lam(_SYMBOLS, cfg.symbol))):
        used.discard("lam")
    return used


def build_config(argv) -> RunConfig:
    ap = argparse.ArgumentParser(prog="tfamalgam", description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=tuple(_COMMANDS))
    ap.add_argument("--config", help="INI config file; flags override file keys")
    for f in fields(RunConfig)[1:]:  # every field but the command is a flag
        ap.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **f.metadata["flag"])
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        raise ConfigError("invalid command line") from exc

    flags = {f.name: getattr(ns, f.name) for f in fields(RunConfig) if getattr(ns, f.name) is not None}
    cfg = RunConfig(**_coerce({**(load_config_file(ns.config) if ns.config else {}), **flags}))
    used = _fields_used(cfg)
    unused = [name for name in flags if name not in used]
    if unused:
        flag_names = ", ".join("--" + name.replace("_", "-") for name in unused)
        what = f"norm --kind {cfg.kind}" if cfg.command == "norm" else cfg.command
        raise ConfigError(f"{flag_names} not used by {what} (fields {', '.join(map(repr, unused))})")
    for name in ("lam", "margin", "lambdas"):
        value = getattr(cfg, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if cfg.margin is not None and cfg.margin <= 0:
        raise ConfigError(f"margin must be positive, got {cfg.margin!r}")
    if cfg.lattice is not None and not cfg.lattice:
        raise ConfigError("lattice must hold at least one value")
    if cfg.lattice is not None and any(not 0.0 <= v <= 1.0 for v in cfg.lattice):
        raise ConfigError("lattice values are reciprocal exponents and must lie in [0, 1]")
    if cfg.lattice is not None and len(set(cfg.lattice)) != len(cfg.lattice):
        raise ConfigError(f"lattice values must not repeat, got {' '.join(map(str, cfg.lattice))}")
    if cfg.lambdas is not None and (
        any(v <= 0 for v in cfg.lambdas) or list(cfg.lambdas) != sorted(cfg.lambdas)
    ):
        raise ConfigError("lambdas must be positive and ascending")
    return cfg


# ---------------------------------------------------------------------------
# table rendering


def _fmt_cell(v) -> str:
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


@dataclass
class RunResult:
    columns: list
    records: list
    assertions: list[CheckRecord]
    sample_columns: list | None = None
    sample_records: list | None = None


# ---------------------------------------------------------------------------
# command implementations


def _inputs(cfg: RunConfig):
    """The grid of the run and the family member sampled on it."""
    grid = make_grid(cfg.grid_l, cfg.grid_m)
    return grid, sample(_lookup(_FAMILIES, cfg.family, "family")[0](cfg.lam), grid)


def _run_verify(cfg: RunConfig) -> RunResult:
    checks = verification_suite(seed=cfg.seed)
    columns = [f.name for f in fields(CheckRecord)]
    return RunResult(columns, [asdict(check) for check in checks], checks)


# command: (scan, default settings, the sweep fields --lambdas sets, {probe: slope column})
_LOCOP_SLOPES = {"sharpness_ratio": "slope"}
_SCANS = {
    "scan-stft": (
        lambda *args: scan_stft(*args),
        StftScanSettings(),
        ("lambdas_smooth", "lambdas_chirp"),
        {"stft_amalgam_ratio": "slope_a", "chirp_lq_ratio": "slope_b"},
    ),
    "scan-locop": (lambda *args: scan_locop(*args), LocopScanSettings(), ("lambdas",), _LOCOP_SLOPES),
    "scan-locop-lq": (lambda *args: scan_locop_lq(*args), DEFAULT_LQ_SETTINGS, ("lambdas",), _LOCOP_SLOPES),
}


def _run_scan(cfg: RunConfig) -> RunResult:
    scan, settings, sweep_fields, slope_cols = _SCANS[cfg.command]
    overrides = dict.fromkeys(sweep_fields, cfg.lambdas) if cfg.lambdas is not None else {}
    if cfg.margin is not None:
        overrides["margin"] = cfg.margin
    pairs = default_lattice(cfg.lattice if cfg.lattice is not None else INVERSE_LATTICE)
    verdicts = scan(pairs, replace(settings, **overrides))

    # the exponent columns are the names the scan gives; build_config keeps the
    # lattice non-empty, so there is a first verdict to read them from
    names = [name for name, _ in verdicts[0].exponents]
    columns = [*names, "predicted", *slope_cols.values(), "classified", "residual", "boundary"]
    records, samples = [], []
    for v in verdicts:
        point = dict(v.exponents)
        # a probe that did not run at this point leaves its column empty
        slopes = {col: v.fits[p].slope if p in v.fits else "" for p, col in slope_cols.items()}
        records.append(
            {
                **point,
                "predicted": v.predicted,
                **slopes,
                "classified": v.classified,
                "residual": max(f.max_residual for f in v.fits.values()),
                "boundary": "excluded" if v.boundary_excluded else "",
            }
        )
        for probe, fit in v.fits.items():
            row = {**point, "probe": probe}
            samples += [
                {**row, "kind": "sample", "lambda": lam, "value": value, "slope": ""}
                for lam, value in zip(fit.lambdas, fit.values)
            ]
            samples.append({**row, "kind": "fit", "lambda": "", "value": "", "slope": fit.slope})
    sample_columns = [*names, "probe", "kind", "lambda", "value", "slope"]
    return RunResult(columns, records, [v.check for v in verdicts], sample_columns, samples)


def _run_norm(cfg: RunConfig) -> RunResult:
    grid, f = _inputs(cfg)
    kind = cfg.kind.replace("-", "_")
    arity = _lookup(NORM_ARITY, kind, "norm kind")
    # every exponent must parse, also one a config file sets for another kind;
    # the kind uses the first NORM_ARITY[kind]
    parsed = {name: _exponent(getattr(cfg, name), name) for name in _EXPONENT_FIELDS}
    names = tuple(parsed)[:arity]
    spec = NormSpec(kind, tuple(parsed[name] for name in names))
    if kind == "symbol_mixed":
        target = _lookup(_SYMBOLS, cfg.symbol, "symbol")[0](cfg.lam, grid)
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
    window = _lookup(WINDOWS, cfg.window, "window")(grid)
    v = stft(f, window)
    # the norms below read two cube tables: fill both in one pass over the rows
    _fill_cube_tables(v, [as_exponent(2), as_exponent("inf")])
    check = stft_orthogonality_check(v, f, window)
    columns = ["quantity", "value"]
    records = [
        {"quantity": "l2_norm", "value": lp_norm(v, 2)},
        {"quantity": "sup_norm", "value": lp_norm(v, "inf")},
        {"quantity": "amalgam_22", "value": amalgam_norm(v, 2, 2)},
        {"quantity": "orthogonality_ratio", "value": check.measured},
    ]
    return RunResult(columns, records, [check])


def _run_locop(cfg: RunConfig) -> RunResult:
    grid, f = _inputs(cfg)
    window = _lookup(WINDOWS, cfg.window, "window")(grid)
    a = _lookup(_SYMBOLS, cfg.symbol, "symbol")[0](cfg.lam, grid)
    out = apply_locop(a, window, window, f)
    columns = ["quantity", "value"]
    records = [
        {"quantity": "output_l2", "value": lp_norm(out, 2)},
        {"quantity": "output_sup", "value": lp_norm(out, "inf")},
        {"quantity": "input_l2", "value": lp_norm(f, 2)},
    ]
    assertions = []
    if cfg.symbol == "unit" and cfg.window == "gaussian-unit":
        check = locop_identity_check(out, f)
        records.append({"quantity": "identity_residual", "value": check.measured})
        assertions.append(check)
    return RunResult(columns, records, assertions)


# command: (runner, the fields it reads beside command, out and format)
_COMMANDS = {
    "verify": (_run_verify, ("seed",)),
    "scan-stft": (_run_scan, _SCAN_FIELDS),
    "scan-locop": (_run_scan, _SCAN_FIELDS),
    "scan-locop-lq": (_run_scan, _SCAN_FIELDS),
    "norm": (_run_norm, (*_SIGNAL_FIELDS, "kind", *_EXPONENT_FIELDS, "symbol")),
    "stft": (_run_stft, (*_SIGNAL_FIELDS, "window")),
    "locop": (_run_locop, (*_SIGNAL_FIELDS, "window", "symbol")),
}


def run(cfg: RunConfig) -> int:
    """Execute one command; write artifacts; return the exit code."""
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    render = _lookup(_FORMATS, cfg.format, "output format")
    try:
        result = _COMMANDS[cfg.command][0](cfg)
    except ValueError as exc:  # a domain error in the configured values
        raise ConfigError(str(exc)) from exc

    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out!r}: {exc}") from exc

    summary = {
        "command": cfg.command,
        # tuples serialize as lists; normalize for byte-stable round trips
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()},
        "assertions": [asdict(a) for a in result.assertions],
        "columns": result.columns,
        "records": result.records,
        "versions": {
            "tfamalgam": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }

    (out_dir / f"{cfg.command}.{cfg.format}").write_text(render(result.columns, result.records), encoding="utf-8")
    if result.sample_records is not None:
        summary["sample_columns"] = result.sample_columns
        summary["sample_records"] = result.sample_records
        (out_dir / f"{cfg.command}_samples.csv").write_text(
            render_csv(result.sample_columns, result.sample_records), encoding="utf-8"
        )
    (out_dir / f"{cfg.command}_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )

    failed = [a for a in result.assertions if a.status != "pass"]
    for a in result.assertions:
        print(f"[{a.status}] {a.name}: measured={a.measured:.6g}")
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
