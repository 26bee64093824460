import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from tfamalgam import cli, experiments, make_grid, norms, sample, transforms
from tfamalgam.cli import ConfigError, RunConfig, build_config, main, render_csv, run, table_from_summary
from tfamalgam.families import SYMBOL_EVALUATORS, gaussian_family
from tfamalgam.grid import make_signal, make_symbol, phase_space_symbol


def _run(args):
    return main(args)


def test_verify_runs_clean(tmp_path):
    code = _run(["verify", "--out", str(tmp_path / "v"), "--seed", "0"])
    assert code == 0
    assert (tmp_path / "v" / "verify.csv").exists()
    assert (tmp_path / "v" / "verify_summary.json").exists()


def test_summary_regenerates_csv(tmp_path):
    out = tmp_path / "v"
    assert _run(["verify", "--out", str(out)]) == 0
    summary = json.loads((out / "verify_summary.json").read_text())
    assert table_from_summary(summary) == (out / "verify.csv").read_text()
    assert summary["command"] == "verify"
    assert {a["status"] for a in summary["assertions"]} == {"pass"}
    assert "versions" in summary


def test_malformed_exponent_exits_2(tmp_path, capsys):
    code = _run(["norm", "--p", "0.5", "--out", str(tmp_path / "n")])
    assert code == 2
    assert "'p'" in capsys.readouterr().err


def test_unknown_command_exits_2(tmp_path):
    assert _run(["frobnicate"]) == 2


def test_bad_lattice_exits_2(tmp_path):
    assert _run(["scan-locop", "--lattice", "2.0", "--out", str(tmp_path / "x")]) == 2


def test_bad_lambdas_exits_2(tmp_path):
    assert _run(["scan-locop", "--lambdas", "8 4", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "--lam", "-1"],
        ["norm", "--grid-l", "3"],
        ["norm", "--kind", "flp", "--grid-m", "3"],
        ["locop", "--symbol", "sharpness", "--lam", "1000"],
    ],
)
def test_domain_error_exits_2(tmp_path, capsys, args):
    assert _run(args + ["--out", str(tmp_path / "d")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_norm_command_value(tmp_path):
    out = tmp_path / "n"
    code = _run(
        ["norm", "--kind", "amalgam", "--family", "gaussian", "--lam", "4",
         "--p", "2", "--q", "2", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "norm_summary.json").read_text())
    from tfamalgam import amalgam_norm, make_grid, sample
    from tfamalgam.families import gaussian_family

    expect = amalgam_norm(sample(gaussian_family(4.0), make_grid(16, 16)), 2, 2)
    assert summary["records"][0]["value"] == pytest.approx(expect, rel=1e-15)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ncommand = norm\nseed = 5\n[op]\nkind = lp\np = 4\nlam = 2\n")
    parsed = build_config(["norm", "--config", str(cfg), "--p", "2"])
    assert parsed.seed == 5
    assert parsed.p == "2"  # flag wins over file
    assert parsed.lam == 2.0
    with pytest.raises(ConfigError):
        build_config(["norm", "--config", str(tmp_path / "missing.ini")])
    bad = tmp_path / "bad.ini"
    bad.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError):
        build_config(["norm", "--config", str(bad)])


def test_a_config_key_is_the_field_name(tmp_path, capsys):
    short = tmp_path / "short.ini"
    short.write_text("[grid]\nl = 8\n")
    assert _run(["norm", "--config", str(short), "--out", str(tmp_path / "s")]) == 2
    assert "unknown key 'l' in section [grid]" in capsys.readouterr().err
    full = tmp_path / "full.ini"
    full.write_text("[grid]\ngrid_l = 8\n")
    assert _run(["norm", "--config", str(full), "--out", str(tmp_path / "f")]) == 0
    assert json.loads((tmp_path / "f" / "norm_summary.json").read_text())["config"]["grid_l"] == 8


def test_locop_identity_passes_at_its_tolerance_as_in_the_battery(monkeypatch, tmp_path):
    # an operator output off by exactly the tolerance: the command and the
    # battery judge a check by one rule, experiments._record
    def off_by_the_tolerance(a, w1, w2, f):
        samples = f.samples.copy()
        assert np.abs(samples).max() == 1.0
        samples[np.flatnonzero(samples == 0)[0]] = 1e-6
        return make_signal(f.grid, samples)

    monkeypatch.setattr(cli, "apply_locop", off_by_the_tolerance)
    out = tmp_path / "l"
    code = _run(["locop", "--symbol", "unit", "--window", "gaussian-unit", "--family", "bump", "--out", str(out)])
    [check] = json.loads((out / "locop_summary.json").read_text())["assertions"]
    assert check["measured"] == 1e-6
    assert check["status"] == experiments._record("locop-identity", 1e-6, 0.0, 1e-6).status == "pass"
    assert code == 0


def test_locop_identity_assertion(tmp_path):
    out = tmp_path / "l"
    code = _run(
        ["locop", "--symbol", "unit", "--window", "gaussian-unit",
         "--family", "gaussian", "--lam", "2", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "locop_summary.json").read_text())
    names = [a["name"] for a in summary["assertions"]]
    assert "locop-identity" in names


def test_stft_command(tmp_path):
    out = tmp_path / "s"
    assert _run(["stft", "--family", "gaussian", "--lam", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "stft_summary.json").read_text())
    quantities = {r["quantity"] for r in summary["records"]}
    assert "orthogonality_ratio" in quantities


def test_stft_and_locop_rows_are_the_values_their_checks_measured(monkeypatch, tmp_path):
    # a transform off by half and an operator off by a quarter: each row holds
    # the value of the failed check beside it
    real_stft = cli.stft

    def off_by_half(f, g):
        v = real_stft(f, g)
        return make_symbol(v.x_grid, v.w_grid, 1.5 * v.samples)

    monkeypatch.setattr(cli, "stft", off_by_half)
    monkeypatch.setattr(cli, "apply_locop", lambda a, w1, w2, f: make_signal(f.grid, 1.25 * f.samples))
    for command, row in (("stft", "orthogonality_ratio"), ("locop", "identity_residual")):
        out = tmp_path / command
        args = [command, "--window", "gaussian-unit", "--family", "bump", "--out", str(out)]
        assert _run(args + (["--symbol", "unit"] if command == "locop" else [])) == 1
        summary = json.loads((out / f"{command}_summary.json").read_text())
        [check] = summary["assertions"]
        values = {r["quantity"]: r["value"] for r in summary["records"]}
        assert check["status"] == "fail" and values[row] == check["measured"]
        assert check["measured"] == pytest.approx(1.5 if command == "stft" else 0.25, rel=1e-9)


def test_stft_command_forms_each_row_of_its_transform_once(monkeypatch, tmp_path):
    # at N = 1024 the transform is larger than one block, so its cube tables
    # are streamed from formed rows: the p = 2 and p = inf tables its norms
    # read share one pass, and no norm forms the rows again
    formed = []
    fill = transforms._StftSymbol._fill_rows

    def counted(self, rows, out):
        formed.append(rows.stop - rows.start)
        fill(self, rows, out)

    monkeypatch.setattr(transforms._StftSymbol, "_fill_rows", counted)
    assert _run(["stft", "--grid-l", "16", "--grid-m", "64", "--out", str(tmp_path / "s")]) == 0
    assert sum(formed) == 16 * 64


def test_json_format(tmp_path):
    out = tmp_path / "j"
    assert _run(["norm", "--format", "json", "--out", str(out)]) == 0
    data = json.loads((out / "norm.json").read_text())
    assert data["columns"][0] == "kind"


def test_scan_samples_file(tmp_path):
    out = tmp_path / "scan"
    code = _run(
        ["scan-locop", "--lattice", "0.5", "--lambdas", "2 4 8 16", "--out", str(out)]
    )
    assert code == 0
    table = (out / "scan-locop.csv").read_text().splitlines()
    assert table[0] == "q,r,predicted,slope,classified,residual,boundary"
    assert len(table) == 2  # one lattice point, one fit row
    samples = (out / "scan-locop_samples.csv").read_text().splitlines()
    assert len(samples) == 1 + 4 + 1  # header, one row per lambda, one fit row


def test_failed_assertion_exits_1(tmp_path):
    # at the bounded edge point q = inf, r = 2 (growth 0) this short sweep fits
    # a slope near 0.06, so a margin of 0.01 classifies it unbounded
    out = tmp_path / "fail"
    code = _run(
        ["scan-locop", "--lattice", "0 0.5", "--lambdas", "2 4 8 16",
         "--margin", "0.01", "--out", str(out)]
    )
    assert code == 1
    summary = json.loads((out / "scan-locop_summary.json").read_text())
    assert [a["name"] for a in summary["assertions"] if a["status"] == "fail"] == ["region[q=inf,r=2]"]


def test_scan_stft_table_columns(tmp_path):
    out = tmp_path / "scan"
    code = _run(["scan-stft", "--lattice", "0.5", "--lambdas", "4 8 16 32", "--out", str(out)])
    assert code == 0
    table = (out / "scan-stft.csv").read_text().splitlines()
    assert table[0] == "p,q,predicted,slope_a,slope_b,classified,residual,boundary"
    assert len(table) == 2
    assert table[1].startswith("2,2,bounded,")


def test_render_csv_is_stable():
    text = render_csv(["a", "b"], [{"a": 1.5, "b": "x"}, {"a": float("inf"), "b": True}])
    assert text == "a,b\n1.5,x\ninf,true\n"


@pytest.mark.parametrize(
    "args, header, exponents",
    [
        (["--kind", "symbol-mixed", "--symbol", "cube", "--r", "1", "--s", "inf"],
         "kind,family,lam,p,q,r,s,value", ["2", "2", "1", "inf"]),
        (["--kind", "lp", "--p", "4"], "kind,family,lam,p,value", ["4"]),
    ],
)
def test_norm_table_records_the_exponents_used(tmp_path, args, header, exponents):
    out = tmp_path / "n"
    assert _run(["norm", *args, "--out", str(out)]) == 0
    table = (out / "norm.csv").read_text().splitlines()
    assert table[0] == header
    assert table[1].split(",")[3:-1] == exponents


def test_malformed_exponent_a_kind_does_not_use_exits_2(tmp_path, capsys):
    assert _run(["norm", "--kind", "lp", "--s", "0.5", "--out", str(tmp_path / "n")]) == 2
    assert "'s'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["stft", "--p", "0.5"], "--p"),
        (["norm", "--kind", "lp", "--q", "3"], "--q"),
        (["norm", "--kind", "amalgam", "--symbol", "cube"], "--symbol"),
        (["locop", "--kind", "amalgam"], "--kind"),
        (["verify", "--grid-l", "8"], "--grid-l"),
        (["scan-stft", "--seed", "1"], "--seed"),
        (["scan-locop", "--lattice", "0.5", "--window", "bump"], "--window"),
        (["norm", "--family", "bump", "--lam", "3"], "--lam"),
    ],
)
def test_flag_the_command_does_not_use_exits_2(tmp_path, capsys, args, flag):
    out = tmp_path / "x"
    assert _run(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not out.exists()


def test_unused_keys_in_a_config_file_are_accepted(tmp_path):
    cfg = tmp_path / "shared.ini"
    cfg.write_text("[op]\nkind = lp\nq = 3\nwindow = bump\n")
    assert build_config(["norm", "--config", str(cfg)]).q == "3"


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--seed", "3"],
        ["norm", "--kind", "amalgam"],
        ["scan-stft", "--lattice", "0.5", "--lambdas", "4 8", "--margin", "0.1"],
        ["scan-locop-lq", "--lattice", "0.5"],
        ["norm", "--kind", "symbol-mixed", "--symbol", "cube", "--r", "1", "--s", "inf"],
        ["locop", "--symbol", "unit", "--window", "bump", "--family", "chirp", "--lam", "2"],
        ["stft", "--grid-l", "8", "--grid-m", "8", "--window", "bump"],
        ["locop", "--family", "indicator", "--symbol", "sharpness", "--lam", "2"],
    ],
)
def test_flags_the_command_uses_are_accepted(args):
    assert build_config(args + ["--out", "o", "--format", "json"]).command == args[0]


def test_zero_denominator_exponent_exits_2(tmp_path, capsys):
    assert _run(["norm", "--p", "1/0", "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "--lam", "nan"],
        ["norm", "--lam", "inf"],
        ["scan-locop", "--lattice", "0.5", "--margin", "nan"],
        ["scan-locop", "--lattice", "0.5", "--margin", "inf"],
        ["scan-locop", "--lattice", "0.5", "--lambdas", "nan 2 4 8 16"],
        ["scan-locop", "--lattice", "0.5", "--lambdas", "2 4 8 16 inf"],
    ],
)
def test_non_finite_value_exits_2(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert _run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_non_finite_value_in_a_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[op]\nlam = nan\n")
    assert _run(["norm", "--config", str(cfg), "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("margin", ["0", "-0.5"])
@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "file"])
def test_margin_not_positive_exits_2(tmp_path, capsys, margin, from_file):
    # a margin <= 0 is a configuration error, not a failed region claim
    out = tmp_path / "x"
    args = ["scan-locop-lq", "--lattice", "0.5", "--out", str(out)]
    if from_file:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[scan]\nmargin = {margin}\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--margin", margin]
    assert _run(args) == 2
    assert capsys.readouterr().err.startswith("config error: margin must be positive")
    assert not out.exists()


def test_scan_stft_rows_samples_and_record_keys(tmp_path):
    from tfamalgam.grid import as_exponent

    out = tmp_path / "scan"
    lambdas = (8.0, 16.0, 32.0, 64.0)
    code = _run(
        ["scan-stft", "--lattice", "0 1", "--lambdas", " ".join(map(str, lambdas)),
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    table = json.loads((out / "scan-stft.json").read_text())
    summary = json.loads((out / "scan-stft_summary.json").read_text())
    assert table["columns"] == summary["columns"]
    assert table["records"] == summary["records"]
    assert len(summary["records"]) == 4
    n_probes = 0
    for rec in summary["records"]:
        assert list(rec) == summary["columns"]
        p, q = as_exponent(rec["p"]), as_exponent(rec["q"])
        chirp_ran = p.value > q.value
        assert isinstance(rec["slope_a"], float)
        assert isinstance(rec["slope_b"], float) if chirp_ran else rec["slope_b"] == ""
        n_probes += 1 + chirp_ran
    assert n_probes == 5  # the chirp probe runs at (inf, 1) only
    for rec in summary["sample_records"]:
        assert list(rec) == summary["sample_columns"]
    samples = (out / "scan-stft_samples.csv").read_text().splitlines()
    assert samples[0] == ",".join(summary["sample_columns"])
    assert len(samples) == 1 + n_probes * (len(lambdas) + 1)


@pytest.mark.parametrize("command", ["scan-locop", "scan-locop-lq", "scan-stft"])
@pytest.mark.parametrize("lattice", ["0.5 0.5", "0 0.5 1 0.5", "1 1.0"])
def test_repeated_lattice_value_exits_2(tmp_path, capsys, command, lattice):
    # a repeated value would scan and report the same lattice point more than once
    out = tmp_path / "x"
    assert _run([command, "--lattice", lattice, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "lattice" in err
    assert not out.exists()


def test_repeated_lattice_value_in_a_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scan]\nlattice = 0 0.5 0.5\n")
    assert _run(["scan-locop", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    with pytest.raises(ConfigError):
        build_config(["scan-stft", "--config", str(cfg)])


@pytest.mark.parametrize("command", ["scan-locop", "scan-locop-lq", "scan-stft"])
@pytest.mark.parametrize("lattice", ["", " , "])
def test_empty_lattice_exits_2(tmp_path, capsys, command, lattice):
    # an empty lattice would report 0/0 assertions passed: a check that cannot fail
    out = tmp_path / "x"
    assert _run([command, "--lattice", lattice, "--out", str(out)]) == 2
    assert "lattice must hold at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_empty_lattice_in_a_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scan]\nlattice =\n")
    assert _run(["scan-locop-lq", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "lattice must hold at least one value" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        build_config(["scan-stft", "--config", str(cfg)])


def _wrap_everywhere(monkeypatch, module, attr, calls):
    """Replace ``module.attr`` by a call-recording wrapper in every library module that holds it."""
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return fn(*args, **kwargs)

    holders = [m for n, m in sys.modules.items() if n == "tfamalgam" or n.startswith("tfamalgam.")]
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is fn:
                monkeypatch.setattr(holder, key, wrapper)


def test_tables_reach_functions_wrapped_after_import(monkeypatch, tmp_path):
    # a tracer replaces module globals after import: a table entry that held the
    # function object itself would run the unwrapped function
    calls = []
    for module, attr in ((norms, "modulation_norm_triebel"), (norms, "symbol_mixed_norm"), (experiments, "scan_locop")):
        _wrap_everywhere(monkeypatch, module, attr, calls)
    grid = make_grid(16, 16)
    norms.evaluate_norm(norms.NormSpec("modulation_triebel", (2, 2)), sample(gaussian_family(1.0), grid))
    symbol = phase_space_symbol(grid, SYMBOL_EVALUATORS["gaussian"])
    norms.evaluate_norm(norms.NormSpec("symbol_mixed", (2, 2, 2, 2)), symbol)
    assert calls == ["modulation_norm_triebel", "symbol_mixed_norm"]
    for command in ("scan-locop", "scan-locop-lq"):
        args = [command, "--lattice", "0.5", "--lambdas", "2 4 8 16", "--out", str(tmp_path / command)]
        assert main(args) == 0
    assert calls[2:] == ["scan_locop", "scan_locop"]


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("norm", "[op]\nfamily = nosuch\n", "unknown family 'nosuch'"),
        ("stft", "[op]\nwindow = nosuch\n", "unknown window 'nosuch'"),
        ("locop", "[op]\nsymbol = nosuch\n", "unknown symbol 'nosuch'"),
        ("norm", "[op]\nkind = nosuch\n", "unknown norm kind 'nosuch'"),
        ("norm", "[run]\nformat = xml\n", "unknown output format 'xml'"),
    ],
)
def test_unknown_name_in_a_config_file_exits_2(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "x"
    assert _run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_unknown_format_of_a_config_built_in_code_exits_before_any_output(tmp_path):
    out = tmp_path / "x"
    with pytest.raises(ConfigError, match="unknown output format 'xml'"):
        run(RunConfig("norm", out=str(out), format="xml"))
    assert not out.exists()


# every choice of a flag, run by a command that reads that flag
_CHOICE_COMMANDS = {"format": "norm", "kind": "norm", "family": "norm", "window": "stft", "symbol": "locop"}


@pytest.mark.parametrize(
    "command, flag, choice",
    [
        (_CHOICE_COMMANDS[f.name], "--" + f.name, choice)
        for f in fields(RunConfig)
        for choice in f.metadata["flag"].get("choices", ())
    ],
)
def test_every_choice_runs(tmp_path, command, flag, choice):
    out = tmp_path / "x"
    assert _run([command, flag, choice, "--grid-l", "16", "--grid-m", "16", "--out", str(out)]) == 0
    assert (out / f"{command}_summary.json").exists()
