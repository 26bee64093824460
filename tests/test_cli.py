import json

import pytest

from tfamalgam.cli import ConfigError, build_config, main, render_csv, run, table_from_summary


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
    # an impossible margin forces a classification mismatch at a bounded point
    out = tmp_path / "fail"
    code = _run(
        ["scan-locop", "--lattice", "1", "--lambdas", "2 4 8 16",
         "--margin", "-1", "--out", str(out)]
    )
    assert code == 1
    summary = json.loads((out / "scan-locop_summary.json").read_text())
    assert any(a["status"] == "fail" for a in summary["assertions"])


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
