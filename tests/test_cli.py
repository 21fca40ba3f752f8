"""Command-line surface: output shapes and exit codes."""

import json
import os

from qhecke.cli import main
from qhecke.registry import get_case

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz(capsys):
    code, out, _ = run(capsys, "hurwitz", "23")
    assert code == 0 and "H(23) = 3" in out and "36" in out
    code, out, _ = run(capsys, "hurwitz", "0")
    assert code == 0 and "-1/12" in out


def test_series_human_and_json(capsys):
    code, out, _ = run(capsys, "series", "--family", "F:4,-1", "--order", "6")
    assert code == 0 and "3*q^3" in out
    code, out, _ = run(capsys, "series", "--family", "H:1,0", "--order", "3",
                       "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert set(js) == {"min_exp", "order", "coeffs"}
    assert js["coeffs"][0] == "-1/12"


def test_series_bivariate_json(capsys):
    code, out, _ = run(capsys, "series", "--family", "F8z", "--order", "3",
                       "--format", "json")
    assert code == 0
    js = json.loads(out)
    # per-q-exponent Laurent polynomials keyed by z-exponent
    assert js["coeffs"][0] == {"0": "1"}
    assert js["coeffs"][1] == {"-1": "1", "1": "1"}


def test_series_bad_family(capsys):
    code, _, err = run(capsys, "series", "--family", "nope", "--order", "3")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "series", "--family", "F:5,1", "--order", "3")
    assert code == 2


def test_partitions(capsys):
    code, out, _ = run(capsys, "partitions", "--kind", "Q", "--n", "3", "--list")
    assert code == 0
    assert "Q(3) = 3" in out
    assert "1+1+1" in out and "1+2" in out


def test_verify_selected(capsys):
    code, out, _ = run(capsys, "verify", "--id", "hecke-A", "--order", "50")
    assert code == 0 and "pass" in out and "1/1 passed" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--id", "appell-hf4", "--order", "40",
                       "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert js[0]["id"] == "appell-hf4" and js[0]["status"] == "pass"


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--id", "appell-hf4", "--order", "40",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,status,certified_order,ms,first_mismatch"


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "nope")
    assert code == 2 and "unknown identity" in err


def test_verify_rejects_vacuous_order_and_jobs(capsys, tmp_path):
    for flag, value in (("--order", "-3"), ("--order", "0"), ("--jobs", "0"),
                        ("--jobs", "-2"), ("--scale", "0"), ("--scale", "-2")):
        code, out, err = run(capsys, "verify", "--id", "hecke-hf4", flag, value)
        assert code == 2 and out == ""
        assert f"{flag[2:]} must be at least 1, got {value}" in err
    for line in ("default_order = 0", "jobs = 0"):
        conf = tmp_path / "qhecke.conf"
        conf.write_text(line + "\n")
        code, out, err = run(capsys, "verify", "--id", "hecke-hf4", "--config", str(conf))
        assert code == 2 and out == "" and "must be at least 1" in err


def test_verify_scale_multiplies_each_default_order(capsys, tmp_path):
    ids = ("hecke-sigma", "cong-hf8-A", "eta-u3-j1cubed")  # registry order
    argv = ["verify", "--scale", "3", "--format", "json"]
    for cid in ids:
        argv += ["--id", cid]
    # --scale wins over a config file's default order, as --order does
    conf = tmp_path / "qhecke.conf"
    conf.write_text("default_order = 42\n")
    code, out, _ = run(capsys, *argv, "--config", str(conf))
    assert code == 0
    reports = json.loads(out)
    assert [r["id"] for r in reports] == list(ids)
    for r in reports:
        assert r["status"] == "pass"
        assert r["certified_order"] == 3 * get_case(r["id"]).default_order


def test_verify_scale_with_order_exits_two(capsys):
    try:
        code = run(capsys, "verify", "--id", "hecke-hf4", "--scale", "2", "--order", "40")[0]
    except SystemExit as exc:  # argparse rejects the pair itself
        code = exc.code
    assert code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_verify_allow_fail_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "mrel-f151-theta14")
    assert code == 0
    assert "allow-fail" in out


def test_config_file_sets_order(capsys, tmp_path, monkeypatch):
    conf = tmp_path / "qhecke.conf"
    conf.write_text("default_order = 42  # comment\njobs = 1\n")
    code, out, _ = run(capsys, "verify", "--id", "hecke-A",
                       "--config", str(conf))
    assert code == 0 and "    42" in out
    # CLI flag wins over the config value
    code, out, _ = run(capsys, "verify", "--id", "hecke-A",
                       "--config", str(conf), "--order", "35")
    assert code == 0 and "    35" in out


def test_missing_config_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.conf"
    code, out, err = run(capsys, "verify", "--id", "hecke-A", "--config", str(missing))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "cannot read config file" in err


def test_config_path_that_is_a_directory_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--id", "hecke-A", "--config", str(tmp_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "cannot read config file" in err


def test_unknown_config_key_exits_two(capsys, tmp_path):
    conf = tmp_path / "qhecke.conf"
    conf.write_text("jobs = 1\ndefault_ordr = 400\n")
    code, out, err = run(capsys, "verify", "--id", "hecke-A", "--config", str(conf))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and ":2: unknown key 'default_ordr'" in err


def test_oeis_command(capsys):
    code, out, _ = run(capsys, "oeis", "--seq", "A238872",
                       "--bfile", os.path.join(DATA, "b238872.txt"),
                       "--max", "100")
    assert code == 0 and "all 100" in out


def test_oeis_malformed_exit_two(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 one\n")
    code, _, err = run(capsys, "oeis", "--seq", "A238872",
                       "--bfile", str(f), "--max", "5")
    assert code == 2 and "line 1" in err


def test_oeis_mismatch_exit_one(capsys, tmp_path):
    f = tmp_path / "wrong.txt"
    f.write_text("1 2\n")
    code, out, _ = run(capsys, "oeis", "--seq", "A238872",
                       "--bfile", str(f), "--max", "5")
    assert code == 1 and "mismatch" in out


def test_ids_listing(capsys):
    code, out, _ = run(capsys, "ids")
    assert code == 0
    assert "hecke-hf8" in out and "allow-fail" in out


def test_oeis_refuses_vacuous_comparison(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no rows\n")
    out_of_range = tmp_path / "high.txt"
    out_of_range.write_text("500 1\n")
    for bfile, limit in ((os.path.join(DATA, "b238872.txt"), "0"),
                         (str(empty), "100"), (str(out_of_range), "100")):
        code, out, err = run(capsys, "oeis", "--seq", "A238872",
                             "--bfile", bfile, "--max", limit)
        assert code == 2 and out == "" and "nothing to compare" in err


def test_series_rejects_negative_order(capsys):
    code, out, err = run(capsys, "series", "--family", "F:4,-1", "--order", "-3")
    assert code == 2 and out == "" and "order must be at least 0, got -3" in err
    code, out, _ = run(capsys, "series", "--family", "F:4,-1", "--order", "0")
    assert code == 0 and out.strip().endswith("O(q^1)")


def test_series_negative_slope_exits_zero(capsys, monkeypatch):
    # the k = 0 term is the largest index read; an empty table must reach it
    from qhecke import classnum
    for family, order, want in (("F:-4,3", "5", "1 + O(q^6)"), ("H:-8,7", "3", "1 + O(q^4)")):
        monkeypatch.setattr(classnum, "_table_cache", [])
        code, out, _ = run(capsys, "series", "--family", family, "--order", order)
        assert code == 0 and out.strip() == want
