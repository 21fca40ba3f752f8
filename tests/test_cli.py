"""Command-line surface: output shapes and exit codes."""

import json
import os
import shlex

from qhecke.cli import build_parser, main
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


def test_verify_rejects_vacuous_order_and_jobs(capsys):
    for flag, value in (("--order", "-3"), ("--order", "0"), ("--jobs", "0"),
                        ("--jobs", "-2"), ("--scale", "0"), ("--scale", "-2")):
        code, out, err = run(capsys, "verify", "--id", "hecke-hf4", flag, value)
        assert code == 2 and out == ""
        assert f"{flag[2:]} must be at least 1, got {value}" in err


def test_verify_jobs_without_fork_exits_two(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, err = run(capsys, "verify", "--id", "hecke-hf4", "--jobs", "2")
    assert code == 2 and out == "" and "os.fork" in err


def test_verify_scale_multiplies_each_default_order(capsys):
    ids = ("hecke-sigma", "cong-hf8-A", "eta-u3-j1cubed")  # registry order
    argv = ["verify", "--scale", "3", "--format", "json"]
    for cid in ids:
        argv += ["--id", cid]
    code, out, _ = run(capsys, *argv)
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


def test_verify_ignores_a_config_file_in_the_working_directory(capsys, tmp_path,
                                                              monkeypatch):
    # the command line is the whole run: no file beside it chooses an order
    (tmp_path / "qhecke.conf").write_text("default_order = 5\njobs = 0\n")
    monkeypatch.chdir(tmp_path)
    ids = ("hecke-A", "appell-hf4")  # registry order
    code, out, _ = run(capsys, "verify", "--format", "json", "--id", ids[0], "--id", ids[1])
    assert code == 0
    reports = json.loads(out)
    assert [r["id"] for r in reports] == list(ids)
    for r in reports:
        assert r["status"] == "pass"
        assert r["certified_order"] == get_case(r["id"]).default_order


def test_verify_has_no_config_option(capsys):
    try:
        code = run(capsys, "verify", "--id", "hecke-A", "--config", "x")[0]
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    assert code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


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


def test_readme_commands_parse():
    # every qhecke line the README shows is one the parser accepts
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    lines = [line.split("#", 1)[0].strip() for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("qhecke ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README shows an unparsable command: qhecke {shlex.join(argv)}")
