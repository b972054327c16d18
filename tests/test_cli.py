import csv

import pytest

from adasketch.cli import main, read_config


def run(argv):
    return main(argv)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_adaptive_subcommand_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = run([
        "adaptive", "--m", "256", "--p", "1", "--q", "2", "--L", "1",
        "--variant", "precond", "--family", "spikes:4", "--trials", "10",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["method"] == "adaptive"
    assert rows[0]["L"] == "1" and rows[0]["R"] == "2"
    assert float(rows[0]["max_cost"]) > 0


def test_adaptive_budget_mode(tmp_path):
    out = tmp_path / "run.csv"
    code = run([
        "adaptive", "--m", "256", "--budget", "10", "--family", "spikes:4",
        "--trials", "5", "--out", str(out),
    ])
    assert code == 0
    row = read_rows(out)[0]
    assert row["L"] == "0"  # budget 10 cannot afford level 1
    assert row["max_cost"] == "0"


def test_nonadaptive_subcommand(tmp_path):
    out = tmp_path / "cs.csv"
    code = run([
        "nonadaptive", "--method", "countsketch_denoised", "--m", "128",
        "--budget", "2000", "--family", "spikes:2", "--trials", "5",
        "--out", str(out),
    ])
    assert code == 0
    row = read_rows(out)[0]
    assert row["method"] == "countsketch_denoised"
    assert int(row["max_cost"]) <= 2000


def test_params_subcommand(tmp_path):
    out = tmp_path / "params.csv"
    code = run([
        "params", "--m", "65536", "--p", "1", "--q", "2", "--eps", "0.1,0.5",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[0]["L"] == "9" and rows[0]["R"] == "2"


def test_audit_subcommand_exit_codes(capsys):
    code = run([
        "audit", "--method", "linsketch", "--m", "64", "--budget", "128",
        "--family", "spikes:4", "--trials", "5",
    ])
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_compare_subcommand_and_reproducibility(tmp_path, capsys):
    args = [
        "compare", "--m", "128", "--p", "1", "--q", "2", "--budget", "0,600",
        "--family", "spikes:4,geometric", "--trials", "8", "--seed", "21",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(read_rows(out1)) == 5 * 2 * 2
    # without --out the same text goes to stdout
    capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr().out == out1.read_bytes().decode("utf-8")


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "m = 128\n"
        "family = spikes:4\n"
        "trials = 6\n"
        "seed = 9\n"
        "L = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    code = run(["adaptive", "--config", str(cfg), "--trials", "3",
                "--out", str(out)])
    assert code == 0
    row = read_rows(out)[0]
    assert row["m"] == "128"
    assert row["trials"] == "3"  # flag overrides the file
    assert row["seed"] == "9"
    assert row["L"] == "1"
    # an aliased flag (--L maps onto "levels") also beats the file value
    code = run(["adaptive", "--config", str(cfg), "--L", "0", "--out", str(out)])
    assert code == 0
    assert read_rows(out)[0]["L"] == "0"


def test_adaptive_eps_mode(tmp_path):
    out = tmp_path / "eps.csv"
    code = run(["adaptive", "--m", "65536", "--p", "1", "--q", "2",
                "--eps", "0.66", "--family", "spikes:2", "--trials", "3",
                "--out", str(out)])
    assert code == 0
    # ceil(2 * log2(sqrt(3)/0.66)) = 3 levels
    assert read_rows(out)[0]["L"] == "3"


def test_read_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(Exception):
        read_config(str(bad))


def test_parameter_errors_exit_2(tmp_path):
    assert run(["adaptive", "--family", "spikes:4"]) == 2  # missing --m
    assert run(["adaptive", "--m", "64", "--family", "wat"]) == 2
    assert run(["params", "--m", "64"]) == 2  # neither eps nor budget
    assert run(["nonadaptive", "--method", "linsketch_denoised", "--m", "100",
                "--family", "spikes:1"]) == 2  # linsketch without --budget
    for method in ("linsketch", "countsketch_denoised"):
        assert run(["nonadaptive", "--method", method, "--m", "100", "--budget", "-5",
                    "--family", "spikes:1"]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("variant = turbo\n", encoding="utf-8")
    assert run(["adaptive", "--config", str(cfg), "--m", "64", "--L", "1",
                "--family", "spikes:4"]) == 2
    cfg.write_text("trials = soon\n", encoding="utf-8")
    assert run(["adaptive", "--config", str(cfg), "--m", "64", "--L", "1",
                "--family", "spikes:4"]) == 2


def test_params_budget_beyond_float_sensitivities_exits_2(capsys):
    # about 6,100 basic levels fit this budget; the deepest sensitivity
    # underflows to 0.0, which is a parameter error, not a traceback
    assert run(["params", "--m", "4096", "--p", "3", "--q", "4", "--variant", "basic",
                "--budget", "100000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_config_file_exits_2(tmp_path):
    assert run(["adaptive", "--config", str(tmp_path / "nope.cfg"),
                "--m", "64", "--family", "spikes:4"]) == 2
