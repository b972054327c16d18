import csv
import hashlib

import pytest

from adasketch.cli import _COMMAND_FLAGS, main, read_config


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


def test_parameter_errors_exit_2(tmp_path, capsys):
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
    # config keys must name flags; misspelt ones are not ignored
    cfg.write_text("trails = 3\nfamilee = spikes:2\n", encoding="utf-8")
    assert run(["adaptive", "--config", str(cfg), "--m", "64", "--L", "1",
                "--family", "spikes:4"]) == 2
    # comma lists: a bad or empty list names its flag, and a single-value
    # command takes one value
    spikes = ["--m", "64", "--family", "spikes:1", "--trials", "1"]
    capsys.readouterr()
    for argv, message in (
        (["adaptive", "--m", "64", "--budget", "x", "--family", "spikes:4"],
         "argument --budget: invalid int list value: 'x'"),
        (["compare", "--budget", ",", *spikes], "argument --budget: invalid int list value: ','"),
        (["params", "--m", "64", "--eps", ","], "argument --eps: invalid float list value: ','"),
    ):
        with pytest.raises(SystemExit) as exited:
            run(argv)
        assert exited.value.code == 2
        assert message in capsys.readouterr().err, argv
    for argv, message in (
        (["adaptive", "--eps", "0.5,0.25", *spikes], "expected a single --eps value"),
        (["adaptive", "--budget", "5,6", *spikes], "expected a single --budget value"),
        (["compare", "--m", "64", "--budget", "10", "--family", ",", "--trials", "1"],
         "expected at least one value"),
    ):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {message}"), argv
    # a count on a family that takes none, or an empty count
    for family in ("geometric:7", "uniform_ball:3", "zero:2", "spikes:"):
        assert run(["adaptive", "--m", "64", "--L", "1", "--family", family]) == 2
    # each subcommand takes only the flags it reads, on the command line and
    # as config keys; the error names the flag
    unread = {"compare": ("--eps", "--L", "--R", "--variant", "--method"),
              "params": ("--L", "--R", "--family", "--trials", "--seed", "--method"),
              "nonadaptive": ("--R", "--variant", "--eps"),
              "adaptive": ("--method",),
              "audit": ("--out",)}
    capsys.readouterr()
    for command, flags in unread.items():
        for flag in flags:
            value = "basic" if flag == "--variant" else "1"
            with pytest.raises(SystemExit) as exited:
                run([command, "--m", "64", flag, value])
            assert exited.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
            key = flag.lstrip("-")
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            assert run([command, "--config", str(cfg), "--m", "64"]) == 2
            assert repr(key) in capsys.readouterr().err


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


def test_over_budget_and_conflicting_sizes_exit_2(capsys):
    # a given budget bounds the cap of the method that runs; a size flag the
    # method does not read, or --eps next to --L, is a parameter error
    spikes = ["--family", "spikes:4", "--trials", "3", "--seed", "3"]
    for argv, message in (
        (["adaptive", "--m", "1024", "--L", "3", "--budget", "10", *spikes],
         "adaptive: cost cap 266112 exceeds budget 10"),
        (["audit", "--m", "1024", "--L", "3", "--budget", "10", *spikes],
         "adaptive: cost cap 266112 exceeds budget 10"),
        (["adaptive", "--m", "65536", "--eps", "0.1", "--budget", "1000", *spikes],
         "exceeds budget 1000"),
        (["nonadaptive", "--method", "read_all", "--m", "64", "--budget", "10", *spikes],
         "read_all: cost cap 64 exceeds budget 10"),
        (["nonadaptive", "--method", "countsketch", "--m", "64", "--L", "3",
          "--budget", "100", *spikes], "exceeds budget 100"),
        (["nonadaptive", "--method", "linsketch", "--m", "64", "--L", "4",
          "--budget", "100", *spikes], "linsketch does not read levels"),
        (["audit", "--method", "countsketch", "--m", "64", "--R", "3",
          "--budget", "5000", *spikes], "countsketch does not read reps"),
        (["adaptive", "--m", "1024", "--eps", "0.3", "--L", "3", *spikes], "--eps"),
        (["audit", "--method", "linsketch", "--m", "64", "--eps", "0.3",
          "--budget", "128", *spikes], "--eps"),
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (argv, err)


# every flag of each subcommand but --config and --out, by config key; a
# subcommand listed twice has flags that cannot be given together
EVERY_FLAG = [
    ("adaptive", {"m": "128", "p": "1.5", "q": "3", "budget": "1000000", "L": "1",
                  "R": "3", "variant": "basic", "family": "spikes:2", "trials": "3",
                  "seed": "4"}),
    ("adaptive", {"m": "128", "p": "1.5", "q": "3", "eps": "0.6", "R": "1",
                  "variant": "precond", "family": "geometric", "trials": "3", "seed": "4"}),
    ("nonadaptive", {"m": "128", "p": "1.5", "q": "3", "budget": "2000", "L": "0",
                     "family": "spikes:2", "trials": "3", "seed": "4",
                     "method": "countsketch_denoised"}),
    ("compare", {"m": "64", "p": "1.5", "q": "3", "budget": "0,600",
                 "family": "spikes:2,geometric", "trials": "2", "seed": "4"}),
    ("params", {"m": "4096", "p": "1.5", "q": "3", "eps": "0.5,0.25", "variant": "basic"}),
    ("params", {"m": "4096", "p": "1.5", "q": "3", "budget": "1000,50000"}),
    ("audit", {"m": "128", "p": "1.5", "q": "3", "eps": "0.6", "budget": "1000000",
               "R": "3", "variant": "basic", "family": "spikes:2", "trials": "3",
               "seed": "4", "method": "adaptive"}),
    ("audit", {"m": "128", "p": "1.5", "q": "3", "L": "1", "R": "1", "variant": "precond",
               "family": "geometric", "trials": "3", "seed": "4", "method": "adaptive"}),
]


def test_config_file_and_flags_write_the_same_bytes(tmp_path, capsys):
    for command, flags in _COMMAND_FLAGS.items():
        given = set().union(*(values for name, values in EVERY_FLAG if name == command))
        assert given == set(flags) - {"out"}, command
    cfg = tmp_path / "run.cfg"
    for command, values in EVERY_FLAG:
        argv = [token for key, value in values.items() for token in (f"--{key}", value)]
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()),
                       encoding="utf-8")
        assert run([command, "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert run([command, *argv]) == 0
        assert capsys.readouterr().out == from_file != "", command
        if "out" in _COMMAND_FLAGS[command]:
            file_out, flag_out = tmp_path / "file.csv", tmp_path / "flag.csv"
            with open(cfg, "a", encoding="utf-8") as handle:
                handle.write(f"out = {file_out}\n")
            assert run([command, "--config", str(cfg)]) == 0
            assert run([command, *argv, "--out", str(flag_out)]) == 0
            assert capsys.readouterr().out == ""
            assert file_out.read_bytes() == flag_out.read_bytes()
            assert file_out.read_bytes().decode("utf-8") == from_file


def test_bad_config_values_exit_2_naming_the_flag(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for command, line, flag in (
        ("adaptive", "trials = soon", "--trials"),
        ("adaptive", "variant = turbo", "--variant"),
        ("adaptive", "m = 1.5", "--m"),
        ("params", "variant = turbo", "--variant"),
        ("compare", "q = two", "--q"),
        ("nonadaptive", "L = x", "--L"),
        ("audit", "R = 2.5", "--R"),
        ("adaptive", "budget = x", "--budget"),
        ("compare", "budget = ,", "--budget"),
        ("params", "eps = 0.5,x", "--eps"),
        ("params", "eps = ,", "--eps"),
    ):
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run([command, "--config", str(cfg)]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1, err


def test_compare_csv_digest_is_pinned(capsys):
    """The stdout bytes of one small ``compare`` run, pinned by their sha256.

    A refactor that consumes every random stream as before leaves them
    unchanged. A change that declares a stream change updates this digest
    and says so in CHANGES.md.
    """
    assert run(["compare", "--m", "512", "--budget", "0,3000,40000",
                "--family", "spikes:4,geometric,uniform_ball", "--trials", "2",
                "--seed", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "786f82bd0f3ecffeb425bb21951257c5e083a8f68e4198963b292c0f4eac4553"
