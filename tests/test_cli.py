import csv
import hashlib
import os
import resource
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

from adasketch import cli
from adasketch.cli import _COMMAND_FLAGS, main, read_config
from adasketch.harness import make_method


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


def test_adaptive_runs_at_m_2_to_the_60(tmp_path):
    # the equi-hash bounds of m = 2^60 (D = 27 at level 1) stay exact past
    # int64's d * m, so the run costs what it costs at m = 2^16
    out = tmp_path / "run.csv"
    assert run(["adaptive", "--m", str(2**60), "--p", "1", "--q", "2", "--L", "2",
                "--family", "spikes:4", "--trials", "3", "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert row["mean_err"] == "0.0" and row["mean_cost"] == "113566.0"


def test_a_dimension_of_2_to_the_63_or_more_exits_2(capsys):
    # numpy draws coordinates as int64, so every Monte Carlo run takes
    # m < 2^63; m = 2^63 - 1 still runs, and params draws nothing
    tail = ["--L", "2", "--family", "spikes:4", "--trials", "1"]
    assert run(["adaptive", "--m", str(2**63), *tail]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run(["adaptive", "--m", str(2**63 - 1), *tail]) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert row["mean_err"] == "0.0" and row["mean_cost"] == "113566.0"
    assert run(["params", "--m", str(2**63), "--eps", "0.5"]) == 0


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


def test_huge_count_sketch_budget_stops_at_the_first_saturated_level(tmp_path):
    # once 2^L >= m the top-2^L denoising keeps every coordinate, so a budget
    # of 10^11 at m = 64 resolves L = 6 (1,024 groups), not L = 28 (2^32
    # groups, a 32 GiB plan); the level is checked before any trial runs
    for name in ("countsketch", "countsketch_denoised"):
        assert make_method(name, 64, 1.0, 2.0, budget=10**11).levels == 6
    out = tmp_path / "run.csv"
    assert run(["nonadaptive", "--method", "countsketch_denoised", "--m", "64",
                "--budget", "100000000000", "--family", "spikes:4", "--trials", "3",
                "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert (row["L"], row["R"], row["max_cost"]) == ("6", "21", str(21 * 2**10))
    assert float(row["qmoment_err"]) == 0.0


def test_budgeted_adaptive_fits_at_the_given_R_and_stops_at_saturation(capsys):
    spikes = ["--family", "spikes:4", "--trials", "2", "--seed", "3"]
    # searched at R = 4, not the default 2: level 2 fits (cap 230,040), level 3 does not
    assert run(["adaptive", "--m", "65536", "--budget", "300000", "--R", "4", *spikes]) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert (row["L"], row["R"]) == ("2", "4")
    # m = 3 saturates at level 1, which reads every coordinate it finds: exact
    assert run(["adaptive", "--m", "3", "--budget", "1000000", "--variant", "basic",
                "--family", "spikes:2", "--trials", "2", "--seed", "3"]) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert (row["L"], row["mean_err"]) == ("1", "0.0")


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


def test_audit_subcommand_exit_codes(capsys, monkeypatch):
    argv = ["audit", "--method", "linsketch", "--m", "64", "--budget", "128",
            "--family", "spikes:4", "--trials", "5"]
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        "method linsketch: cap 128, max cost 128, mean cost 128.00 -> OK\n"
        "  hashing: 0 (draws no information)\n"
        "  linsketch: 640\n")
    # a method whose declared cap is below what it spends: the first trial
    # stops the run, and main reports it with exit code 1
    monkeypatch.setattr(cli, "make_method",
                        lambda *args, **knobs: replace(make_method(*args, **knobs), cap=100))
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cap violation: linsketch: trial 0 cost 128 exceeds cap 100 "
                            "(stages {'linsketch': 128})\n")


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


def test_params_budget_beyond_float_sensitivities_stops_at_level_1(capsys):
    # about 6,100 basic levels would fit this budget, the deepest past the
    # smallest float sensitivity; level 1 already saturates at m = 4096, so
    # the plan stops there
    assert run(["params", "--m", "4096", "--p", "3", "--q", "4", "--variant", "basic",
                "--budget", "100000000"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(row["L"], row["buckets_per_level"]) for row in rows] == [("1", "4096")]


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
        # more than 2^32 count-sketch groups, by level or by budget // 93 rounds
        # (a budget reaches level 29 only where m > 2^28)
        (["nonadaptive", "--method", "countsketch", "--m", "64", "--L", "29", *spikes],
         "count-sketch level 29 needs 2^33 groups, above the cap of 2^32"),
        (["nonadaptive", "--method", "countsketch_denoised", "--m", str(2**30),
          "--budget", str(93 * 2**33), *spikes], "above the cap of 2^32"),
        (["audit", "--method", "countsketch_denoised", "--m", "64", "--L", "40", *spikes],
         "count-sketch level 40 needs 2^44 groups, above the cap of 2^32"),
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
    assert digest == "ab6962ec005f6e2a777798a2cdf19f917914f67757f6d6b5b2fa865b0f420333"


def test_audit_output_is_pinned(capsys):
    """The stdout and exit code of four ``audit`` runs, pinned by their sha256.

    They cover the adaptive variants and both denoised baselines; a refactor
    of the cap check or of how ``audit`` prints leaves the digest unchanged.
    """
    digest = hashlib.sha256()
    for argv in (
        ["--m", "4096", "--budget", "50000", "--family", "spikes:4", "--trials", "5"],
        ["--m", "4096", "--L", "2", "--variant", "basic", "--family", "uniform_ball",
         "--trials", "3"],
        ["--method", "countsketch_denoised", "--m", "1024", "--budget", "20000",
         "--family", "spikes:4", "--trials", "5"],
        ["--method", "linsketch_denoised", "--m", "256", "--budget", "300",
         "--family", "spikes:4", "--trials", "5"],
    ):
        code = run(["audit", *argv])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == (
        "e6741c85ba080852f76fd469e62b4dc391dd56fe371f49a214830d008ac98ec6")


def test_each_name_has_one_import_path():
    # the package binds its modules, never a function that shadows one
    import adasketch
    import adasketch.discover as discover_module

    assert isinstance(discover_module, types.ModuleType)
    for name in ("harness", "adaptive", "nonadaptive", "families"):
        assert isinstance(getattr(adasketch, name), types.ModuleType), name


def test_library_import_loads_no_scipy():
    # adasketch.cli loads every module; scipy is only a test dependency
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, adasketch.cli; print(sys.modules['adasketch'].__file__); "
             "print(any(name.partition('.')[0] == 'scipy' for name in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    module_file, scipy_loaded = done.stdout.split()
    assert Path(module_file).parent.parent == src
    assert scipy_loaded == "False"


def test_an_allocation_over_the_memory_limit_exits_2():
    # level 26 asks for 2^30 count-sketch groups, an 8 GiB np.bincount per
    # round; under a 3 GiB address-space limit main reports numpy's
    # MemoryError as one error line, with no traceback
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "adasketch.cli", "nonadaptive", "--method", "countsketch",
         "--m", "3", "--L", "26", "--family", "spikes:1", "--trials", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30,) * 2))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
